#include "sim/server_instance.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace hercules::sim {

using sched::Mapping;

ServerInstance::ServerInstance(const PreparedWorkload& w,
                               const SimOptions& opt)
    : w_(w), opt_(opt), power_(*w.server)
{
    // ---- set up pools -------------------------------------------------
    const sched::SchedulingConfig& cfg = w_.config;
    switch (mapping()) {
      case Mapping::CpuModelBased:
        cpu_pool_.total = cpu_pool_.idle = cfg.cpu_threads;
        cpu_pool_.cores_each = cfg.cores_per_thread;
        break;
      case Mapping::CpuSdPipeline:
        cpu_pool_.total = cpu_pool_.idle = cfg.cpu_threads;
        cpu_pool_.cores_each = cfg.cores_per_thread;
        dense_pool_.total = dense_pool_.idle = cfg.dense_threads;
        dense_pool_.cores_each = 1;
        break;
      case Mapping::GpuSdPipeline:
        cpu_pool_.total = cpu_pool_.idle = cfg.cpu_threads;
        cpu_pool_.cores_each = cfg.cores_per_thread;
        gpu_threads_.resize(static_cast<size_t>(cfg.gpu_threads));
        break;
      case Mapping::GpuModelBased:
        gpu_threads_.resize(static_cast<size_t>(cfg.gpu_threads));
        host_pool_.total = cfg.cpu_threads;
        host_pool_.cores_each = cfg.cores_per_thread;
        host_stage_idle_ = cfg.cpu_threads;
        break;
    }
    // Tail statistics come from post-warmup queries only, so the abort
    // predicate watches those.
    abort_scan_ = static_cast<size_t>(std::max(opt_.warmup_queries, 0));
}

int
ServerInstance::inject(const workload::Query& q)
{
    int idx = static_cast<int>(queries_.size());
    QueryState st;
    st.arrival = q.arrival_s;
    st.size = q.size;
    st.ps = q.pooling_scale;
    if (idx == opt_.warmup_queries)
        steady_start_ = st.arrival;
    queries_.push_back(st);
    eq_.schedule(st.arrival, Event{EventKind::Arrival, idx, 0, {}});
    return idx;
}

void
ServerInstance::runNext()
{
    const Event ev = eq_.pop();
    const size_t tid = static_cast<size_t>(ev.index);
    switch (ev.kind) {
      case EventKind::Arrival: arrival(ev.index); return;
      case EventKind::PoolDone: poolDone(ev.index, ev.chunk); return;
      case EventKind::HostStageDone: gpuHostStageDone(tid, ev.slot); return;
      case EventKind::Loaded: onLoaded(tid, ev.slot); return;
      case EventKind::ExecDone: onExecDone(tid, ev.slot); return;
    }
    panic("ServerInstance: bad event kind %d", static_cast<int>(ev.kind));
}

void
ServerInstance::advanceTo(double t_s)
{
    while (!eq_.empty() && eq_.nextTime() <= t_s)
        runNext();
}

void
ServerInstance::reserveQueries(size_t queries)
{
    queries_.reserve(queries);
    latency_ms_.reserve(queries);
    if (opt_.record_completions)
        completions_.reserve(queries);
}

void
ServerInstance::drain()
{
    while (!eq_.empty())
        runNext();
}

void
ServerInstance::step()
{
    if (!eq_.empty())
        runNext();
}

void
ServerInstance::setSlowdown(double factor)
{
    if (std::isnan(factor) || factor < 1.0)
        panic("ServerInstance::setSlowdown: factor must be >= 1 (got %f)",
              factor);
    slowdown_ = factor;
}

size_t
ServerInstance::killInFlight()
{
    size_t killed = 0;
    for (QueryState& q : queries_) {
        if (q.done)
            continue;
        q.pending = 0;
        q.done = true;
        ++killed;
    }
    done_count_ += killed;
    // Discard everything scheduled or queued: arrivals not yet fired,
    // chunks waiting in pools, batches staged in the GPU pipeline.
    eq_.clear();
    auto reset = [](Pool& p) {
        p.queue.clear();
        p.idle = p.total;
    };
    reset(cpu_pool_);
    reset(dense_pool_);
    reset(host_pool_);
    for (GpuThread& th : gpu_threads_) {
        th.loading = false;
        th.has_loaded = false;
        th.executing = false;
    }
    fusion_queue_.clear();
    host_stage_queue_.clear();
    batches_.clear();
    free_batches_.clear();
    host_stage_idle_ = host_pool_.total;
    pcie_free_ = eq_.now();
    return killed;
}

/**
 * The early-abort predicate: true once the oldest in-flight post-warmup
 * query has been in the system longer than abort_tail_ms. Amortized
 * O(1): the scan pointer only moves forward over completed queries.
 */
bool
ServerInstance::abortTriggered()
{
    while (abort_scan_ < queries_.size() && queries_[abort_scan_].done)
        ++abort_scan_;
    if (abort_scan_ >= queries_.size())
        return false;
    const QueryState& q = queries_[abort_scan_];
    return eq_.now() - q.arrival > opt_.abort_tail_ms * 1e-3;
}

ServerInstance::ServiceSample
ServerInstance::cpuService(int pool_id, int items, double query_ps)
{
    const CpuServiceEntry e = w_.cpuService(pool_id, items);
    double f = query_ps - 1.0;
    ServiceSample s;
    s.latency_us = std::max(1e-3, e.lat1 + (e.lat2 - e.lat1) * f);
    s.dram_bytes = std::max(0.0, e.bytes1 + (e.bytes2 - e.bytes1) * f);
    s.nmp_busy_us = std::max(0.0, e.nmp1 + (e.nmp2 - e.nmp1) * f);
    s.idle_frac = e.idle_frac;
    return s;
}

void
ServerInstance::chargeBins(std::vector<double>& bins, double start_s,
                           double end_s, double weight)
{
    if (end_s <= start_s || weight <= 0.0)
        return;
    size_t first = binIndex(start_s);
    size_t last = binIndex(end_s);
    if (bins.size() <= last)
        bins.resize(last + 1, 0.0);
    for (size_t b = first; b <= last; ++b) {
        double lo = std::max(start_s, static_cast<double>(b) * kBinSeconds);
        double hi = std::min(end_s,
                             static_cast<double>(b + 1) * kBinSeconds);
        if (hi > lo)
            bins[b] += (hi - lo) * weight;
    }
}

void
ServerInstance::splitToPool(int qidx, int pool_index, int batch)
{
    QueryState& q = queries_[static_cast<size_t>(qidx)];
    int remaining = q.size;
    while (remaining > 0) {
        int take = std::min(remaining, batch);
        remaining -= take;
        ++q.pending;
        enqueue(pool_index, Chunk{qidx, take, q.ps});
    }
}

void
ServerInstance::enqueue(int pool_index, Chunk c)
{
    Pool& p = pool(pool_index);
    if (p.idle > 0) {
        --p.idle;
        poolServe(pool_index, c);
    } else {
        p.queue.push_back(c);
    }
}

void
ServerInstance::poolServe(int pool_index, Chunk c)
{
    const Pool& p = pool(pool_index);
    int pool_id = pool_index == kPoolCpu
                      ? (mapping() == Mapping::CpuModelBased ? 0 : 1)
                      : 2;
    QueryState& q = queries_[static_cast<size_t>(c.query)];
    if (!q.started) {
        q.started = true;
        q.enqueue_done = eq_.now();
        if (c.query >= opt_.warmup_queries)
            queue_ms_.add((eq_.now() - q.arrival) * 1e3);
    }

    ServiceSample s = cpuService(pool_id, c.items, c.ps);
    double start = eq_.now();
    double end = start + s.latency_us * 1e-6 * slowdown_;
    // Op-workers blocked on the dependency chain do not burn busy
    // cycles (the Fig 4(c)/Fig 5 utilization effect).
    chargeBins(cpu_busy_s_, start, end,
               static_cast<double>(p.cores_each) * (1.0 - s.idle_frac));
    chargeBins(mem_bytes_, start, end,
               s.dram_bytes / (s.latency_us * 1e-6));
    if (s.nmp_busy_us > 0.0)
        chargeBins(nmp_busy_s_, start, start + s.nmp_busy_us * 1e-6, 1.0);
    if (c.query >= opt_.warmup_queries)
        exec_ms_.add(s.latency_us * 1e-3);

    eq_.schedule(end, Event{EventKind::PoolDone, pool_index, 0, c});
}

void
ServerInstance::poolDone(int pool_index, Chunk c)
{
    // Hand the chunk to the next stage.
    if (pool_index == kPoolCpu && mapping() == Mapping::CpuSdPipeline) {
        enqueue(kPoolDense, c);
    } else if (pool_index == kPoolCpu &&
               mapping() == Mapping::GpuSdPipeline) {
        fusion_queue_.push_back(c);
        for (size_t t = 0; t < gpu_threads_.size(); ++t)
            tryFormGpuBatch(t);
    } else {
        queryPartDone(c.query);
    }
    // Pull the next chunk.
    Pool& p = pool(pool_index);
    if (!p.queue.empty()) {
        Chunk next = p.queue.front();
        p.queue.pop_front();
        poolServe(pool_index, next);
    } else {
        ++p.idle;
    }
}

void
ServerInstance::queryPartDone(int qidx)
{
    QueryState& q = queries_[static_cast<size_t>(qidx)];
    if (--q.pending > 0)
        return;
    q.done = true;
    ++done_count_;
    double now = eq_.now();
    last_finish_ = now;
    if (opt_.record_completions) {
        Completion c;
        c.query = qidx;
        c.arrival_s = q.arrival;
        c.finish_s = now;
        c.queue_wait_s = q.started ? q.enqueue_done - q.arrival : 0.0;
        completions_.push_back(c);
    }
    if (qidx >= opt_.warmup_queries) {
        latency_ms_.add((now - q.arrival) * 1e3);
        ++measured_completed_;
    }
}

void
ServerInstance::arrival(int qidx)
{
    QueryState& q = queries_[static_cast<size_t>(qidx)];
    switch (mapping()) {
      case Mapping::CpuModelBased:
      case Mapping::CpuSdPipeline:
      case Mapping::GpuSdPipeline:
        splitToPool(qidx, kPoolCpu, w_.config.batch);
        break;
      case Mapping::GpuModelBased: {
        // Queries enter the fusion queue whole; oversized queries are
        // chunked at the fusion limit.
        int limit = w_.config.fusion_limit > 0 ? w_.config.fusion_limit
                                               : q.size;
        int remaining = q.size;
        while (remaining > 0) {
            int take = std::min(remaining, limit);
            remaining -= take;
            ++q.pending;
            fusion_queue_.push_back(Chunk{qidx, take, q.ps});
        }
        for (size_t t = 0; t < gpu_threads_.size(); ++t)
            tryFormGpuBatch(t);
        break;
      }
    }
}

uint32_t
ServerInstance::allocBatch()
{
    if (free_batches_.empty()) {
        batches_.emplace_back();
        return static_cast<uint32_t>(batches_.size() - 1);
    }
    uint32_t slot = free_batches_.back();
    free_batches_.pop_back();
    Batch& b = batches_[slot];
    b.chunks.clear();
    b.items = 0;
    return slot;
}

void
ServerInstance::tryFormGpuBatch(size_t tid)
{
    GpuThread& th = gpu_threads_[tid];
    if (th.loading || th.has_loaded || fusion_queue_.empty())
        return;

    const uint32_t slot = allocBatch();
    Batch& b = batches_[slot];
    int limit = w_.config.fusion_limit;
    while (!fusion_queue_.empty()) {
        const Chunk& c = fusion_queue_.front();
        if (!b.chunks.empty() &&
            (limit <= 0 || b.items + c.items > limit))
            break;
        b.chunks.push_back(c);
        b.items += c.items;
        fusion_queue_.pop_front();
        if (limit <= 0)
            break;  // no fusion: one query chunk per batch
    }
    double ps_weighted = 0.0;
    for (const Chunk& c : b.chunks) {
        ps_weighted += c.ps * c.items;
        QueryState& q = queries_[static_cast<size_t>(c.query)];
        if (!q.started) {
            q.started = true;
            q.enqueue_done = eq_.now();
            if (c.query >= opt_.warmup_queries)
                queue_ms_.add((eq_.now() - q.arrival) * 1e3);
        }
    }
    b.ps = b.items > 0 ? ps_weighted / b.items : 1.0;

    th.loading = true;
    bool needs_cold = mapping() == Mapping::GpuModelBased &&
                      w_.gpu_cx.hot_hit_rate < 1.0;
    if (needs_cold) {
        // Host threads pre-reduce the cold embedding fraction.
        if (host_stage_idle_ > 0) {
            --host_stage_idle_;
            startHostStage(tid, slot);
        } else {
            host_stage_queue_.emplace_back(tid, slot);
        }
    } else {
        startTransfer(tid, slot);
    }
}

void
ServerInstance::startHostStage(size_t tid, uint32_t slot)
{
    const Batch& b = batches_[slot];
    ServiceSample s = cpuService(3, b.items, b.ps);
    double end = eq_.now() + s.latency_us * 1e-6 * slowdown_;
    chargeBins(cpu_busy_s_, eq_.now(), end,
               static_cast<double>(host_pool_.cores_each) *
                   (1.0 - s.idle_frac));
    chargeBins(mem_bytes_, eq_.now(), end,
               s.dram_bytes / (s.latency_us * 1e-6));
    if (s.nmp_busy_us > 0.0)
        chargeBins(nmp_busy_s_, eq_.now(),
                   eq_.now() + s.nmp_busy_us * 1e-6, 1.0);
    for (const Chunk& c : b.chunks)
        if (c.query >= opt_.warmup_queries) {
            host_ms_.add(s.latency_us * 1e-3);
            break;
        }
    eq_.schedule(end, Event{EventKind::HostStageDone, static_cast<int>(tid),
                            slot, {}});
}

void
ServerInstance::gpuHostStageDone(size_t tid, uint32_t slot)
{
    startTransfer(tid, slot);
    // Free host helper; pull queued host-stage work.
    if (!host_stage_queue_.empty()) {
        auto [next_tid, next_slot] = host_stage_queue_.front();
        host_stage_queue_.pop_front();
        startHostStage(next_tid, next_slot);
    } else {
        ++host_stage_idle_;
    }
}

void
ServerInstance::startTransfer(size_t tid, uint32_t slot)
{
    const Batch& b = batches_[slot];
    double bytes = w_.gpuInputBytes(b.items, b.ps);
    // The PCIe link is a FIFO DMA engine shared by all loaders.
    const hw::CostModel& cost = w_.cost();
    double dur_s = (hw::calib::kGpuHostPrepUs +
                    cost.pcieTransferUs(bytes, cost.pcieBwGbps())) *
                   1e-6 * slowdown_;
    double start = std::max(eq_.now(), pcie_free_);
    double end = start + dur_s;
    pcie_free_ = end;
    chargeBins(pcie_busy_s_, start, end, 1.0);
    for (const Chunk& c : b.chunks)
        if (c.query >= opt_.warmup_queries) {
            load_ms_.add((end - eq_.now()) * 1e3);
            break;
        }
    eq_.schedule(end, Event{EventKind::Loaded, static_cast<int>(tid),
                            slot, {}});
}

void
ServerInstance::onLoaded(size_t tid, uint32_t slot)
{
    GpuThread& th = gpu_threads_[tid];
    th.loading = false;
    if (th.executing) {
        th.loaded = slot;
        th.has_loaded = true;
    } else {
        startExec(tid, slot);
        // Prefetch the next batch while this one executes.
        tryFormGpuBatch(tid);
    }
}

void
ServerInstance::startExec(size_t tid, uint32_t slot)
{
    const Batch& b = batches_[slot];
    GpuThread& th = gpu_threads_[tid];
    th.executing = true;
    double latency_us = w_.gpuExecUs(b.items, b.ps);
    double end = eq_.now() + latency_us * 1e-6 * slowdown_;
    chargeBins(gpu_busy_s_, eq_.now(), end, 1.0);
    for (const Chunk& c : b.chunks)
        if (c.query >= opt_.warmup_queries) {
            exec_ms_.add(latency_us * 1e-3);
            break;
        }
    eq_.schedule(end, Event{EventKind::ExecDone, static_cast<int>(tid),
                            slot, {}});
}

void
ServerInstance::onExecDone(size_t tid, uint32_t slot)
{
    GpuThread& th = gpu_threads_[tid];
    th.executing = false;
    for (const Chunk& c : batches_[slot].chunks)
        queryPartDone(c.query);
    free_batches_.push_back(slot);
    if (th.has_loaded) {
        th.has_loaded = false;
        startExec(tid, th.loaded);
    }
    tryFormGpuBatch(tid);
}

ServerInstance::BinUtil
ServerInstance::binUtil(size_t b, double mem_denom) const
{
    auto binVal = [&](const std::vector<double>& bins, size_t i) {
        return i < bins.size() ? bins[i] : 0.0;
    };
    int cores = w_.server->cpu.cores;
    BinUtil u;
    u.cpu = std::min(1.0, binVal(cpu_busy_s_, b) / (kBinSeconds * cores));
    double mu = std::min(
        1.0, binVal(mem_bytes_, b) / (kBinSeconds * mem_denom));
    u.nmp = std::min(1.0, binVal(nmp_busy_s_, b) / kBinSeconds);
    u.gpu = std::min(
        1.0, binVal(gpu_busy_s_, b) /
                 (kBinSeconds * std::max<size_t>(gpu_threads_.size(), 1)));
    u.pcie = std::min(1.0, binVal(pcie_busy_s_, b) / kBinSeconds);
    if (!w_.config.usesGpu())
        u.gpu = 0.0;
    u.mem = std::min(1.0, mu + u.nmp);
    return u;
}

double
ServerInstance::avgPowerBetween(double t0_s, double t1_s) const
{
    if (t1_s <= t0_s)
        return 0.0;
    double mem_denom = w_.cost().effectiveHostBwGbps(1) * 1e9;
    size_t bin_lo = binIndex(t0_s);
    size_t bin_hi = binIndex(std::nextafter(t1_s, t0_s));  // exclusive end
    OnlineStats power;
    for (size_t b = bin_lo; b <= bin_hi; ++b) {
        BinUtil u = binUtil(b, mem_denom);
        power.add(power_.serverPowerW(hw::Utilization{u.cpu, u.mem, u.gpu}));
    }
    return power.mean();
}

ServerSimResult
ServerInstance::finalize() const
{
    ServerSimResult r;
    r.aborted = aborted_;
    r.events_executed = eq_.eventsExecuted();
    r.peak_event_queue_depth = eq_.peakDepth();
    r.offered_qps = opt_.saturate ? 0.0 : opt_.offered_qps;
    r.completed = measured_completed_;
    double t_begin = steady_start_;
    double t_end = last_finish_;
    r.duration_s = std::max(t_end - t_begin, 1e-9);
    r.achieved_qps =
        static_cast<double>(measured_completed_) / r.duration_s;

    r.mean_ms = latency_ms_.mean();
    r.p50_ms = latency_ms_.p50();
    r.p95_ms = latency_ms_.p95();
    r.p99_ms = latency_ms_.p99();
    r.tail_ms = latency_ms_.percentile(opt_.tail_percentile);
    r.max_ms = latency_ms_.max();
    r.mean_queue_ms = queue_ms_.mean();
    r.mean_host_ms = host_ms_.mean();
    r.mean_load_ms = load_ms_.mean();
    r.mean_exec_ms = exec_ms_.mean();

    // ---- utilization + power over the steady window ---------------------
    size_t bin_lo = binIndex(t_begin);
    size_t bin_hi = binIndex(t_end);  // inclusive
    double mem_denom = w_.cost().effectiveHostBwGbps(1) * 1e9;

    OnlineStats power_stats;
    OnlineStats cpu_u, mem_u, gpu_u, pcie_u, nmp_u;
    for (size_t b = bin_lo; b <= bin_hi; ++b) {
        BinUtil u = binUtil(b, mem_denom);
        cpu_u.add(u.cpu);
        mem_u.add(u.mem);
        gpu_u.add(u.gpu);
        pcie_u.add(u.pcie);
        nmp_u.add(u.nmp);
        power_stats.add(
            power_.serverPowerW(hw::Utilization{u.cpu, u.mem, u.gpu}));
    }
    r.cpu_util = cpu_u.mean();
    r.mem_bw_util = mem_u.mean();
    r.gpu_util = gpu_u.mean();
    r.pcie_util = pcie_u.mean();
    r.nmp_util = nmp_u.mean();
    r.avg_power_w = power_stats.mean();
    r.peak_power_w = power_stats.max();
    r.qps_per_watt =
        r.avg_power_w > 0.0 ? r.achieved_qps / r.avg_power_w : 0.0;
    return r;
}

}  // namespace hercules::sim
