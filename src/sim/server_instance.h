/**
 * @file
 * The steppable single-server discrete-event simulator.
 *
 * ServerInstance is the engine behind simulateServer(), exposed as a
 * construct → inject → advance → drain object so that higher layers
 * (the sharded ClusterSim, trace-driven serving) can interleave many
 * servers on one global clock. The contract:
 *
 *  - inject(query) schedules an arrival at query.arrival_s; arrivals
 *    must be injected in non-decreasing time order, never earlier than
 *    the instance's current clock (now());
 *  - advanceTo(t) runs every pending event with timestamp <= t;
 *  - drain() runs the event queue dry (all in-flight work retires);
 *  - finalize() computes the ServerSimResult over the post-warmup
 *    window exactly as the one-shot simulateServer() does.
 *
 * Determinism: given the same construction arguments and the same
 * injection sequence, every event fires in the same order (the event
 * queue breaks timestamp ties by scheduling order) and every statistic
 * is bit-identical across runs. simulateServer() is a thin wrapper
 * over this class and is pinned bit-identical to the pre-extraction
 * engine by tests/test_sim_cluster.cc.
 */
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "hw/power.h"
#include "sim/event_queue.h"
#include "sim/server_sim.h"
#include "util/stats.h"
#include "workload/query.h"

namespace hercules::sim {

/** One steppable simulated server. */
class ServerInstance
{
  public:
    /**
     * @param w   prepared workload placement; must outlive the instance.
     * @param opt simulation options; must outlive the instance.
     */
    ServerInstance(const PreparedWorkload& w, const SimOptions& opt);

    // Pools and GPU threads are addressed by member position; copying
    // an instance mid-run would be meaningless.
    ServerInstance(const ServerInstance&) = delete;
    ServerInstance& operator=(const ServerInstance&) = delete;

    /** One retired query (recorded when opt.record_completions). */
    struct Completion
    {
        int query = -1;        ///< injection index
        double arrival_s = 0.0;
        double finish_s = 0.0;
        /** Dispatcher/fusion queue wait before first service start. */
        double queue_wait_s = 0.0;

        /** @return end-to-end latency in milliseconds. */
        double latencyMs() const { return (finish_s - arrival_s) * 1e3; }

        /** @return latency minus queue wait, in milliseconds. */
        double serviceMs() const { return latencyMs() - queue_wait_s * 1e3; }
    };

    /**
     * Inject one query; its arrival event fires at q.arrival_s.
     * @return the query's index (injection order).
     */
    int inject(const workload::Query& q);

    /** Run every pending event with timestamp <= t_s. */
    void advanceTo(double t_s);

    /**
     * Make room for `queries` injected queries in every per-query
     * buffer (query states, completion log, latency samples), so a
     * caller that knows a bound can allocate them once, on its own
     * thread, before the instance is advanced on another.
     */
    void reserveQueries(size_t queries);

    /** Run the event queue dry (retire all in-flight work). */
    void drain();

    /** Run the single next pending event (no-op when idle). */
    void step();

    /** @return true while events are pending. */
    bool hasPending() const { return !eq_.empty(); }

    /** @return simulation time of the last executed event. */
    double now() const { return eq_.now(); }

    /** @return total queries injected so far. */
    size_t injected() const { return queries_.size(); }

    /** @return queries fully retired (warmup included). */
    size_t completedAll() const { return done_count_; }

    /** @return queries injected but not yet retired. */
    size_t outstanding() const { return queries_.size() - done_count_; }

    /** @return the completion log (empty unless record_completions). */
    const std::vector<Completion>& completions() const
    { return completions_; }

    /** @return events executed by this instance's queue (lifetime). */
    uint64_t eventsExecuted() const { return eq_.eventsExecuted(); }

    /** @return peak pending-event depth seen by this instance. */
    size_t peakEventQueueDepth() const { return eq_.peakDepth(); }

    /**
     * The early-abort predicate of SimOptions::abort_tail_ms: true once
     * the oldest in-flight post-warmup query has been in the system
     * longer than the grace window. Amortized O(1).
     */
    bool abortTriggered();

    /** Mark the run aborted (reflected in finalize()). */
    void markAborted() { aborted_ = true; }

    /**
     * Straggler knob: multiply every *subsequent* service and transfer
     * duration by `factor` (>= 1). Applied at the usage sites, never to
     * the workload's service-time table, so setSlowdown(1.0) is
     * bit-identical to a server that never degraded. Work already
     * scheduled keeps its original finish time.
     */
    void setSlowdown(double factor);

    /** @return the current latency multiplier (1.0 when healthy). */
    double slowdown() const { return slowdown_; }

    /**
     * Crash semantics: every in-flight query dies right now. Killed
     * queries are marked done (they count in completedAll() so
     * outstanding() drops to zero) but are never appended to the
     * completion log and never enter the latency statistics — the
     * caller accounts for them (ClusterSim's `failed_inflight`). All
     * pending events, queued chunks and pipeline stages are discarded;
     * pools and GPU threads reset to idle so the instance can serve
     * again after recovery. Resource bins already charged beyond the
     * crash instant are deliberately kept (the power model's stand-in
     * for crash-loop churn).
     *
     * @return the number of queries killed.
     */
    size_t killInFlight();

    /**
     * Mean server power (W) over [t0_s, t1_s), integrating the binned
     * resource-utilization profile through the power model. Windows the
     * server spent idle contribute idle power.
     */
    double avgPowerBetween(double t0_s, double t1_s) const;

    /** Compute the post-warmup measurements (call after the run). */
    ServerSimResult finalize() const;

  private:
    // ---- work units -----------------------------------------------------
    /** One unit of schedulable work: a (sub-)query chunk. */
    struct Chunk
    {
        int query = -1;
        int items = 0;
        double ps = 1.0;  ///< pooling scale of the owning query
    };

    /**
     * A fused accelerator batch. In-flight batches live in `batches_`
     * and move through the GPU pipeline by slot index.
     */
    struct Batch
    {
        std::vector<Chunk> chunks;
        int items = 0;
        double ps = 1.0;  ///< item-weighted pooling scale
    };

    // ---- events ---------------------------------------------------------
    /**
     * What a scheduled event does when it fires. Adding a kind takes
     * one value here and one arm in runNext()'s switch.
     */
    enum class EventKind : uint8_t
    {
        Arrival,        ///< query `index` arrives
        PoolDone,       ///< pool `index` finished `chunk`
        HostStageDone,  ///< GPU thread `index`: batch `slot` pre-reduced
        Loaded,         ///< GPU thread `index`: batch `slot` transferred
        ExecDone,       ///< GPU thread `index`: batch `slot` executed
    };

    /** The record the event queue carries: plain data, no capture. */
    struct Event
    {
        EventKind kind = EventKind::Arrival;
        int index = 0;      ///< query, pool (kPool*) or GPU thread
        uint32_t slot = 0;  ///< batch slot (GPU pipeline kinds)
        Chunk chunk;        ///< the finished chunk (PoolDone)
    };

    /** Pool indices carried by PoolDone events. */
    static constexpr int kPoolCpu = 0;
    static constexpr int kPoolDense = 1;

    struct ServiceSample
    {
        double latency_us = 0.0;
        double dram_bytes = 0.0;
        double nmp_busy_us = 0.0;
        double idle_frac = 0.0;  ///< op-worker idle fraction (Fig 5)
    };

    // ---- configuration shortcuts ----------------------------------------
    sched::Mapping mapping() const { return w_.config.mapping; }

    // ---- query bookkeeping ----------------------------------------------
    struct QueryState
    {
        double arrival = 0.0;
        double enqueue_done = 0.0;  ///< first service start (queue wait)
        int pending = 0;
        int size = 0;
        double ps = 1.0;
        bool started = false;
        bool done = false;  ///< all chunks completed
    };

    // ---- pools ----------------------------------------------------------
    struct Pool
    {
        std::deque<Chunk> queue;
        int idle = 0;
        int total = 0;
        int cores_each = 1;
    };

    // ---- GPU pipeline ----------------------------------------------------
    struct GpuThread
    {
        bool loading = false;    ///< a batch is being staged/transferred
        bool has_loaded = false; ///< a loaded batch waits for the executor
        bool executing = false;
        uint32_t loaded = 0;     ///< batch slot waiting (has_loaded)
    };

    /** Pop the next event and run its handler (the one kind switch). */
    void runNext();
    Pool& pool(int index)
    { return index == kPoolCpu ? cpu_pool_ : dense_pool_; }

    void arrival(int qidx);
    void splitToPool(int qidx, int pool_index, int batch);
    void enqueue(int pool_index, Chunk c);
    void poolServe(int pool_index, Chunk c);
    void poolDone(int pool_index, Chunk c);
    void queryPartDone(int qidx);

    uint32_t allocBatch();
    void tryFormGpuBatch(size_t tid);
    void startHostStage(size_t tid, uint32_t slot);
    void gpuHostStageDone(size_t tid, uint32_t slot);
    void startTransfer(size_t tid, uint32_t slot);
    void onLoaded(size_t tid, uint32_t slot);
    void startExec(size_t tid, uint32_t slot);
    void onExecDone(size_t tid, uint32_t slot);

    /**
     * CPU service of `items` items at pooling scale `query_ps`: the
     * workload's table entry (PreparedWorkload::cpuService, timed at
     * scales 1 and 2) interpolated linearly in the scale.
     */
    ServiceSample cpuService(int pool_id, int items, double query_ps);

    void chargeBins(std::vector<double>& bins, double start_s,
                    double end_s, double weight);
    size_t binIndex(double t) const
    { return static_cast<size_t>(t / kBinSeconds); }

    /** Per-bin resource utilizations (the finalize/power integrand). */
    struct BinUtil
    {
        double cpu = 0.0;
        double mem = 0.0;  ///< DRAM + NMP, clamped to 1
        double gpu = 0.0;
        double pcie = 0.0;
        double nmp = 0.0;
    };
    BinUtil binUtil(size_t b, double mem_denom) const;

    // ---- members --------------------------------------------------------
    const PreparedWorkload& w_;
    const SimOptions& opt_;
    hw::PowerModel power_;
    EventQueue<Event> eq_;

    std::vector<QueryState> queries_;
    std::vector<Completion> completions_;  ///< all, when recording
    size_t done_count_ = 0;                ///< all retired queries

    Pool cpu_pool_;    ///< model-based threads or SparseNet threads
    Pool dense_pool_;  ///< CpuSdPipeline DenseNet threads
    Pool host_pool_;   ///< hot-split cold-sparse helpers (batch level)

    std::vector<GpuThread> gpu_threads_;
    std::deque<Chunk> fusion_queue_;
    /** (GPU thread, batch slot) waiting for a free host helper. */
    std::deque<std::pair<size_t, uint32_t>> host_stage_queue_;
    /** In-flight batch storage; freed slots keep their chunk capacity. */
    std::vector<Batch> batches_;
    std::vector<uint32_t> free_batches_;
    int host_stage_idle_ = 0;
    double pcie_free_ = 0.0;
    double slowdown_ = 1.0;  ///< latency multiplier (fault injection)

    // resource usage bins
    static constexpr double kBinSeconds = 0.05;
    std::vector<double> cpu_busy_s_;
    std::vector<double> gpu_busy_s_;
    std::vector<double> pcie_busy_s_;
    std::vector<double> nmp_busy_s_;
    std::vector<double> mem_bytes_;

    PercentileTracker latency_ms_;
    OnlineStats queue_ms_, host_ms_, load_ms_, exec_ms_;
    double steady_start_ = 0.0;
    double last_finish_ = 0.0;
    size_t measured_completed_ = 0;

    /** Oldest possibly-incomplete post-warmup query (abort check). */
    size_t abort_scan_ = 0;
    bool aborted_ = false;
};

}  // namespace hercules::sim
