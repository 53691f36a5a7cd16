#include "sim/service_times.h"

#include "util/logging.h"

namespace hercules::sim {

ServiceTimes::ServiceTimes(const hw::ServerSpec& server) : cost_(server) {}

ServiceTimes::ServiceTimes(const ServiceTimes& other)
    : cost_(other.cost_.server())
{
}

ServiceTimes&
ServiceTimes::operator=(const ServiceTimes& other)
{
    if (this != &other)
        *this = ServiceTimes(other);
    return *this;
}

uint32_t&
ServiceTimes::slot(std::vector<uint32_t>& slots, int items)
{
    if (items < 0)
        panic("ServiceTimes: negative item count %d", items);
    const size_t idx = static_cast<size_t>(items);
    if (idx >= slots.size())
        slots.resize(idx + 1, 0);
    return slots[idx];
}

CpuServiceEntry
ServiceTimes::cpu(int pool_id, int items, const model::Graph& g,
                  const hw::CpuExecContext& cx)
{
    if (pool_id < 0 || pool_id >= kPools)
        panic("ServiceTimes::cpu: bad pool id %d", pool_id);
    std::vector<CpuServiceEntry>& rows = cpu_rows_[pool_id];
    uint32_t& row = slot(cpu_slots_[pool_id], items);
    if (row != 0)
        return rows[row - 1];

    hw::CpuExecContext at = cx;
    double base_scale = cx.pooling_scale;
    at.pooling_scale = base_scale * 1.0;
    hw::GraphTiming t1 = cost_.cpuGraphTiming(g, items, at);
    at.pooling_scale = base_scale * 2.0;
    hw::GraphTiming t2 = cost_.cpuGraphTiming(g, items, at);
    CpuServiceEntry e;
    e.lat1 = t1.latency_us;
    e.lat2 = t2.latency_us;
    e.bytes1 = t1.dram_bytes;
    e.bytes2 = t2.dram_bytes;
    e.nmp1 = t1.nmp_busy_us;
    e.nmp2 = t2.nmp_busy_us;
    e.idle_frac = t1.idle_frac;
    rows.push_back(e);
    row = static_cast<uint32_t>(rows.size());
    ++graph_evals_;
    return e;
}

void
ServiceTimes::compileGpu(const model::Graph& g)
{
    gpu_kernels_.clear();
    gpu_fixed_per_row_ = 0;
    for (int id : g.topoOrder()) {
        const model::Node& n = g.node(id);
        GpuKernel k;
        k.gather = n.kind() == model::OpKind::EmbeddingLookup;
        if (k.gather)
            k.params = std::get<model::EmbeddingParams>(n.params);
        else
            ++gpu_fixed_per_row_;
        gpu_kernels_.push_back(k);
    }
}

double
ServiceTimes::gpuExecUs(int items, double pooling_scale,
                        const model::Graph& g, const hw::GpuExecContext& cx)
{
    if (gpu_kernels_.empty())
        compileGpu(g);
    uint32_t& row = slot(gpu_slots_, items);
    if (row == 0) {
        // Non-gather kernels do not read the pooling scale.
        for (int id : g.topoOrder()) {
            const model::Node& n = g.node(id);
            if (n.kind() != model::OpKind::EmbeddingLookup)
                gpu_fixed_us_.push_back(
                    cost_.gpuKernelLatencyUs(n, items, cx));
        }
        row = ++gpu_rows_;
        ++graph_evals_;
    }
    const double* fixed =
        gpu_fixed_us_.data() + (row - 1) * gpu_fixed_per_row_;

    // Kernels issue in order on the thread's stream: sum in issue
    // order, exactly as gpuGraphTiming() does.
    hw::GpuExecContext at = cx;
    at.pooling_scale = pooling_scale;
    double now = 0.0;
    size_t f = 0;
    for (const GpuKernel& k : gpu_kernels_)
        now += k.gather ? cost_.gpuGatherKernelUs(k.params, items, at)
                        : fixed[f++];
    return now;
}

double
ServiceTimes::gpuInputBytes(int items, double pooling_scale,
                            const model::Graph& g,
                            const hw::GpuExecContext& cx)
{
    if (!gpu_input_compiled_) {
        gpu_input_ = hw::gpuInputTerms(g, cx.hot_hit_rate);
        gpu_input_compiled_ = true;
        ++graph_evals_;
    }
    double per_item = 0.0;
    for (const hw::GpuInputTerm& t : gpu_input_)
        per_item += t.perItemBytes(pooling_scale, cx.hot_hit_rate);
    return per_item * static_cast<double>(items);
}

}  // namespace hercules::sim
