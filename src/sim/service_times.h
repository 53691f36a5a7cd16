/**
 * @file
 * The service-time table of one prepared workload: every cost-model
 * result the discrete-event simulator needs, computed once per batch
 * size and then only looked up.
 *
 * A PreparedWorkload owns exactly one table (and, through it, the one
 * hw::CostModel of the workload). Every ServerInstance built on the
 * workload — each probe of a latency-bounded measurement, each shard
 * of a cluster — reads and fills the same table, so a configuration's
 * service times are derived once no matter how often it is simulated.
 *
 * Thread-safety: none, by contract. Entries fill lazily on first use
 * without a lock, so a table (and hence a PreparedWorkload) must be
 * simulated on one thread at a time. Every caller honours this:
 * EvalEngine prepares one workload per evaluation on the pool thread
 * that measures it, and ClusterSim advances its shards on its pool as
 * one task per prepared workload — the shards sharing a workload run
 * one after another inside that task, on whichever thread claimed it,
 * while shards of different workloads run concurrently. A caller that
 * wants one workload's shards on several threads at once must first
 * pre-fill the table or give each entry a once-flag.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "hw/cost_model.h"
#include "model/graph.h"

namespace hercules::sim {

/**
 * CPU service timing of one pool at one item count: the cost-model
 * graph timing at pooling scales 1 and 2, which the simulator
 * interpolates linearly in each query's pooling scale.
 */
struct CpuServiceEntry
{
    double lat1 = 0.0, lat2 = 0.0;      ///< batch latency (us)
    double bytes1 = 0.0, bytes2 = 0.0;  ///< host DRAM bytes
    double nmp1 = 0.0, nmp2 = 0.0;      ///< NMP busy time (us)
    double idle_frac = 0.0;             ///< op-worker idle fraction
};

/** Lazily filled per-item service times of one prepared workload. */
class ServiceTimes
{
  public:
    /** CPU pool ids: the (graph, context) a pool's threads run. */
    static constexpr int kPools = 4;

    explicit ServiceTimes(const hw::ServerSpec& server);

    /**
     * A copy is an empty table for the same server: the copied
     * workload may be edited before it is simulated, so it must never
     * read entries derived from the original's graphs and contexts.
     */
    ServiceTimes(const ServiceTimes& other);
    ServiceTimes& operator=(const ServiceTimes& other);
    ServiceTimes(ServiceTimes&&) = default;
    ServiceTimes& operator=(ServiceTimes&&) = default;

    /** @return the workload's cost model. */
    const hw::CostModel& cost() const { return cost_; }

    /**
     * @return cost-model graph evaluations so far: CPU entries, GPU
     * kernel rows and GPU input-byte term lists filled (each at most
     * once per table).
     */
    uint64_t graphEvals() const { return graph_evals_; }

    /**
     * CPU entry of pool `pool_id` at `items`, filling it from `g` and
     * `cx` (the pool's graph and context) on first use.
     */
    CpuServiceEntry cpu(int pool_id, int items, const model::Graph& g,
                        const hw::CpuExecContext& cx);

    /**
     * Execution latency (us) of an `items`-item batch of `g` on one
     * GPU thread at the batch's pooling scale; bit-identical to
     * cost().gpuGraphTiming(g, items, cx').latency_us with
     * cx'.pooling_scale = pooling_scale.
     */
    double gpuExecUs(int items, double pooling_scale,
                     const model::Graph& g, const hw::GpuExecContext& cx);

    /**
     * Host->device bytes of the batch; bit-identical to
     * cost().gpuInputBytes(g, items, cx') with cx'.pooling_scale =
     * pooling_scale.
     */
    double gpuInputBytes(int items, double pooling_scale,
                         const model::Graph& g,
                         const hw::GpuExecContext& cx);

  private:
    /**
     * One kernel of the GPU graph in issue order. A gather's latency
     * depends on the batch's pooling scale — an item-weighted mean of
     * continuous per-query scales, so it has no finite key — and is
     * re-evaluated per batch; every other kernel's latency is a
     * per-item-count constant stored in `gpu_fixed_us_`.
     */
    struct GpuKernel
    {
        bool gather = false;
        model::EmbeddingParams params;  ///< gathers only
    };

    void compileGpu(const model::Graph& g);

    /**
     * Item counts map to rows through a slot vector (1 + row, 0 = not
     * filled) and rows are stored in fill order, so a table touched
     * at a few item counts up to a large one stays small.
     */
    static uint32_t& slot(std::vector<uint32_t>& slots, int items);

    hw::CostModel cost_;
    uint64_t graph_evals_ = 0;

    std::vector<uint32_t> cpu_slots_[kPools];
    std::vector<CpuServiceEntry> cpu_rows_[kPools];

    std::vector<GpuKernel> gpu_kernels_;  ///< empty until first use
    size_t gpu_fixed_per_row_ = 0;        ///< non-gather kernels
    std::vector<uint32_t> gpu_slots_;
    uint32_t gpu_rows_ = 0;
    /** Per row: the non-gather kernel latencies, in issue order. */
    std::vector<double> gpu_fixed_us_;

    std::vector<hw::GpuInputTerm> gpu_input_;
    bool gpu_input_compiled_ = false;
};

}  // namespace hercules::sim
