/**
 * @file
 * Binding of (server architecture, model, scheduling configuration)
 * into the concrete execution plan the simulator runs: validated
 * resource allocation, partitioned graphs, hot-embedding split, and the
 * per-thread execution contexts of the cost model.
 */
#pragma once

#include <optional>
#include <string>

#include "hw/cost_model.h"
#include "hw/server.h"
#include "model/model_zoo.h"
#include "model/partition.h"
// sim sits below sched in layers.json; PreparedServer is built *from*
// a sched::SchedulingConfig (the one plain-data type sched exports
// downward). Moving SchedulingConfig into model/ would fix the edge
// but orphan it from the search code that owns its semantics.
// layer-lint: allow(sched)
#include "sched/config.h"
#include "sim/service_times.h"

namespace hercules::sim {

/**
 * A validated, ready-to-simulate workload placement.
 *
 * Which graphs are populated depends on the mapping:
 *  - CpuModelBased: `full` only;
 *  - CpuSdPipeline: `sparse` + `dense`;
 *  - GpuModelBased: `full` on the device (embeddings scaled by the hot
 *    hit rate) and `sparse` on the host for the cold fraction;
 *  - GpuSdPipeline: `sparse` on the host, `dense` on the device.
 */
struct PreparedWorkload
{
    /** Binds the placement's identity; prepare() fills the rest. */
    PreparedWorkload(const hw::ServerSpec& server, const model::Model& m,
                     const sched::SchedulingConfig& cfg);

    const hw::ServerSpec* server = nullptr;
    const model::Model* model = nullptr;
    sched::SchedulingConfig config;

    model::Graph full;    ///< whole graph (elementwise-fused if enabled)
    model::Graph sparse;  ///< SparseNet Gs
    model::Graph dense;   ///< DenseNet Gd
    model::HotSplit hot;  ///< accelerator-resident embedding split

    hw::CpuExecContext cpu_cx;   ///< model-based / SparseNet threads
    hw::CpuExecContext cold_cx;  ///< host cold-sparse path (hot-split)
    hw::GpuExecContext gpu_cx;   ///< accelerator threads

    /**
     * The workload's service-time table (service_times.h): filled on
     * first use from the fields above, which are therefore frozen
     * once the workload has been simulated — edit a copy instead (a
     * copy starts with an empty table). Single-threaded; see the
     * table's ownership contract.
     */
    mutable ServiceTimes times;

    /** @return the workload's cost model (owned by `times`). */
    const hw::CostModel& cost() const { return times.cost(); }

    /**
     * CPU service timing of `items` items on pool `pool_id`:
     * 0 = full graph, 1 = SparseNet, 2 = DenseNet (one op worker per
     * thread, Fig 10(b)), 3 = hot-split cold SparseNet.
     */
    CpuServiceEntry cpuService(int pool_id, int items) const;

    /** GPU execution latency (us) of an `items`-item fused batch. */
    double gpuExecUs(int items, double pooling_scale) const;

    /** Host->device bytes of an `items`-item fused batch. */
    double gpuInputBytes(int items, double pooling_scale) const;

    /** @return the graph the accelerator threads execute. */
    const model::Graph& gpuGraph() const;
};

/**
 * Check a configuration against the server's physical constraints
 * (cores, host memory, device memory, thread counts).
 *
 * @return std::nullopt when valid, else a human-readable reason.
 */
std::optional<std::string> validateConfig(
    const hw::ServerSpec& server, const model::Model& m,
    const sched::SchedulingConfig& cfg);

/**
 * Build the execution plan; fatal() if the configuration is invalid
 * (call validateConfig() first when probing a search space).
 */
PreparedWorkload prepare(const hw::ServerSpec& server,
                         const model::Model& m,
                         const sched::SchedulingConfig& cfg);

}  // namespace hercules::sim
