/**
 * @file
 * Tests of a prepared workload's service-time table: CPU entries equal
 * direct cost-model calls for every pool id, results never depend on
 * what filled the table first, and a copied workload gets its own
 * empty table.
 */
#include <gtest/gtest.h>

#include "sim/measure.h"

namespace hercules::sim {
namespace {

using hw::ServerType;
using model::ModelId;
using sched::Mapping;
using sched::SchedulingConfig;

SchedulingConfig
cpuModelBased()
{
    SchedulingConfig cfg;
    cfg.mapping = Mapping::CpuModelBased;
    cfg.cpu_threads = 8;
    cfg.cores_per_thread = 2;
    cfg.batch = 64;
    return cfg;
}

SchedulingConfig
cpuSdPipeline()
{
    SchedulingConfig cfg;
    cfg.mapping = Mapping::CpuSdPipeline;
    cfg.cpu_threads = 6;
    cfg.cores_per_thread = 2;
    cfg.dense_threads = 4;
    cfg.batch = 64;
    return cfg;
}

SchedulingConfig
gpuModelBased()
{
    SchedulingConfig cfg;
    cfg.mapping = Mapping::GpuModelBased;
    cfg.gpu_threads = 2;
    cfg.cpu_threads = 4;
    cfg.fusion_limit = 1000;
    return cfg;
}

SimOptions
loadOptions(double qps, uint64_t seed)
{
    SimOptions opt;
    opt.offered_qps = qps;
    opt.num_queries = 300;
    opt.warmup_queries = 60;
    opt.seed = seed;
    return opt;
}

/** Every field of two results, compared bit for bit. */
void
expectIdentical(const ServerSimResult& a, const ServerSimResult& b)
{
    EXPECT_EQ(a.offered_qps, b.offered_qps);
    EXPECT_EQ(a.achieved_qps, b.achieved_qps);
    EXPECT_EQ(a.mean_ms, b.mean_ms);
    EXPECT_EQ(a.p50_ms, b.p50_ms);
    EXPECT_EQ(a.p95_ms, b.p95_ms);
    EXPECT_EQ(a.p99_ms, b.p99_ms);
    EXPECT_EQ(a.tail_ms, b.tail_ms);
    EXPECT_EQ(a.max_ms, b.max_ms);
    EXPECT_EQ(a.cpu_util, b.cpu_util);
    EXPECT_EQ(a.mem_bw_util, b.mem_bw_util);
    EXPECT_EQ(a.gpu_util, b.gpu_util);
    EXPECT_EQ(a.pcie_util, b.pcie_util);
    EXPECT_EQ(a.nmp_util, b.nmp_util);
    EXPECT_EQ(a.avg_power_w, b.avg_power_w);
    EXPECT_EQ(a.peak_power_w, b.peak_power_w);
    EXPECT_EQ(a.qps_per_watt, b.qps_per_watt);
    EXPECT_EQ(a.mean_queue_ms, b.mean_queue_ms);
    EXPECT_EQ(a.mean_host_ms, b.mean_host_ms);
    EXPECT_EQ(a.mean_load_ms, b.mean_load_ms);
    EXPECT_EQ(a.mean_exec_ms, b.mean_exec_ms);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.duration_s, b.duration_s);
    EXPECT_EQ(a.aborted, b.aborted);
    EXPECT_EQ(a.events_executed, b.events_executed);
    EXPECT_EQ(a.peak_event_queue_depth, b.peak_event_queue_depth);
}

/** The pool's entry against two direct cpuGraphTiming calls. */
void
expectCpuEntryExact(const PreparedWorkload& w, int pool_id,
                    const model::Graph& g, hw::CpuExecContext cx)
{
    hw::CostModel cost(*w.server);
    double base = cx.pooling_scale;
    // Fill sparsely and out of order before the sweep.
    for (int items : {200, 3, 77})
        w.cpuService(pool_id, items);
    for (int items = 1; items <= 256; ++items) {
        const CpuServiceEntry e = w.cpuService(pool_id, items);
        cx.pooling_scale = base * 1.0;
        hw::GraphTiming t1 = cost.cpuGraphTiming(g, items, cx);
        cx.pooling_scale = base * 2.0;
        hw::GraphTiming t2 = cost.cpuGraphTiming(g, items, cx);
        ASSERT_EQ(e.lat1, t1.latency_us) << pool_id << " " << items;
        ASSERT_EQ(e.lat2, t2.latency_us) << pool_id << " " << items;
        ASSERT_EQ(e.bytes1, t1.dram_bytes) << pool_id << " " << items;
        ASSERT_EQ(e.bytes2, t2.dram_bytes) << pool_id << " " << items;
        ASSERT_EQ(e.nmp1, t1.nmp_busy_us) << pool_id << " " << items;
        ASSERT_EQ(e.nmp2, t2.nmp_busy_us) << pool_id << " " << items;
        ASSERT_EQ(e.idle_frac, t1.idle_frac) << pool_id << " " << items;
    }
}

TEST(ServiceTimes, CpuEntriesMatchCostModelOnEveryPool)
{
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    for (ServerType t : {ServerType::T2, ServerType::T3}) {
        const hw::ServerSpec& server = hw::serverSpec(t);
        PreparedWorkload mb = prepare(server, m, cpuModelBased());
        expectCpuEntryExact(mb, 0, mb.full, mb.cpu_cx);

        PreparedWorkload sd = prepare(server, m, cpuSdPipeline());
        expectCpuEntryExact(sd, 1, sd.sparse, sd.cpu_cx);
        // DenseNet threads run with a single op worker.
        hw::CpuExecContext dense_cx = sd.cpu_cx;
        dense_cx.workers = 1;
        expectCpuEntryExact(sd, 2, sd.dense, dense_cx);
    }
    // The host cold-sparse path of a hot split, with and without NMP.
    model::Model big = model::buildModel(ModelId::DlrmRmc3);
    for (ServerType t : {ServerType::T7, ServerType::T8}) {
        PreparedWorkload w =
            prepare(hw::serverSpec(t), big, gpuModelBased());
        ASSERT_LT(w.gpu_cx.hot_hit_rate, 1.0);
        expectCpuEntryExact(w, 3, w.sparse, w.cold_cx);
    }
    EXPECT_TRUE(hw::serverSpec(ServerType::T3).hasNmp());
    EXPECT_TRUE(hw::serverSpec(ServerType::T8).hasNmp());
}

/**
 * Fill a workload's table with unrelated probes (saturation, another
 * load, another seed), then check the measured probe is bit-identical
 * to the same probe on a freshly prepared workload.
 */
void
expectWarmTableOrderFree(ServerType t, const model::Model& m,
                         const SchedulingConfig& cfg, double qps)
{
    const hw::ServerSpec& server = hw::serverSpec(t);
    PreparedWorkload warm = prepare(server, m, cfg);
    SimOptions sat = loadOptions(1.0, 7);
    sat.saturate = true;
    simulateServer(warm, sat);
    simulateServer(warm, loadOptions(qps * 0.3, 42));
    simulateServer(warm, loadOptions(qps * 1.7, 9));
    ASSERT_GT(warm.times.graphEvals(), 0u);

    SimOptions probe = loadOptions(qps, 42);
    PreparedWorkload fresh = prepare(server, m, cfg);
    ServerSimResult a = simulateServer(warm, probe);
    ServerSimResult b = simulateServer(fresh, probe);
    SCOPED_TRACE(server.name);
    expectIdentical(a, b);
    EXPECT_GT(a.completed, 0u);
}

TEST(ServiceTimes, WarmTableIsOrderIndependentOnCpu)
{
    expectWarmTableOrderFree(ServerType::T2,
                             model::buildModel(ModelId::DlrmRmc1),
                             cpuSdPipeline(), 400.0);
}

TEST(ServiceTimes, WarmTableIsOrderIndependentOnNmp)
{
    expectWarmTableOrderFree(ServerType::T3,
                             model::buildModel(ModelId::DlrmRmc1),
                             cpuModelBased(), 400.0);
}

TEST(ServiceTimes, WarmTableIsOrderIndependentOnGpu)
{
    // RMC3 overflows the device: the hot split adds the host
    // cold-sparse stage (pool 3) to the GPU kernels and transfers.
    expectWarmTableOrderFree(ServerType::T7,
                             model::buildModel(ModelId::DlrmRmc3),
                             gpuModelBased(), 400.0);
}

TEST(ServiceTimes, CopyStartsWithItsOwnEmptyTable)
{
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    const hw::ServerSpec& t2 = hw::serverSpec(ServerType::T2);
    PreparedWorkload w = prepare(t2, m, cpuModelBased());
    SimOptions opt = loadOptions(400.0, 42);
    ServerSimResult original = simulateServer(w, opt);
    uint64_t filled = w.times.graphEvals();
    ASSERT_GT(filled, 0u);

    // A copy never aliases the original's entries...
    PreparedWorkload copy = w;
    EXPECT_EQ(copy.times.graphEvals(), 0u);
    expectIdentical(simulateServer(copy, opt), original);
    EXPECT_EQ(copy.times.graphEvals(), filled);
    EXPECT_EQ(w.times.graphEvals(), filled);

    // ...so an edited copy is timed from its own fields.
    PreparedWorkload edited = w;
    edited.cpu_cx.mem_bw_gbps *= 0.5;
    EXPECT_NE(edited.cpuService(0, 64).lat1, w.cpuService(0, 64).lat1);

    // Assignment resets the target's table too.
    edited = w;
    EXPECT_EQ(edited.times.graphEvals(), 0u);
    EXPECT_EQ(edited.cpuService(0, 64).lat1, w.cpuService(0, 64).lat1);
}

}  // namespace
}  // namespace hercules::sim
