/**
 * @file
 * Tests of the fault-injection subsystem: FaultSchedule expansion
 * (scripted ordering, seeded-process determinism, forked-stream
 * independence, fatal validation), the ClusterSim health mechanics
 * (crash kill accounting, routing exclusion, straggler slowdowns, the
 * feedback router shifting load away), the spec-level faults block
 * (bind-time rejection, lint), and the bit-identity pin that a
 * no-op faults block leaves the serving engine untouched.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "cluster/serving.h"
#include "fault/fault.h"
#include "model/model_zoo.h"
#include "scenario/lint.h"
#include "scenario/scenario.h"
#include "scenario/spec_io.h"
#include "sim/cluster_sim.h"
#include "sim/server_instance.h"
#include "workload/trace_gen.h"

namespace hercules {
namespace {

using fault::FaultEvent;
using fault::FaultSchedule;
using fault::FaultSpec;
using fault::HealthState;
using hw::ServerType;
using model::ModelId;

// ---- FaultSchedule expansion ---------------------------------------------

TEST(FaultSchedule, ScriptedEventsSortStablyAndNormalize)
{
    FaultSpec spec;
    spec.events = {
        {2.0, 0, 0, HealthState::Healthy, 1.0},
        {1.0, 1, 0, HealthState::Failed, 7.0},  // slowdown ignored
        {1.0, 0, 1, HealthState::Degraded, 3.0},
    };
    FaultSchedule sched(spec, {2, 1}, 24.0);
    ASSERT_EQ(sched.events().size(), 3u);
    // Sorted by time; the two t=1 events keep insertion order.
    EXPECT_EQ(sched.events()[0].t_hours, 1.0);
    EXPECT_EQ(sched.events()[0].fleet_index, 1);
    EXPECT_EQ(sched.events()[0].state, HealthState::Failed);
    // Non-degrade events carry the neutral multiplier regardless of
    // what the spec said, so ignored fields can't break determinism.
    EXPECT_EQ(sched.events()[0].slowdown, 1.0);
    EXPECT_EQ(sched.events()[1].state, HealthState::Degraded);
    EXPECT_EQ(sched.events()[1].slowdown, 3.0);
    EXPECT_EQ(sched.events()[2].t_hours, 2.0);
}

TEST(FaultSchedule, DisabledSpecExpandsEmpty)
{
    FaultSpec spec;  // no events, both MTBFs zero
    EXPECT_FALSE(spec.enabled());
    EXPECT_TRUE(FaultSchedule(spec, {4, 2}, 24.0).empty());
}

void
expectSameEvents(const std::vector<FaultEvent>& a,
                 const std::vector<FaultEvent>& b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].t_hours, b[i].t_hours) << "event " << i;
        EXPECT_EQ(a[i].fleet_index, b[i].fleet_index) << "event " << i;
        EXPECT_EQ(a[i].slot, b[i].slot) << "event " << i;
        EXPECT_EQ(a[i].state, b[i].state) << "event " << i;
        EXPECT_EQ(a[i].slowdown, b[i].slowdown) << "event " << i;
    }
}

TEST(FaultSchedule, SeededProcessesAreDeterministic)
{
    FaultSpec spec;
    spec.seed = 42;
    spec.crash_mtbf_hours = 6.0;
    spec.crash_mttr_hours = 1.0;
    FaultSchedule a(spec, {2, 1}, 72.0);
    FaultSchedule b(spec, {2, 1}, 72.0);
    ASSERT_FALSE(a.empty());
    expectSameEvents(a.events(), b.events());

    // All generated events land inside the horizon, sorted in time,
    // and every server's stream alternates failed -> healthy.
    double prev = 0.0;
    std::vector<HealthState> last(3, HealthState::Healthy);
    for (const FaultEvent& e : a.events()) {
        EXPECT_GE(e.t_hours, prev);
        EXPECT_LT(e.t_hours, 72.0);
        prev = e.t_hours;
        size_t srv = static_cast<size_t>(e.fleet_index == 0 ? e.slot : 2);
        EXPECT_NE(e.state, last[srv]) << "no-op transition in stream";
        last[srv] = e.state;
    }

    FaultSpec other = spec;
    other.seed = 43;
    FaultSchedule c(other, {2, 1}, 72.0);
    ASSERT_EQ(c.empty(), false);
    bool any_diff = c.events().size() != a.events().size();
    for (size_t i = 0; !any_diff && i < a.events().size(); ++i)
        any_diff = a.events()[i].t_hours != c.events()[i].t_hours;
    EXPECT_TRUE(any_diff) << "seed does not reach the processes";
}

TEST(FaultSchedule, CrashAndDegradeStreamsAreIndependent)
{
    // Enabling the degradation process must not perturb the crash
    // timeline: each (server, process) pair forks its own Rng stream.
    FaultSpec crash_only;
    crash_only.seed = 9;
    crash_only.crash_mtbf_hours = 8.0;
    crash_only.crash_mttr_hours = 0.5;
    FaultSpec both = crash_only;
    both.degrade_mtbf_hours = 5.0;
    both.degrade_mttr_hours = 1.0;
    both.degrade_slowdown = 4.0;

    auto failures = [](const FaultSchedule& s) {
        std::vector<FaultEvent> out;
        for (const FaultEvent& e : s.events())
            if (e.state == HealthState::Failed)
                out.push_back(e);
        return out;
    };
    FaultSchedule a(crash_only, {2, 1}, 72.0);
    FaultSchedule b(both, {2, 1}, 72.0);
    ASSERT_FALSE(a.empty());
    EXPECT_GT(b.events().size(), a.events().size());
    expectSameEvents(failures(a), failures(b));
}

TEST(FaultScheduleDeath, InvalidSpecsAreFatal)
{
    FaultSpec neg_mtbf;
    neg_mtbf.crash_mtbf_hours = -1.0;
    EXPECT_DEATH(FaultSchedule(neg_mtbf, {1}, 24.0), "crash_mtbf_hours");

    FaultSpec bad_slow;
    bad_slow.degrade_slowdown = 0.5;
    EXPECT_DEATH(FaultSchedule(bad_slow, {1}, 24.0), "degrade_slowdown");

    FaultSpec bad_fleet;
    bad_fleet.events = {{1.0, 3, 0, HealthState::Failed, 1.0}};
    EXPECT_DEATH(FaultSchedule(bad_fleet, {1}, 24.0), "fleet index");

    FaultSpec bad_slot;
    bad_slot.events = {{1.0, 0, 2, HealthState::Failed, 1.0}};
    EXPECT_DEATH(FaultSchedule(bad_slot, {2, 4}, 24.0), "slot 2 out of");

    FaultSpec bad_time;
    bad_time.events = {{-0.5, 0, 0, HealthState::Failed, 1.0}};
    EXPECT_DEATH(FaultSchedule(bad_time, {1}, 24.0), "negative time");
}

// ---- ClusterSim health mechanics -----------------------------------------

sched::SchedulingConfig
cpuConfig(int threads, int cores, int batch)
{
    sched::SchedulingConfig cfg;
    cfg.mapping = sched::Mapping::CpuModelBased;
    cfg.cpu_threads = threads;
    cfg.cores_per_thread = cores;
    cfg.batch = batch;
    return cfg;
}

std::vector<workload::Query>
uniformTrace(size_t n, double gap_s, int size = 40)
{
    std::vector<workload::Query> trace(n);
    for (size_t i = 0; i < n; ++i) {
        trace[i].id = i;
        trace[i].arrival_s = static_cast<double>(i + 1) * gap_s;
        trace[i].size = size;
        trace[i].pooling_scale = 1.0;
    }
    return trace;
}

TEST(ClusterSimFaultsDeath, UnsortedHealthTimelineIsFatal)
{
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    sim::PreparedWorkload w = sim::prepare(hw::serverSpec(ServerType::T2),
                                           m, cpuConfig(2, 1, 64));
    sim::ClusterSim cluster(sim::ClusterSim::Options{});
    cluster.addShard(w, 1000.0);
    std::vector<sim::HealthEvent> ev = {
        {0.5, 0, HealthState::Failed, 1.0},
        {0.2, 0, HealthState::Healthy, 1.0},
    };
    EXPECT_DEATH(cluster.scheduleHealth(ev), "not sorted");
}

TEST(ClusterSimFaults, CrashKillsInFlightAndAccountsThem)
{
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    // Single slow shard: big queries pile up a deep in-flight queue.
    sim::PreparedWorkload w = sim::prepare(hw::serverSpec(ServerType::T2),
                                           m, cpuConfig(1, 1, 64));
    sim::ClusterSim cluster(sim::ClusterSim::Options{});
    cluster.addShard(w, 1000.0);
    cluster.scheduleHealth({
        {0.04, 0, HealthState::Failed, 1.0},
        {0.30, 0, HealthState::Healthy, 1.0},
    });

    // 60 arrivals spanning [0.005, 0.3]: some retire before the crash,
    // the deep queue dies with it, arrivals during the outage drop.
    std::vector<workload::Query> trace = uniformTrace(60, 0.005, 400);
    sim::ClusterSimResult r = cluster.run(trace, 0.1, nullptr, 0.5);

    ASSERT_GT(r.failed_inflight, 0u);
    ASSERT_GT(r.dropped, 0u);
    // Conservation: routed queries either completed or died in flight;
    // unrouted ones dropped. Nothing vanishes.
    EXPECT_EQ(r.injected + r.dropped, 60u);
    EXPECT_EQ(r.completed + r.failed_inflight, r.injected);
    // Killed and dropped queries are SLA violations by definition.
    EXPECT_GE(r.sla_violations, r.failed_inflight + r.dropped);

    // Interval and per-service slices agree with the run aggregate.
    size_t iv_failed = 0;
    for (const sim::IntervalStats& iv : r.intervals) {
        iv_failed += iv.failed_inflight;
        ASSERT_EQ(iv.services.size(), 1u);
        EXPECT_EQ(iv.services[0].failed_inflight, iv.failed_inflight);
    }
    EXPECT_EQ(iv_failed, r.failed_inflight);
    ASSERT_EQ(r.services.size(), 1u);
    EXPECT_EQ(r.services[0].failed_inflight, r.failed_inflight);
    EXPECT_GE(r.services[0].sla_violations, r.failed_inflight);

    // The applied timeline is logged: crash (with the kill count),
    // then recovery (killing nothing).
    ASSERT_EQ(r.health_transitions.size(), 2u);
    EXPECT_EQ(r.health_transitions[0].to, HealthState::Failed);
    EXPECT_EQ(r.health_transitions[0].killed_inflight,
              r.failed_inflight);
    EXPECT_EQ(r.health_transitions[1].to, HealthState::Healthy);
    EXPECT_EQ(r.health_transitions[1].killed_inflight, 0u);
    EXPECT_EQ(cluster.shardHealth(0), HealthState::Healthy);
}

TEST(ClusterSimFaults, FailedShardLeavesRoutingUntilRecovery)
{
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    sim::PreparedWorkload w = sim::prepare(hw::serverSpec(ServerType::T2),
                                           m, cpuConfig(4, 1, 64));
    sim::ClusterSim::Options copt;
    copt.router = sim::RouterPolicy::RoundRobin;
    sim::ClusterSim cluster(copt);
    cluster.addShard(w, 1000.0);
    cluster.addShard(w, 1000.0);
    cluster.scheduleHealth({
        {0.0085, 0, HealthState::Failed, 1.0},
        {0.0185, 0, HealthState::Healthy, 1.0},
    });

    // Phase 1 (before the crash): round-robin alternates 0, 1.
    std::vector<workload::Query> trace = uniformTrace(28, 0.001, 10);
    for (size_t i = 0; i < 8; ++i)
        cluster.route(trace[i]);  // arrivals 0.001 .. 0.008
    EXPECT_EQ(cluster.injectedPerShard(), (std::vector<size_t>{4, 4}));

    // Phase 2 (outage): shard 0 is unroutable, everything lands on 1.
    for (size_t i = 8; i < 18; ++i)
        cluster.route(trace[i]);  // arrivals 0.009 .. 0.018
    EXPECT_EQ(cluster.shardHealth(0), HealthState::Failed);
    // The plan intent (active) survives the crash — only routability
    // is revoked, so recovery can restore the shard in place.
    EXPECT_TRUE(cluster.isActive(0));
    EXPECT_EQ(cluster.injectedPerShard(), (std::vector<size_t>{4, 14}));

    // Phase 3 (recovered): the shard rejoins its router's rotation
    // and the 10 remaining arrivals split between both shards again.
    for (size_t i = 18; i < 28; ++i)
        cluster.route(trace[i]);  // arrivals 0.019 .. 0.028
    EXPECT_EQ(cluster.shardHealth(0), HealthState::Healthy);
    EXPECT_EQ(cluster.injectedPerShard()[0] +
                  cluster.injectedPerShard()[1],
              28u);
    EXPECT_EQ(cluster.injectedPerShard()[0], 9u);
    EXPECT_EQ(cluster.injectedPerShard()[1], 19u);
    cluster.drainAll();
}

TEST(ClusterSimFaults, DegradedShardMultipliesLatency)
{
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    sim::PreparedWorkload w = sim::prepare(hw::serverSpec(ServerType::T2),
                                           m, cpuConfig(4, 2, 128));
    // Sparse arrivals: no queueing, so the sojourn time is pure
    // service latency and the slowdown factor shows up unblended.
    std::vector<workload::Query> trace = uniformTrace(20, 0.5, 40);

    auto run = [&](double slowdown) {
        sim::ClusterSim cluster(sim::ClusterSim::Options{});
        cluster.addShard(w, 1000.0);
        if (slowdown > 1.0)
            cluster.scheduleHealth(
                {{0.0, 0, HealthState::Degraded, slowdown}});
        return cluster.run(trace, 5.0);
    };
    sim::ClusterSimResult healthy = run(1.0);
    sim::ClusterSimResult slowed = run(4.0);

    EXPECT_EQ(slowed.completed, healthy.completed);
    EXPECT_EQ(slowed.failed_inflight, 0u);  // stragglers keep serving
    ASSERT_GT(healthy.p50_ms, 0.0);
    EXPECT_NEAR(slowed.p50_ms / healthy.p50_ms, 4.0, 0.5);
    EXPECT_NEAR(slowed.p99_ms / healthy.p99_ms, 4.0, 0.5);
    ASSERT_EQ(slowed.health_transitions.size(), 1u);
    EXPECT_EQ(slowed.health_transitions[0].to, HealthState::Degraded);
    EXPECT_EQ(slowed.health_transitions[0].slowdown, 4.0);
}

TEST(ClusterSimFaults, FeedbackRouterShiftsLoadAwayFromStraggler)
{
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    sim::PreparedWorkload w = sim::prepare(hw::serverSpec(ServerType::T2),
                                           m, cpuConfig(4, 2, 128));
    auto run = [&](sim::RouterPolicy policy) {
        sim::ClusterSim::Options copt;
        copt.router = policy;
        copt.sla_ms = 5.0;
        auto cluster = std::make_unique<sim::ClusterSim>(copt);
        cluster->addShard(w, 1000.0);
        cluster->addShard(w, 1000.0);
        // Shard 0 straggles from the start: its p99 blows through the
        // SLA every harvest window, shard 1 stays comfortably inside.
        cluster->scheduleHealth({{0.0, 0, HealthState::Degraded, 20.0}});
        cluster->run(uniformTrace(800, 0.002, 40), 0.2);
        return cluster;
    };

    // The static heterogeneity-aware router splits equal weights
    // 50/50 no matter what the shards do...
    auto wrr = run(sim::RouterPolicy::HerculesWeighted);
    EXPECT_EQ(wrr->injectedPerShard()[0], wrr->injectedPerShard()[1]);

    // ...latency feedback demotes the straggler window by window.
    auto fb = run(sim::RouterPolicy::LatencyFeedback);
    EXPECT_LT(fb->feedbackWeight(0), fb->feedbackWeight(1));
    EXPECT_LT(fb->feedbackWeight(0), fb->weight(0));
    EXPECT_GT(fb->injectedPerShard()[1],
              fb->injectedPerShard()[0] * 3 / 2);
}

TEST(ClusterSimFaults, GpuShardsCrashMidPipelineAndRecover)
{
    // Two T7 shards, one per service: GPU model-based with a cold host
    // stage (6 GPU threads leave only part of RMC1's embeddings hot, so
    // every batch visits the one host helper first) and the GPU S-D
    // pipeline. Each crash lands while batches sit in the pipeline:
    // shard 0 has one batch in the host stage, five in (or queued for)
    // the PCIe transfer and one executing; shard 1 has two transferring
    // and one executing. Both recover at 0.1 s and serve again; a
    // helper or GPU thread left marked busy by the crash would strand
    // every later batch and trip the run's conservation check.
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    sched::SchedulingConfig mb;
    mb.mapping = sched::Mapping::GpuModelBased;
    mb.gpu_threads = 6;
    mb.fusion_limit = 2000;
    mb.cpu_threads = 1;
    sched::SchedulingConfig sd;
    sd.mapping = sched::Mapping::GpuSdPipeline;
    sd.cpu_threads = 8;
    sd.cores_per_thread = 2;
    sd.batch = 128;
    sd.gpu_threads = 2;
    sd.fusion_limit = 2000;
    const hw::ServerSpec& t7 = hw::serverSpec(ServerType::T7);
    sim::PreparedWorkload w_mb = sim::prepare(t7, m, mb);
    sim::PreparedWorkload w_sd = sim::prepare(t7, m, sd);
    ASSERT_LT(w_mb.gpu_cx.hot_hit_rate, 1.0);

    sim::ClusterSim cluster(sim::ClusterSim::Options{});
    cluster.addShard(w_mb, 1000.0, 0);
    cluster.addShard(w_sd, 1000.0, 1);
    cluster.scheduleHealth({
        {0.059, 0, HealthState::Failed, 1.0},
        {0.0648, 1, HealthState::Failed, 1.0},
        {0.1, 0, HealthState::Healthy, 1.0},
        {0.1, 1, HealthState::Healthy, 1.0},
    });
    // 5000 QPS for 0.2 s, three of every four queries to service 0.
    std::vector<workload::Query> trace(1000);
    for (size_t i = 0; i < trace.size(); ++i) {
        trace[i].id = i;
        trace[i].arrival_s = static_cast<double>(i + 1) * 0.0002;
        trace[i].size = 20 + static_cast<int>((i * 37) % 400);
        trace[i].service_id = i % 4 == 3 ? 1 : 0;
        trace[i].pooling_scale = 0.8 + 0.05 * static_cast<double>(i % 9);
    }
    sim::ClusterSimResult r = cluster.run(trace, 0.05);

    // Values recorded with the callback-queue engine: the typed event
    // records and batch slots must replay the crash path exactly.
    ASSERT_EQ(r.health_transitions.size(), 4u);
    EXPECT_EQ(r.health_transitions[0].killed_inflight, 61u);
    EXPECT_EQ(r.health_transitions[1].killed_inflight, 9u);
    EXPECT_EQ(r.completed, 732u);
    EXPECT_EQ(r.failed_inflight, 70u);
    EXPECT_EQ(r.dropped, 198u);
    EXPECT_EQ(r.p99_ms, 26.746499127896229);
    EXPECT_EQ(r.des.events_executed, 2465u);
    EXPECT_EQ(r.avg_consumed_power_w, 316.48364843450076);
    EXPECT_EQ(r.peak_consumed_power_w, 408.96924256052796);
    ASSERT_EQ(r.services.size(), 2u);
    EXPECT_EQ(r.services[0].completed, 535u);
    EXPECT_EQ(r.services[0].failed_inflight, 61u);
    EXPECT_EQ(r.services[0].p99_ms, 26.80400533050739);
    EXPECT_EQ(r.services[1].completed, 197u);
    EXPECT_EQ(r.services[1].failed_inflight, 9u);
    EXPECT_EQ(r.services[1].p99_ms, 8.5916697881968105);

    // Both shards serve again after recovery.
    ASSERT_GE(r.intervals.size(), 4u);
    EXPECT_EQ(r.intervals[3].services[0].completions, 157u);
    EXPECT_EQ(r.intervals[3].services[1].completions, 62u);
    EXPECT_EQ(cluster.shardHealth(0), HealthState::Healthy);
    EXPECT_EQ(cluster.shardHealth(1), HealthState::Healthy);
}

// ---- bit-identity: a no-op faults block is invisible ----------------------

/** Hand-built efficiency table (the test_scenario golden shape). */
core::EfficiencyTable
goldenTable()
{
    core::EfficiencyTable t;
    auto add = [&](ServerType st, ModelId mid, double qps, double w) {
        core::EfficiencyEntry e;
        e.server = st;
        e.model = mid;
        e.feasible = true;
        e.qps = qps;
        e.power_w = w;
        e.config = cpuConfig(4, 1, 64);
        t.set(e);
    };
    add(ServerType::T2, ModelId::DlrmRmc1, 2000.0, 100.0);
    add(ServerType::T2, ModelId::DlrmRmc2, 1000.0, 200.0);
    add(ServerType::T1, ModelId::DlrmRmc1, 1200.0, 90.0);
    add(ServerType::T1, ModelId::DlrmRmc2, 600.0, 150.0);
    return t;
}

scenario::ScenarioSpec
goldenSpec()
{
    scenario::ScenarioSpec spec;
    spec.name = "golden_faults";
    spec.fleet = {{ServerType::T2, 2}, {ServerType::T1, 1}};
    const ModelId ids[2] = {ModelId::DlrmRmc1, ModelId::DlrmRmc2};
    const double peaks[2] = {400.0, 200.0};
    for (int s = 0; s < 2; ++s) {
        scenario::ServiceScenario svc;
        svc.spec.model = ids[s];
        svc.spec.load.peak_qps = peaks[s];
        svc.spec.load.trough_frac = 0.35;
        svc.spec.load.peak_hour = 20.0 - 8.0 * s;
        svc.spec.load.seed = 5 + static_cast<uint64_t>(s);
        spec.services.push_back(svc);
    }
    spec.serve.horizon_hours = 3.0;
    spec.serve.interval_hours = 0.5;
    spec.serve.trace.time_compression = 480.0;
    spec.serve.trace.seed = 42;
    return spec;
}

void
expectSameServe(const cluster::MultiServeResult& a,
                const cluster::MultiServeResult& b)
{
    EXPECT_EQ(a.sim.injected, b.sim.injected);
    EXPECT_EQ(a.sim.completed, b.sim.completed);
    EXPECT_EQ(a.sim.dropped, b.sim.dropped);
    EXPECT_EQ(a.sim.failed_inflight, b.sim.failed_inflight);
    EXPECT_EQ(a.sim.p50_ms, b.sim.p50_ms);
    EXPECT_EQ(a.sim.p99_ms, b.sim.p99_ms);
    EXPECT_EQ(a.sim.max_ms, b.sim.max_ms);
    EXPECT_EQ(a.sim.sla_violations, b.sim.sla_violations);
    EXPECT_EQ(a.sim.avg_provisioned_power_w,
              b.sim.avg_provisioned_power_w);
    EXPECT_EQ(a.sim.avg_consumed_power_w, b.sim.avg_consumed_power_w);
    ASSERT_EQ(a.sim.intervals.size(), b.sim.intervals.size());
    for (size_t k = 0; k < a.sim.intervals.size(); ++k) {
        EXPECT_EQ(a.sim.intervals[k].completions,
                  b.sim.intervals[k].completions)
            << "interval " << k;
        EXPECT_EQ(a.sim.intervals[k].p99_ms, b.sim.intervals[k].p99_ms)
            << "interval " << k;
        EXPECT_EQ(a.sim.intervals[k].consumed_power_w,
                  b.sim.intervals[k].consumed_power_w)
            << "interval " << k;
    }
}

TEST(ScenarioFaults, NoOpFaultsBlockIsBitIdentical)
{
    core::EfficiencyTable table = goldenTable();
    scenario::ScenarioResult base = scenario::run(goldenSpec(), &table);
    EXPECT_TRUE(base.serve.sim.health_transitions.empty());

    // A faults block that schedules nothing (only the seed differs
    // from the default) must not disturb a single double.
    scenario::ScenarioSpec seeded = goldenSpec();
    seeded.serve.faults.seed = 99;
    EXPECT_FALSE(seeded.serve.faults.enabled());
    scenario::ScenarioResult r1 = scenario::run(seeded, &table);
    expectSameServe(r1.serve, base.serve);

    // So must scripted events that never fire inside the horizon.
    scenario::ScenarioSpec late = goldenSpec();
    late.serve.faults.events = {
        {1000.0, 0, 0, HealthState::Failed, 1.0}};
    scenario::ScenarioResult r2 = scenario::run(late, &table);
    EXPECT_TRUE(r2.serve.sim.health_transitions.empty());
    expectSameServe(r2.serve, base.serve);
}

TEST(ScenarioFaults, CrashAndRecoveryFlowThroughServingLoop)
{
    core::EfficiencyTable table = goldenTable();
    scenario::ScenarioSpec spec = goldenSpec();
    // Kill one T2 server mid-interval and repair it an hour later —
    // under a finite power cap, so the replacement capacity the
    // self-healing replan activates must still fit the budget.
    spec.serve.power_cap_w = 450.0;
    spec.serve.faults.events = {
        {0.75, 0, 0, HealthState::Failed, 1.0},
        {1.75, 0, 0, HealthState::Healthy, 1.0},
    };
    scenario::ScenarioResult r = scenario::run(spec, &table);
    const sim::ClusterSimResult& sim = r.serve.sim;

    // Identical spec (including the faults block) => bit-identical
    // result, the determinism contract of the whole stack.
    scenario::ScenarioResult again = scenario::run(spec, &table);
    expectSameServe(again.serve, r.serve);

    // One physical server hosts one personality shard per service it
    // serves, so the crash+repair pair expands to >= 2 transitions,
    // alternating failed -> healthy per shard, at the scripted times
    // (trace seconds: hours * 3600 / compression).
    ASSERT_GE(sim.health_transitions.size(), 2u);
    const double s_per_hour = 3600.0 / spec.serve.trace.time_compression;
    size_t killed_total = 0;
    for (const sim::HealthTransition& ht : sim.health_transitions) {
        EXPECT_TRUE(ht.t_s == 0.75 * s_per_hour ||
                    ht.t_s == 1.75 * s_per_hour)
            << "unexpected transition at " << ht.t_s;
        if (ht.to == HealthState::Failed)
            killed_total += ht.killed_inflight;
        else
            EXPECT_EQ(ht.killed_inflight, 0u);
    }
    EXPECT_EQ(sim.failed_inflight, killed_total);
    EXPECT_GE(sim.sla_violations, sim.failed_inflight);

    // The run completes and still serves the vast majority of the
    // trace: the self-healing replan absorbs the lost server.
    EXPECT_GT(sim.completed, sim.failed_inflight + sim.dropped);

    // Every interval's plan — including the post-crash replans —
    // respects the power cap.
    for (const sim::IntervalStats& iv : sim.intervals)
        EXPECT_LE(iv.provisioned_power_w, 450.0 + 1e-9);
}

// ---- spec-level faults: bind errors and lint ------------------------------

TEST(SpecIoFaults, NegativeAndNaNNumbersRejectedAtBindTime)
{
    std::string err;
    EXPECT_FALSE(scenario::parseSpec("{\"sla_ms\": -1}", &err)
                     .has_value());
    EXPECT_EQ(err, "line 1: key 'sla_ms' in scenario must be "
                   "non-negative (got -1)");

    EXPECT_FALSE(
        scenario::parseSpec("{\n  \"horizon_hours\": 0\n}", &err)
            .has_value());
    EXPECT_EQ(err, "line 2: key 'horizon_hours' in scenario must be "
                   "positive (got 0)");

    EXPECT_FALSE(scenario::parseSpec(
                     "{\"services\": [{\"model\": \"DLRM-RMC1\", "
                     "\"peak_qps\": -5}]}",
                     &err)
                     .has_value());
    EXPECT_EQ(err, "line 1: key 'peak_qps' in services[0] must be "
                   "non-negative (got -5)");

    EXPECT_FALSE(scenario::parseSpec(
                     "{\"power_cap_schedule\": "
                     "[{\"from_hour\": -2, \"cap_w\": 300}]}",
                     &err)
                     .has_value());
    EXPECT_EQ(err, "line 1: key 'from_hour' in power_cap_schedule[0] "
                   "must be non-negative (got -2)");

    // The grammar itself already rejects non-finite literals.
    EXPECT_FALSE(scenario::parseSpec("{\"sla_ms\": 1e999}", &err)
                     .has_value());
    EXPECT_EQ(err, "line 1: number out of range");
}

TEST(SpecIoFaults, FaultsBlockBindErrorsArePrecise)
{
    std::string err;
    EXPECT_FALSE(scenario::parseSpec(
                     "{\"faults\": {\"degrade_slowdown\": 0.5}}", &err)
                     .has_value());
    EXPECT_EQ(err, "line 1: key 'degrade_slowdown' in faults must be "
                   ">= 1 (got 0.5)");

    EXPECT_FALSE(scenario::parseSpec(
                     "{\"faults\": {\"crash_mtbf_hours\": -3}}", &err)
                     .has_value());
    EXPECT_EQ(err, "line 1: key 'crash_mtbf_hours' in faults must be "
                   "non-negative (got -3)");

    EXPECT_FALSE(
        scenario::parseSpec("{\n"
                            "  \"faults\": {\"events\": [\n"
                            "    {\"at_hour\": -1, \"state\": "
                            "\"failed\"}\n"
                            "  ]}\n"
                            "}",
                            &err)
            .has_value());
    EXPECT_EQ(err, "line 3: key 'at_hour' in faults.events[0] must be "
                   "non-negative (got -1)");

    EXPECT_FALSE(scenario::parseSpec(
                     "{\"faults\": {\"events\": [{\"at_hour\": 1, "
                     "\"state\": \"zombie\"}]}}",
                     &err)
                     .has_value());
    EXPECT_EQ(err,
              "line 1: unknown health state 'zombie' in "
              "faults.events[0]");

    EXPECT_FALSE(scenario::parseSpec(
                     "{\"faults\": {\"events\": [{\"at_hour\": 1, "
                     "\"state\": \"degraded\", \"slowdown\": 0}]}}",
                     &err)
                     .has_value());
    EXPECT_EQ(err, "line 1: key 'slowdown' in faults.events[0] must be "
                   ">= 1 (got 0)");

    EXPECT_FALSE(scenario::parseSpec(
                     "{\"faults\": {\"events\": [{\"at_hour\": 1, "
                     "\"state\": \"failed\", \"mtbf\": 3}]}}",
                     &err)
                     .has_value());
    EXPECT_EQ(err,
              "line 1: unknown key 'mtbf' in faults.events[0]");
}

TEST(SpecIoFaults, LintCatchesSemanticFaultErrors)
{
    auto errors = [](const scenario::ScenarioSpec& s) {
        std::string out;
        for (const scenario::Diagnostic& d : scenario::lint(s))
            if (d.severity == scenario::Severity::Error)
                out += scenario::formatDiagnostic(d) + "\n";
        return out;
    };
    scenario::ScenarioSpec ok = goldenSpec();
    ok.serve.faults.events = {{1.0, 1, 0, HealthState::Failed, 1.0}};
    EXPECT_EQ(errors(ok), "");

    // Fleet coordinates are only checkable against the spec's fleet,
    // so they are lint's job, not the binder's.
    scenario::ScenarioSpec bad_fleet = goldenSpec();
    bad_fleet.serve.faults.events = {
        {1.0, 5, 0, HealthState::Failed, 1.0}};
    EXPECT_NE(errors(bad_fleet).find("faults.events[0]"),
              std::string::npos);

    scenario::ScenarioSpec bad_slot = goldenSpec();
    bad_slot.serve.faults.events = {
        {1.0, 1, 3, HealthState::Failed, 1.0}};
    EXPECT_NE(errors(bad_slot).find("faults.events[0]"),
              std::string::npos);

    // NaN knobs can only enter through the C++ API; lint (and so
    // run()'s gate) still refuses them.
    scenario::ScenarioSpec nan_knob = goldenSpec();
    nan_knob.serve.faults.crash_mtbf_hours =
        std::numeric_limits<double>::quiet_NaN();
    EXPECT_NE(errors(nan_knob).find("faults"), std::string::npos);

    scenario::ScenarioSpec nan_cap = goldenSpec();
    nan_cap.serve.power_cap_schedule = {
        {0.0, std::numeric_limits<double>::quiet_NaN()}};
    EXPECT_NE(errors(nan_cap).find("power_cap_schedule"),
              std::string::npos);
}

TEST(SpecIoFaults, FaultsBlockRoundTripsCanonically)
{
    scenario::ScenarioSpec s;
    s.name = "faulty";
    s.fleet = {{ServerType::T2, 2}, {ServerType::T3, 1}};
    scenario::ServiceScenario svc;
    svc.spec.model = ModelId::DlrmRmc1;
    svc.spec.load.peak_qps = 100.0;
    s.services.push_back(svc);
    s.serve.faults.seed = 11;
    s.serve.faults.crash_mtbf_hours = 8.0;
    s.serve.faults.crash_mttr_hours = 0.75;
    s.serve.faults.degrade_mtbf_hours = 6.0;
    s.serve.faults.degrade_mttr_hours = 2.0;
    s.serve.faults.degrade_slowdown = 3.5;
    s.serve.faults.events = {
        {1.5, 1, 0, HealthState::Failed, 1.0},
        {2.5, 1, 0, HealthState::Healthy, 1.0},
        {3.0, 0, 1, HealthState::Degraded, 2.0},
    };

    std::string text = scenario::toText(s);
    std::string err;
    auto parsed = scenario::parseSpec(text, &err);
    ASSERT_TRUE(parsed.has_value()) << err;
    EXPECT_EQ(scenario::toText(*parsed), text);

    const FaultSpec& f = parsed->serve.faults;
    EXPECT_EQ(f.seed, 11u);
    EXPECT_EQ(f.crash_mtbf_hours, 8.0);
    EXPECT_EQ(f.degrade_slowdown, 3.5);
    ASSERT_EQ(f.events.size(), 3u);
    EXPECT_EQ(f.events[0].state, HealthState::Failed);
    EXPECT_EQ(f.events[2].slowdown, 2.0);
}

}  // namespace
}  // namespace hercules
