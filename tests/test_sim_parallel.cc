/**
 * @file
 * Serial vs pooled identity of the sharded cluster simulator: a
 * ClusterSim advancing its shards on a 4-thread pool (and, for the
 * routers that read no live shard state, deferring each interval's
 * arrivals to the shards' next advance) must reproduce the run it
 * makes with no pool, field for field — every router policy, deadline
 * admission, a crash/repair/straggler timeline, provisioning churn and
 * a fully dark service.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fault/fault.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "qos/qos.h"
#include "sim/cluster_sim.h"
#include "sim/prepared.h"
#include "util/thread_pool.h"
#include "workload/trace_gen.h"

namespace hercules::sim {
namespace {

using fault::HealthState;
using hw::ServerType;
using model::ModelId;

sched::SchedulingConfig
cpuConfig(int threads, int batch)
{
    sched::SchedulingConfig cfg;
    cfg.mapping = sched::Mapping::CpuModelBased;
    cfg.cpu_threads = threads;
    cfg.cores_per_thread = 1;
    cfg.batch = batch;
    return cfg;
}

/** One cluster configuration the identity is checked under. */
struct Case
{
    RouterPolicy router = RouterPolicy::HerculesWeighted;
    qos::AdmissionPolicy admission = qos::AdmissionPolicy::None;
    bool faults = false;

    std::string name() const
    {
        return std::string(routerPolicyName(router)) +
               (admission == qos::AdmissionPolicy::Deadline ? "+deadline"
                                                            : "") +
               (faults ? "+faults" : "");
    }
};

struct Outcome
{
    ClusterSimResult result;
    std::vector<obs::TraceRecord> records;
};

/** The 2-service arrival trace every case replays (0.6 s). */
std::vector<workload::Query>
clusterTrace()
{
    std::vector<workload::ServiceTraceSpec> specs(2);
    specs[0].load.peak_qps = 2600.0;
    specs[1].load.peak_qps = 700.0;
    for (workload::ServiceTraceSpec& s : specs) {
        s.load.trough_frac = 1.0;  // flat: the cases differ, not the load
        s.load.noise_frac = 0.0;
    }
    workload::TraceOptions opt;
    opt.horizon_hours = 0.6 / 3600.0;
    opt.bucket_seconds = 0.1;
    opt.seed = 11;
    return workload::generateMultiServiceTrace(specs, opt);
}

/**
 * Six shards on three prepared workloads — three T2 RMC1 CPU shards
 * and one T7 RMC1 GPU shard for service 0, two T2 RMC2 CPU shards for
 * service 1 — so pool tasks hold one or several shards. The plan
 * releases one shard per interval in turn and darkens service 1 for
 * the whole of interval 3.
 */
Outcome
runCluster(const Case& c, util::ThreadPool* pool)
{
    const model::Model rmc1 = model::buildModel(ModelId::DlrmRmc1);
    const model::Model rmc2 = model::buildModel(ModelId::DlrmRmc2);
    sched::SchedulingConfig gpu;
    gpu.mapping = sched::Mapping::GpuModelBased;
    gpu.gpu_threads = 2;
    gpu.fusion_limit = 1000;
    gpu.cpu_threads = 1;
    const PreparedWorkload cpu1 =
        prepare(hw::serverSpec(ServerType::T2), rmc1, cpuConfig(2, 64));
    const PreparedWorkload gpu1 =
        prepare(hw::serverSpec(ServerType::T7), rmc1, gpu);
    const PreparedWorkload cpu2 =
        prepare(hw::serverSpec(ServerType::T2), rmc2, cpuConfig(3, 64));

    obs::ObsSpec spec;
    spec.trace_file = "sim_parallel_trace.jsonl";  // never written
    spec.sample_rate = 1.0;
    obs::Telemetry telemetry(spec);

    ClusterSim::Options copt;
    copt.router = c.router;
    copt.router_seed = 5;
    copt.service_sla_ms = {20.0, 30.0};
    copt.admission.policy = c.admission;
    copt.telemetry = &telemetry;
    copt.pool = pool;
    ClusterSim cluster(copt);
    cluster.addShard(cpu1, 700.0, 0);   // 0
    cluster.addShard(gpu1, 1500.0, 0);  // 1
    cluster.addShard(cpu1, 700.0, 0);   // 2
    cluster.addShard(cpu2, 400.0, 1);   // 3
    cluster.addShard(cpu1, 700.0, 0);   // 4
    cluster.addShard(cpu2, 400.0, 1);   // 5
    if (c.faults)
        cluster.scheduleHealth({
            {0.12, 4, HealthState::Degraded, 3.0},
            {0.15, 0, HealthState::Failed, 1.0},
            {0.2, 1, HealthState::Failed, 1.0},  // at a boundary
            {0.25, 1, HealthState::Healthy, 1.0},
            {0.32, 0, HealthState::Healthy, 1.0},
            {0.4, 4, HealthState::Healthy, 1.0},
            {0.45, 3, HealthState::Failed, 1.0},
            {0.47, 0, HealthState::Failed, 1.0},
            {0.52, 3, HealthState::Healthy, 1.0},
        });

    const int n = static_cast<int>(cluster.numShards());
    auto plan = [n](int k, double) {
        IntervalPlan p;
        for (int id = 0; id < n; ++id) {
            const bool dark_service = k == 3 && (id == 3 || id == 5);
            if (id != k % n && !dark_service)
                p.active.push_back(id);
        }
        p.provisioned_power_w = 100.0 + 10.0 * k;
        return p;
    };
    Outcome out;
    out.result = cluster.run(clusterTrace(), 0.1, plan);
    out.records = telemetry.traceRecords();
    return out;
}

void
expectSameService(const ServiceIntervalStats& a,
                  const ServiceIntervalStats& b)
{
    EXPECT_EQ(a.arrivals, b.arrivals);
    EXPECT_EQ(a.completions, b.completions);
    EXPECT_EQ(a.dropped, b.dropped);
    EXPECT_EQ(a.rejected, b.rejected);
    EXPECT_EQ(a.p50_ms, b.p50_ms);
    EXPECT_EQ(a.p99_ms, b.p99_ms);
    EXPECT_EQ(a.failed_inflight, b.failed_inflight);
    EXPECT_EQ(a.sla_violations, b.sla_violations);
    EXPECT_EQ(a.sla_violation_rate, b.sla_violation_rate);
    EXPECT_EQ(a.active_shards, b.active_shards);
}

void
expectSameInterval(const IntervalStats& a, const IntervalStats& b)
{
    EXPECT_EQ(a.t0_s, b.t0_s);
    EXPECT_EQ(a.t1_s, b.t1_s);
    EXPECT_EQ(a.arrivals, b.arrivals);
    EXPECT_EQ(a.completions, b.completions);
    EXPECT_EQ(a.dropped, b.dropped);
    EXPECT_EQ(a.rejected, b.rejected);
    EXPECT_EQ(a.failed_inflight, b.failed_inflight);
    EXPECT_EQ(a.offered_qps, b.offered_qps);
    EXPECT_EQ(a.p50_ms, b.p50_ms);
    EXPECT_EQ(a.p99_ms, b.p99_ms);
    EXPECT_EQ(a.max_ms, b.max_ms);
    EXPECT_EQ(a.sla_violations, b.sla_violations);
    EXPECT_EQ(a.sla_violation_rate, b.sla_violation_rate);
    EXPECT_EQ(a.active_shards, b.active_shards);
    EXPECT_EQ(a.consumed_power_w, b.consumed_power_w);
    EXPECT_EQ(a.provisioned_power_w, b.provisioned_power_w);
    EXPECT_EQ(a.budget_power_w, b.budget_power_w);
    EXPECT_EQ(a.power_capped, b.power_capped);
    ASSERT_EQ(a.services.size(), b.services.size());
    for (size_t v = 0; v < a.services.size(); ++v) {
        SCOPED_TRACE("service " + std::to_string(v));
        expectSameService(a.services[v], b.services[v]);
    }
}

void
expectSameRun(const ClusterSimResult& a, const ClusterSimResult& b)
{
    ASSERT_EQ(a.intervals.size(), b.intervals.size());
    for (size_t i = 0; i < a.intervals.size(); ++i) {
        SCOPED_TRACE("interval " + std::to_string(i));
        expectSameInterval(a.intervals[i], b.intervals[i]);
    }
    EXPECT_EQ(a.injected, b.injected);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.dropped, b.dropped);
    EXPECT_EQ(a.rejected, b.rejected);
    EXPECT_EQ(a.failed_inflight, b.failed_inflight);
    EXPECT_EQ(a.admission_retries, b.admission_retries);
    EXPECT_EQ(a.mean_ms, b.mean_ms);
    EXPECT_EQ(a.p50_ms, b.p50_ms);
    EXPECT_EQ(a.p95_ms, b.p95_ms);
    EXPECT_EQ(a.p99_ms, b.p99_ms);
    EXPECT_EQ(a.max_ms, b.max_ms);
    EXPECT_EQ(a.sla_violations, b.sla_violations);
    EXPECT_EQ(a.sla_violation_rate, b.sla_violation_rate);
    EXPECT_EQ(a.avg_consumed_power_w, b.avg_consumed_power_w);
    EXPECT_EQ(a.peak_consumed_power_w, b.peak_consumed_power_w);
    EXPECT_EQ(a.avg_provisioned_power_w, b.avg_provisioned_power_w);
    EXPECT_EQ(a.peak_provisioned_power_w, b.peak_provisioned_power_w);
    ASSERT_EQ(a.services.size(), b.services.size());
    for (size_t v = 0; v < a.services.size(); ++v) {
        SCOPED_TRACE("service " + std::to_string(v));
        const ServiceRunStats& x = a.services[v];
        const ServiceRunStats& y = b.services[v];
        EXPECT_EQ(x.injected, y.injected);
        EXPECT_EQ(x.completed, y.completed);
        EXPECT_EQ(x.dropped, y.dropped);
        EXPECT_EQ(x.rejected, y.rejected);
        EXPECT_EQ(x.failed_inflight, y.failed_inflight);
        EXPECT_EQ(x.p50_ms, y.p50_ms);
        EXPECT_EQ(x.p99_ms, y.p99_ms);
        EXPECT_EQ(x.max_ms, y.max_ms);
        EXPECT_EQ(x.sla_ms, y.sla_ms);
        EXPECT_EQ(x.sla_violations, y.sla_violations);
        EXPECT_EQ(x.sla_violation_rate, y.sla_violation_rate);
    }
    ASSERT_EQ(a.health_transitions.size(), b.health_transitions.size());
    for (size_t i = 0; i < a.health_transitions.size(); ++i) {
        SCOPED_TRACE("transition " + std::to_string(i));
        const HealthTransition& x = a.health_transitions[i];
        const HealthTransition& y = b.health_transitions[i];
        EXPECT_EQ(x.t_s, y.t_s);
        EXPECT_EQ(x.shard, y.shard);
        EXPECT_EQ(x.service, y.service);
        EXPECT_EQ(x.from, y.from);
        EXPECT_EQ(x.to, y.to);
        EXPECT_EQ(x.slowdown, y.slowdown);
        EXPECT_EQ(x.killed_inflight, y.killed_inflight);
    }
    EXPECT_EQ(a.des.events_executed, b.des.events_executed);
    EXPECT_EQ(a.des.peak_event_queue_depth, b.des.peak_event_queue_depth);
}

void
expectSameRecords(const std::vector<obs::TraceRecord>& a,
                  const std::vector<obs::TraceRecord>& b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE("record " + std::to_string(i));
        EXPECT_EQ(a[i].id, b[i].id);
        EXPECT_EQ(a[i].service, b[i].service);
        EXPECT_EQ(a[i].shard, b[i].shard);
        EXPECT_EQ(a[i].retry_hops, b[i].retry_hops);
        EXPECT_EQ(a[i].outcome, b[i].outcome);
        EXPECT_EQ(a[i].arrival_s, b[i].arrival_s);
        EXPECT_EQ(a[i].queue_wait_ms, b[i].queue_wait_ms);
        EXPECT_EQ(a[i].service_start_s, b[i].service_start_s);
        EXPECT_EQ(a[i].finish_s, b[i].finish_s);
    }
}

TEST(ClusterSimPool, PooledRunMatchesSerialRun)
{
    std::vector<Case> cases;
    for (RouterPolicy r :
         {RouterPolicy::RoundRobin, RouterPolicy::LeastOutstanding,
          RouterPolicy::PowerOfTwo, RouterPolicy::HerculesWeighted,
          RouterPolicy::LatencyFeedback})
        for (bool faults : {false, true})
            cases.push_back({r, qos::AdmissionPolicy::None, faults});
    cases.push_back({RouterPolicy::HerculesWeighted,
                     qos::AdmissionPolicy::Deadline, true});
    cases.push_back({RouterPolicy::LeastOutstanding,
                     qos::AdmissionPolicy::Deadline, true});

    util::ThreadPool pool(4);
    for (const Case& c : cases) {
        SCOPED_TRACE(c.name());
        const Outcome serial = runCluster(c, nullptr);
        const Outcome pooled = runCluster(c, &pool);
        // The case exercises what it claims to: work completes, the
        // dark interval drops, crashes kill queries in flight.
        ASSERT_GT(serial.result.completed, 1000u);
        EXPECT_GT(serial.result.dropped, 0u);
        if (c.faults) {
            EXPECT_GT(serial.result.failed_inflight, 0u);
        }
        if (c.admission == qos::AdmissionPolicy::Deadline) {
            EXPECT_GT(serial.result.rejected, 0u);
        }
        expectSameRun(serial.result, pooled.result);
        expectSameRecords(serial.records, pooled.records);
    }
}

TEST(ClusterSimPool, DirectCallersSeeLiveShardState)
{
    // Outside run() nothing is deferred: with a pool attached, route()
    // still injects at once, so outstanding() and drained() read the
    // state a serial cluster reads right after every call.
    const model::Model m = model::buildModel(ModelId::DlrmRmc1);
    const PreparedWorkload w =
        prepare(hw::serverSpec(ServerType::T2), m, cpuConfig(1, 64));
    util::ThreadPool pool(4);
    ClusterSim::Options serial_opt;
    serial_opt.router = RouterPolicy::HerculesWeighted;
    ClusterSim::Options pooled_opt = serial_opt;
    pooled_opt.pool = &pool;
    ClusterSim serial(serial_opt), pooled(pooled_opt);
    for (ClusterSim* c : {&serial, &pooled}) {
        c->addShard(w, 1000.0);
        c->addShard(w, 500.0);
    }
    for (size_t i = 0; i < 60; ++i) {
        workload::Query q;
        q.id = i;
        q.arrival_s = 0.001 * static_cast<double>(i + 1);
        q.size = 300;
        ASSERT_EQ(pooled.route(q), serial.route(q));
        for (int s = 0; s < 2; ++s)
            ASSERT_EQ(pooled.outstanding(s), serial.outstanding(s));
        if (i == 30)
            for (ClusterSim* c : {&serial, &pooled})
                c->setActive(1, false, q.arrival_s);
        EXPECT_EQ(pooled.drained(1), serial.drained(1));
    }
    ASSERT_GT(serial.outstanding(0), 0u);
    serial.drainAll();
    pooled.drainAll();
    EXPECT_EQ(pooled.outstanding(0), 0u);
    EXPECT_TRUE(pooled.drained(1));
    expectSameInterval(pooled.harvest(0.0, 1.0), serial.harvest(0.0, 1.0));
}

}  // namespace
}  // namespace hercules::sim
