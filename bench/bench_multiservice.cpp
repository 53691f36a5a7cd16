/**
 * @file
 * Multi-service co-serving on a shared heterogeneous fleet: 2–3
 * recommendation services with phase-shifted diurnal peaks replayed
 * end to end (every query flows through a simulated shard) across a
 * T2+T3+T7 fleet, comparing
 *
 *  - JOINT:     one shared fleet, the multi-model ProvisionProblem
 *               solved jointly every interval — declared by
 *               scenarios/three_service_phase_shift.scn and executed
 *               through scenario::run();
 *  - PARTITION: per-service static partitions — each service gets a
 *               dedicated slice of the fleet sized for its own peak
 *               (greedy best-QPS/W types first), always on, no
 *               cross-service sharing. Its silos are summed into one
 *               ScenarioResult named "<scenario>_partitioned" that
 *               keeps the joint spec's knobs; its run-level p50/p99
 *               and per-interval p99 are the max over silos.
 *
 * The gate: joint provisioning must use no more average provisioned
 * power than the static partitions at an equal-or-lower SLA-violation
 * rate — the Hercules premise that sharing a heterogeneity-aware
 * fleet across phase-shifted services beats static silos.
 *
 * Results land in BENCH_multiservice.json, one result object per arm.
 *
 * Fast mode (HERCULES_BENCH_FAST=1): 2 services on T2+T3, 3h horizon.
 */
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "obs/self_profile.h"
#include "sim/prepared.h"

using namespace hercules;

namespace {

/**
 * The PARTITION arm: each service gets a dedicated, always-on slice
 * sized for its own peak * (1 + R): greedily the best remaining QPS/W
 * types. The merged trace is replayed per partition (each service
 * sees exactly the arrivals it saw in the joint run), and the silos
 * are summed into one result shaped like the joint arm's.
 */
scenario::ScenarioResult
runPartitions(const scenario::ScenarioSpec& spec,
              const core::EfficiencyTable& table,
              const scenario::ScenarioResult& joint)
{
    const size_t S = spec.services.size();
    std::vector<hw::ServerType> fleet;
    std::vector<int> remaining;
    for (const scenario::FleetEntry& e : spec.fleet) {
        fleet.push_back(e.type);
        remaining.push_back(e.shard_slots);
    }
    const cluster::TraceServeOptions& opt = spec.serve;
    workload::TraceOptions topt = opt.trace;
    topt.horizon_hours = opt.horizon_hours;
    std::vector<workload::ServiceTraceSpec> trace_specs(S);
    for (size_t s = 0; s < S; ++s) {
        trace_specs[s].load = spec.services[s].spec.load;
        trace_specs[s].sizes = spec.services[s].spec.sizes;
        trace_specs[s].pooling = spec.services[s].spec.pooling;
    }
    std::vector<workload::Query> merged =
        workload::generateMultiServiceTrace(trace_specs, topt);
    const double interval_s =
        opt.interval_hours * 3600.0 / topt.time_compression;
    const double horizon_s =
        opt.horizon_hours * 3600.0 / topt.time_compression;

    obs::WallTimer timer;
    scenario::ScenarioResult out;
    out.resolved = spec;
    out.resolved.name = spec.name + "_partitioned";
    out.table = table;
    cluster::MultiServeResult& pr = out.serve;
    pr.trace_queries = merged.size();
    pr.service_capacity_qps = joint.serve.service_capacity_qps;
    pr.service_r = joint.serve.service_r;
    pr.estimated_r = joint.serve.estimated_r;
    sim::ClusterSimResult& agg = pr.sim;
    agg.services.resize(S);

    std::vector<model::ModelId> model_ids;
    std::vector<model::Model> models;
    for (const scenario::ServiceScenario& s : spec.services) {
        model_ids.push_back(s.spec.model);
        models.push_back(model::buildModel(s.spec.model));
    }

    // Partition sizing, two passes so a scarce fleet still gives every
    // silo at least one server: (1) each service claims one server of
    // its best QPS/W type; (2) greedy top-up, best types first, until
    // the service's peak * (1 + R) is covered or slots run out.
    std::vector<std::vector<size_t>> type_order(S);
    std::vector<std::vector<int>> takes(S,
                                        std::vector<int>(fleet.size(), 0));
    for (size_t s = 0; s < S; ++s) {
        for (size_t h = 0; h < fleet.size(); ++h) {
            const core::EfficiencyEntry* e =
                table.get(fleet[h], model_ids[s]);
            if (e != nullptr && e->feasible)
                type_order[s].push_back(h);
        }
        std::stable_sort(type_order[s].begin(), type_order[s].end(),
                         [&](size_t a, size_t b) {
                             const auto* ea =
                                 table.get(fleet[a], model_ids[s]);
                             const auto* eb =
                                 table.get(fleet[b], model_ids[s]);
                             return ea->qps / std::max(ea->power_w, 1e-9) >
                                    eb->qps / std::max(eb->power_w, 1e-9);
                         });
        for (size_t h : type_order[s]) {
            if (remaining[h] > 0) {
                ++takes[s][h];
                --remaining[h];
                break;
            }
        }
    }
    size_t denom = 0;
    for (size_t s = 0; s < S; ++s) {
        double part_r = opt.overprovision_rate >= 0.0
                            ? opt.overprovision_rate
                            : joint.serve.service_r[s];
        double target =
            spec.services[s].spec.load.peak_qps * (1.0 + part_r);
        std::vector<int>& take = takes[s];
        double covered = 0.0, part_power = 0.0;
        for (size_t h = 0; h < fleet.size(); ++h) {
            const auto* e = table.get(fleet[h], model_ids[s]);
            if (take[h] > 0) {
                covered += take[h] * e->qps;
                part_power += take[h] * e->power_w;
            }
        }
        for (size_t h : type_order[s]) {
            const auto* e = table.get(fleet[h], model_ids[s]);
            while (covered < target && remaining[h] > 0) {
                ++take[h];
                --remaining[h];
                covered += e->qps;
                part_power += e->power_w;
            }
        }

        sim::ClusterSim::Options copt;
        copt.router = opt.router;
        copt.router_seed = opt.router_seed;
        copt.sla_ms = opt.sla_ms;
        copt.service_sla_ms.assign(s + 1, 0.0);
        copt.service_sla_ms[s] = models[s].sla_ms;
        pr.service_sla_ms.push_back(models[s].sla_ms);
        sim::ClusterSim part(copt);
        part.declareServices(static_cast<int>(s) + 1);
        std::vector<sim::PreparedWorkload> prepared;
        prepared.reserve(fleet.size());
        for (size_t h = 0; h < fleet.size(); ++h) {
            if (take[h] <= 0)
                continue;
            const auto* e = table.get(fleet[h], model_ids[s]);
            prepared.push_back(sim::prepare(hw::serverSpec(fleet[h]),
                                            models[s], e->config));
            for (int i = 0; i < take[h]; ++i)
                part.addShard(prepared.back(), e->qps,
                              static_cast<int>(s));
            pr.shard_slots += take[h];
        }

        std::vector<workload::Query> sub;
        for (const workload::Query& q : merged)
            if (q.service_id == static_cast<int>(s))
                sub.push_back(q);

        // Static partition: every shard always on, constant power.
        std::vector<int> all_ids(part.numShards());
        for (size_t i = 0; i < all_ids.size(); ++i)
            all_ids[i] = static_cast<int>(i);
        auto static_plan = [&](int, double) {
            sim::IntervalPlan pl;
            pl.active = all_ids;
            pl.provisioned_power_w = part_power;
            return pl;
        };
        sim::ClusterSimResult rr =
            part.run(sub, interval_s, static_plan, horizon_s);

        // Fold this partition's trajectory into the combined one (the
        // partitions share the interval grid; drain tails may differ).
        if (agg.intervals.size() < rr.intervals.size())
            agg.intervals.resize(rr.intervals.size());
        for (size_t k = 0; k < rr.intervals.size(); ++k) {
            sim::IntervalStats& acc = agg.intervals[k];
            const sim::IntervalStats& iv = rr.intervals[k];
            acc.t0_s = iv.t0_s;
            acc.t1_s = std::max(acc.t1_s, iv.t1_s);
            acc.arrivals += iv.arrivals;
            acc.completions += iv.completions;
            acc.dropped += iv.dropped;
            acc.sla_violations += iv.sla_violations;
            acc.p99_ms = std::max(acc.p99_ms, iv.p99_ms);
            acc.provisioned_power_w += iv.provisioned_power_w;
            acc.consumed_power_w += iv.consumed_power_w;
            size_t d = acc.completions + acc.dropped;
            acc.sla_violation_rate =
                d > 0 ? static_cast<double>(acc.sla_violations) /
                            static_cast<double>(d)
                      : 0.0;
        }

        agg.services[s] = rr.services[s];
        agg.injected += rr.injected;
        agg.completed += rr.completed;
        agg.dropped += rr.dropped;
        agg.rejected += rr.rejected;
        agg.failed_inflight += rr.failed_inflight;
        agg.sla_violations += rr.sla_violations;
        denom += rr.completed + rr.dropped + rr.rejected +
                 rr.failed_inflight;
        agg.avg_provisioned_power_w += rr.avg_provisioned_power_w;
        agg.avg_consumed_power_w += rr.avg_consumed_power_w;
        agg.p50_ms = std::max(agg.p50_ms, rr.p50_ms);
        agg.p99_ms = std::max(agg.p99_ms, rr.p99_ms);
        agg.des.events_executed += rr.des.events_executed;
        agg.des.peak_event_queue_depth =
            std::max(agg.des.peak_event_queue_depth,
                     rr.des.peak_event_queue_depth);
        std::printf("  partition %s:", model::modelName(model_ids[s]));
        for (size_t h = 0; h < fleet.size(); ++h)
            if (take[h] > 0)
                std::printf(" %s x%d", hw::serverTypeName(fleet[h]),
                            take[h]);
        std::printf("  (%.0f QPS for %.0f target, %.0f W)\n", covered,
                    target, part_power);
    }
    std::printf("\n");
    agg.sla_violation_rate =
        denom > 0 ? static_cast<double>(agg.sla_violations) /
                        static_cast<double>(denom)
                  : 0.0;
    out.serve_wall_ms = timer.elapsedMs();
    return out;
}

}  // namespace

int
main()
{
    bench::banner("Multi-service co-serving",
                  "Phase-shifted services on one shared heterogeneous "
                  "fleet: joint provisioning vs static partitions");

    const bool fast = bench::fastMode();
    scenario::ScenarioSpec spec =
        bench::loadScenario("three_service_phase_shift.scn");
    if (fast) {
        // Smoke deltas: 2 services on a 3-slot T2+T3 fleet, peaks
        // inside a 3h window, profiled into the fast cache.
        spec.fleet = {{hw::ServerType::T2, 2},
                      {hw::ServerType::T3, 1}};
        spec.services.resize(2);
        for (size_t s = 0; s < spec.services.size(); ++s) {
            scenario::ServiceScenario svc;
            svc.spec.model = s == 0 ? model::ModelId::DlrmRmc1
                                    : model::ModelId::DlrmRmc2;
            svc.peak_qps_frac = 0.40;
            svc.spec.load.trough_frac = 0.35;
            svc.spec.load.peak_hour =
                0.75 + 1.5 * static_cast<double>(s);
            svc.spec.load.seed = 5 + s;
            spec.services[s] = svc;
        }
        spec.serve.horizon_hours = 3.0;
        spec.serve.trace.time_compression = 960.0;
        spec.profile.table_cache =
            "hercules_efficiency_multiservice_fast.csv";
    }
    bench::applyBenchProfile(spec);

    core::EfficiencyTable table = scenario::profileTable(spec);
    scenario::resolvePeaks(spec, table);
    if (!bench::servicesFeasible(spec))
        return 1;

    // Both arms use the same R. The fast smoke's 3h window never
    // leaves the peak region; the extra headroom only reshuffles its
    // LP assignment, so it keeps the internal ramp estimate.
    if (!fast) {
        spec.serve.overprovision_rate =
            bench::headroomOverprovisionRate(spec);
        std::printf("over-provision rate R = %.1f%%\n\n",
                    spec.serve.overprovision_rate * 100.0);
    }

    std::vector<bench::Arm> arms = {{"joint", spec, {}}};
    bench::runArms(arms, table);
    arms.push_back(
        {"partition", spec, runPartitions(spec, table, arms[0].result)});
    bench::printArms(arms);

    // ---- the co-serving gate ------------------------------------------
    const sim::ClusterSimResult& jr = arms[0].result.serve.sim;
    const sim::ClusterSimResult& pr = arms[1].result.serve.sim;
    const bool power_ok =
        jr.avg_provisioned_power_w <= pr.avg_provisioned_power_w + 1e-6;
    const bool sla_ok =
        jr.sla_violation_rate <= pr.sla_violation_rate + 1e-12;
    const bool ok = power_ok && sla_ok;
    std::printf("\njoint vs static partitions: %s (power %.3f vs %.3f "
                "kW, violations %.3f%% vs %.3f%%)\n",
                ok ? "DOMINATES" : "FAIL",
                jr.avg_provisioned_power_w / 1e3,
                pr.avg_provisioned_power_w / 1e3,
                jr.sla_violation_rate * 100.0,
                pr.sla_violation_rate * 100.0);

    bench::writeArmsJson(
        "BENCH_multiservice.json",
        {{"overprovision_rate",
          fmtDouble(spec.serve.overprovision_rate, 4)},
         {"power_ok", bench::jsonBool(power_ok)},
         {"sla_ok", bench::jsonBool(sla_ok)},
         {"joint_dominates_partitions", bench::jsonBool(ok)}},
        arms);
    return ok ? 0 : 1;
}
