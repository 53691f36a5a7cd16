/**
 * @file
 * Sharded online serving: router policies × cluster provisioners over
 * a 24h diurnal replay on a heterogeneous (T2+T3+T7) shard fleet.
 *
 * The experiment is declared, not wired: the base spec is
 * scenarios/single_service.scn and this bench only applies deltas —
 * the full-mode fleet/horizon, then one (provisioner, router) override
 * per arm — before handing everything to scenario::run(). Every
 * query flows through a steppable ServerInstance shard behind the
 * chosen Router; the chosen Provisioner re-provisions the active shard
 * set every interval. The heterogeneity-aware (efficiency-tuple-
 * weighted) router must dominate round-robin on this fleet — that gate
 * is the bench's exit status.
 *
 * Results land in BENCH_cluster.json next to the binary, one result
 * object per "provisioner/router" arm.
 *
 * Fast mode (HERCULES_BENCH_FAST=1): the base spec unchanged — 2
 * shards (T2+T3), short horizon.
 */
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"

using namespace hercules;

int
main()
{
    bench::banner("Cluster serving",
                  "Router policies x provisioners over a diurnal replay "
                  "on a sharded heterogeneous fleet");

    scenario::ScenarioSpec spec =
        bench::loadScenario("single_service.scn");
    if (!bench::fastMode()) {
        // Full-experiment deltas on the smoke base: the three-type
        // fleet, the whole day and production compression.
        spec.fleet = {{hw::ServerType::T2, 2},
                      {hw::ServerType::T3, 2},
                      {hw::ServerType::T7, 1}};
        spec.services[0].peak_qps_frac = 0.60;
        spec.services[0].spec.load.peak_hour = 20.0;
        spec.serve.horizon_hours = 24.0;
        spec.serve.trace.time_compression = 480.0;
        spec.profile.table_cache = "hercules_efficiency_serving.csv";
    }
    bench::applyBenchProfile(spec);
    spec.nh_seed = 11;

    core::EfficiencyTable table = scenario::profileTable(spec);
    const model::ModelId model = spec.services[0].spec.model;
    double fleet_qps = 0.0;
    for (const scenario::FleetEntry& e : spec.fleet) {
        const core::EfficiencyEntry* ent = table.get(e.type, model);
        if (ent != nullptr && ent->feasible) {
            fleet_qps += e.shard_slots * ent->qps;
            std::printf("%s x%d: %.0f QPS / %.0f W  (%s)\n",
                        hw::serverTypeName(e.type), e.shard_slots,
                        ent->qps, ent->power_w,
                        ent->config.str().c_str());
        }
    }
    std::printf("shard fleet capacity: %.0f QPS\n\n", fleet_qps);

    std::vector<bench::Arm> arms;
    for (scenario::ProvisionerKind prov :
         {scenario::ProvisionerKind::Hercules,
          scenario::ProvisionerKind::Greedy,
          scenario::ProvisionerKind::Nh}) {
        for (sim::RouterPolicy rp : sim::allRouterPolicies()) {
            bench::Arm a{scenario::provisionerKindName(prov), spec, {}};
            a.name += std::string("/") + sim::routerPolicyName(rp);
            a.spec.provisioner = prov;
            a.spec.serve.router = rp;
            arms.push_back(std::move(a));
        }
    }
    bench::runArms(arms, table);
    bench::printArms(arms);

    // ---- the heterogeneity gate ---------------------------------------
    // Under the Hercules provisioner, the tuple-weighted router must
    // dominate round-robin on both tail latency and violation rate.
    auto arm = [&](const char* name) -> const sim::ClusterSimResult& {
        for (const bench::Arm& a : arms)
            if (a.name == name)
                return a.result.serve.sim;
        panic("bench_cluster_serving: no arm %s", name);
    };
    const sim::ClusterSimResult& rr = arm("hercules/rr");
    const sim::ClusterSimResult& hw_aware = arm("hercules/hercules");
    const bool ok =
        hw_aware.p99_ms <= rr.p99_ms + 1e-9 &&
        hw_aware.sla_violation_rate <= rr.sla_violation_rate + 1e-12;
    std::printf("\nheterogeneity-aware router vs round-robin: %s (p99 "
                "%.2f vs %.2f ms, violations %.2f%% vs %.2f%%)\n",
                ok ? "DOMINATES" : "FAIL", hw_aware.p99_ms, rr.p99_ms,
                hw_aware.sla_violation_rate * 100,
                rr.sla_violation_rate * 100);

    bench::writeArmsJson(
        "BENCH_cluster.json",
        {{"fleet_capacity_qps", fmtDouble(fleet_qps, 1)},
         {"hercules_router_dominates_rr", bench::jsonBool(ok)}},
        arms);
    return ok ? 0 : 1;
}
