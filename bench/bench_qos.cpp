/**
 * @file
 * QoS under overload: a 3-service co-serving replay with a deliberate
 * 1.5x over-peak flash-crowd window (unforecast surge) and an
 * aggressive global power cap. The three arms are the shipped
 * scenario specs — this bench only computes the power cap (a function
 * of the profiled table) and applies it as a delta:
 *
 *  - BASELINE: scenarios/flash_crowd_surge.scn — the pre-QoS stack:
 *    unbounded queues (admission none), priority-blind QPS/W power-cap
 *    shedding, every service provisioned to its instantaneous
 *    forecast;
 *  - QOS:      scenarios/priority_tiered_qos.scn — deadline admission
 *    control (with cross-shard retry), priority-ordered shedding (the
 *    high-priority service keeps capacity longest), and the
 *    throughput-tier low-priority service provisioned to mean demand;
 *  - QOS+FB:   scenarios/feedback_router.scn — the QoS arm with the
 *    latency-feedback router instead of the static tuple-weighted one.
 *
 * The gate: with QoS enabled, the high-priority service's
 * violation+drop+reject rate must be strictly lower than the no-QoS
 * baseline's at equal-or-lower average provisioned power. Admission
 * control cannot game this — rejected queries count as violations —
 * so the win must come from capped queues (served queries stay
 * in-SLA), shed order (the high-priority service keeps its shards),
 * and mean-provisioning the deadline-relaxed service.
 *
 * All three scenarios replay bitwise-identical merged traces (same
 * specs, seeds and surge). Results land in BENCH_qos.json, one result
 * object per arm.
 *
 * Fast mode (HERCULES_BENCH_FAST=1): 2 services on T2+T3, 18h horizon.
 */
#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "bench/bench_common.h"

using namespace hercules;

namespace {

/**
 * Fast-mode deltas, applied identically to every arm so the three
 * scenarios keep replaying the same merged trace: 2 services on a
 * 5-slot T2+T3 fleet, 18h horizon (the throughput tier's
 * mean-provisioning only saves power when the horizon contains the
 * diurnal troughs), surge at 1.5h. The arm's router/admission settings
 * — the deltas between the shipped files — are preserved.
 */
void
applyFastDeltas(scenario::ScenarioSpec& spec, bool qos_on)
{
    spec.fleet = {{hw::ServerType::T2, 3}, {hw::ServerType::T3, 2}};
    const std::vector<model::ModelId> ids = {model::ModelId::DlrmRmc2,
                                             model::ModelId::DlrmRmc1};
    spec.services.clear();
    for (size_t s = 0; s < ids.size(); ++s) {
        scenario::ServiceScenario svc;
        svc.spec.model = ids[s];
        svc.peak_qps_frac = 0.25;
        svc.spec.load.trough_frac = 0.35;
        svc.spec.load.peak_hour = 2.0 + 8.0 * static_cast<double>(s);
        svc.spec.load.seed = 5 + s;
        svc.spec.load.surge_hour = 1.5;
        svc.spec.load.surge_hours = 2.0;
        svc.spec.load.surge_factor = 1.5;
        if (qos_on) {
            svc.spec.qos.priority =
                static_cast<int>(ids.size() - 1 - s);
            svc.spec.qos.tier = s + 1 == ids.size()
                                    ? qos::Tier::Throughput
                                    : qos::Tier::Latency;
        }
        spec.services.push_back(svc);
    }
    spec.serve.horizon_hours = 18.0;
    spec.serve.trace.time_compression = 960.0;
    spec.profile.table_cache =
        "hercules_efficiency_multiservice_fast.csv";
}

/**
 * The aggressive power cap: sweep the forecast interval grid with the
 * Hercules provisioner at rate `r`, find the hungriest interval's
 * requested power, and set the cap half of that interval's cheapest
 * allocated server *below* it. Whole servers are then shed exactly
 * when the fleet is fullest — which is the surge window, since it
 * rides service 0's peak — without dipping into shed-to-empty
 * territory.
 */
double
powerCapBelowPeak(const scenario::ScenarioSpec& spec,
                  const core::EfficiencyTable& table, double r)
{
    std::vector<hw::ServerType> fleet;
    std::vector<int> slots;
    for (const scenario::FleetEntry& e : spec.fleet) {
        fleet.push_back(e.type);
        slots.push_back(e.shard_slots);
    }
    std::vector<model::ModelId> model_ids;
    std::vector<workload::DiurnalLoad> curves;
    for (const scenario::ServiceScenario& s : spec.services) {
        model_ids.push_back(s.spec.model);
        curves.emplace_back(s.spec.load);
    }
    cluster::ProvisionProblem problem =
        cluster::ProvisionProblem::fromTable(table, fleet, model_ids,
                                             slots);
    cluster::HerculesProvisioner capref;
    double peak_power = 0.0;
    double cheapest_at_peak =
        std::numeric_limits<double>::infinity();
    for (double t = 0.0; t < spec.serve.horizon_hours;
         t += spec.serve.interval_hours) {
        std::vector<double> loads_t;
        for (const workload::DiurnalLoad& c : curves)
            loads_t.push_back(c.forecastAt(t));
        cluster::Allocation alloc = capref.provision(problem, loads_t, r);
        double p = alloc.provisionedPowerW(problem);
        if (p > peak_power) {
            peak_power = p;
            cheapest_at_peak =
                std::numeric_limits<double>::infinity();
            for (int h = 0; h < problem.numServers(); ++h)
                for (int m = 0; m < problem.numModels(); ++m)
                    if (alloc.n[static_cast<size_t>(h)]
                               [static_cast<size_t>(m)] > 0)
                        cheapest_at_peak = std::min(
                            cheapest_at_peak,
                            problem.perf(h, m).power_w);
        }
    }
    return peak_power - 0.5 * cheapest_at_peak;
}

}  // namespace

int
main()
{
    bench::banner("QoS under overload",
                  "Deadline admission + priority shedding + feedback "
                  "routing vs the pre-QoS stack on a surge + power cap");

    std::vector<bench::Arm> arms = {
        {"baseline", bench::loadScenario("flash_crowd_surge.scn"), {}},
        {"qos", bench::loadScenario("priority_tiered_qos.scn"), {}},
        {"qos_feedback", bench::loadScenario("feedback_router.scn"), {}}};
    for (size_t i = 0; i < arms.size(); ++i) {
        if (bench::fastMode())
            applyFastDeltas(arms[i].spec, i > 0);
        bench::applyBenchProfile(arms[i].spec);
    }

    core::EfficiencyTable table = scenario::profileTable(arms[0].spec);
    for (bench::Arm& a : arms)
        scenario::resolvePeaks(a.spec, table);
    const scenario::ScenarioSpec& base = arms[0].spec;
    if (!bench::servicesFeasible(base))
        return 1;

    // The computed knobs are the only non-file deltas, shared by all
    // arms so the comparison isolates the QoS policies themselves.
    const double r_shared = bench::headroomOverprovisionRate(base);
    const double cap_w = powerCapBelowPeak(base, table, r_shared);
    for (bench::Arm& a : arms) {
        a.spec.serve.overprovision_rate = r_shared;
        a.spec.serve.power_cap_w = cap_w;
    }

    const workload::DiurnalConfig& load = base.services[0].spec.load;
    std::printf("horizon %.0fh, surge %.1fx in [%.1fh, %.1fh), power "
                "cap %.3f kW, R %.1f%%\n\n",
                base.serve.horizon_hours, load.surge_factor,
                load.surge_hour, load.surge_hour + load.surge_hours,
                cap_w / 1e3, r_shared * 100.0);

    bench::runArms(arms, table);
    bench::printArms(arms);

    // ---- the QoS gate --------------------------------------------------
    const sim::ClusterSimResult& b = arms[0].result.serve.sim;
    const sim::ClusterSimResult& q = arms[1].result.serve.sim;
    const sim::ClusterSimResult& fb = arms[2].result.serve.sim;
    const bool sla_ok = q.services[0].sla_violation_rate <
                        b.services[0].sla_violation_rate;
    const bool power_ok =
        q.avg_provisioned_power_w <= b.avg_provisioned_power_w + 1e-6;
    const bool ok = sla_ok && power_ok;
    std::printf("\nqos vs baseline, high-priority %s: %s "
                "(violation+drop rate %.3f%% vs %.3f%%, avg power "
                "%.3f vs %.3f kW)\n",
                model::modelName(base.services[0].spec.model),
                ok ? "WINS" : "FAIL",
                q.services[0].sla_violation_rate * 100.0,
                b.services[0].sla_violation_rate * 100.0,
                q.avg_provisioned_power_w / 1e3,
                b.avg_provisioned_power_w / 1e3);
    std::printf("router head-to-head under QoS, cluster-wide: "
                "hercules %.3f%% vs latency-feedback %.3f%% violations "
                "(p99 %.2f vs %.2f ms)\n",
                q.sla_violation_rate * 100.0,
                fb.sla_violation_rate * 100.0, q.p99_ms, fb.p99_ms);

    bench::writeArmsJson("BENCH_qos.json",
                         {{"power_cap_w", fmtDouble(cap_w, 2)},
                          {"overprovision_rate", fmtDouble(r_shared, 4)},
                          {"sla_ok", bench::jsonBool(sla_ok)},
                          {"power_ok", bench::jsonBool(power_ok)},
                          {"qos_beats_baseline", bench::jsonBool(ok)}},
                         arms);
    return ok ? 0 : 1;
}
