/**
 * @file
 * Fault recovery: the shard_crash_recovery scenario (both T3 servers
 * and the T7 crash at hour 8.25 — mid-interval, at the high-priority
 * service's peak — killing their in-flight queries; the T7 is
 * repaired at hour 9, the T3s at 10.25) replayed three ways:
 *
 *  - HEALTHY:  the same spec with the faults stripped — the reference
 *    trajectory the recovered system is measured against;
 *  - SELFHEAL: the shipped spec — deadline admission, priority
 *    shedding, latency-feedback routing, and the self-healing serving
 *    loop (each interval the provisioner sees only surviving capacity
 *    and activates replacement T3/T7 slots under the power budget);
 *  - STATIC:   the same faults ridden out the traditional way — a
 *    static tuple-weighted router and a fleet over-provisioned by an
 *    extra 50 points of R at all times, no feedback.
 *
 * The gate: after the crash, SELFHEAL's high-priority service must
 * return to the HEALTHY arm's per-interval violation rate (plus a
 * small tolerance) within kRecoveryIntervals re-provisioning
 * intervals, at a lower average provisioned power than STATIC. Killed
 * in-flight queries count as SLA violations in every arm, so the
 * crash itself is never free — the win must come from how fast the
 * serving loop rebuilds capacity, not from accounting.
 *
 * All three arms replay bitwise-identical merged traces (same specs
 * and seeds; faults only change shard health). Results land in
 * BENCH_faults.json, one result object per arm.
 *
 * Fast mode (HERCULES_BENCH_FAST=1): 12h horizon, 960x compression,
 * reduced profiling probes.
 */
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"

using namespace hercules;

namespace {

/** Intervals the self-healing loop gets to win back the SLA. */
constexpr int kRecoveryIntervals = 4;
/** Violation-rate slack over the healthy arm that counts as healed. */
constexpr double kRecoveryTol = 0.02;
/** Extra over-provision rate the STATIC arm burns at all times. */
constexpr double kStaticExtraR = 0.5;

/** @return service `svc`'s violation rate in interval `i` of a run. */
double
violRate(const scenario::ScenarioResult& r, size_t i, size_t svc)
{
    return r.serve.sim.intervals[i].services[svc].sla_violation_rate;
}

/**
 * Intervals (from the crash interval on) until the arm's service is
 * back at the healthy arm's per-interval violation rate + tolerance.
 * @return -1 when it never recovers inside the horizon.
 */
int
recoveryIntervals(const scenario::ScenarioResult& arm,
                  const scenario::ScenarioResult& healthy, size_t svc,
                  size_t crash_iv)
{
    for (size_t i = crash_iv; i < arm.serve.sim.intervals.size(); ++i)
        if (violRate(arm, i, svc) <=
            violRate(healthy, i, svc) + kRecoveryTol)
            return static_cast<int>(i - crash_iv);
    return -1;
}

}  // namespace

int
main()
{
    bench::banner("Fault recovery",
                  "Shard crashes vs the self-healing serving loop vs "
                  "static over-provisioning");

    scenario::ScenarioSpec spec =
        bench::loadScenario("shard_crash_recovery.scn");
    if (bench::fastMode()) {
        // Fast-mode deltas, identical per arm: a shorter day.
        spec.serve.horizon_hours = 12.0;
        spec.serve.trace.time_compression = 960.0;
        spec.profile.table_cache =
            "hercules_efficiency_multiservice_fast.csv";
    }
    bench::applyBenchProfile(spec);

    core::EfficiencyTable table = scenario::profileTable(spec);
    scenario::resolvePeaks(spec, table);
    if (!bench::servicesFeasible(spec))
        return 1;

    // Shared over-provision rate; the STATIC arm burns an extra
    // kStaticExtraR on top at every interval — crash or no crash.
    const double r_shared = bench::headroomOverprovisionRate(spec);
    spec.serve.overprovision_rate = r_shared;

    std::vector<bench::Arm> arms = {{"healthy", spec, {}},
                                    {"selfheal", spec, {}},
                                    {"static", spec, {}}};
    arms[0].spec.serve.faults = fault::FaultSpec{};
    arms[2].spec.serve.router = sim::RouterPolicy::HerculesWeighted;
    arms[2].spec.serve.overprovision_rate = r_shared + kStaticExtraR;

    // The crash instant drives the recovery clock.
    double crash_hour = -1.0, repair_hour = -1.0;
    for (const fault::FaultEvent& e : spec.serve.faults.events) {
        if (e.state == fault::HealthState::Failed &&
            (crash_hour < 0.0 || e.t_hours < crash_hour))
            crash_hour = e.t_hours;
        if (e.state == fault::HealthState::Healthy &&
            (repair_hour < 0.0 || e.t_hours < repair_hour))
            repair_hour = e.t_hours;
    }
    const size_t crash_iv =
        static_cast<size_t>(crash_hour / spec.serve.interval_hours);

    std::printf("horizon %.0fh, crash at %.1fh (repair %.1fh), R "
                "%.1f%% (static arm %.1f%%), recovery budget %d "
                "intervals\n\n",
                spec.serve.horizon_hours, crash_hour, repair_hour,
                r_shared * 100.0, (r_shared + kStaticExtraR) * 100.0,
                kRecoveryIntervals);

    bench::runArms(arms, table);
    bench::printArms(arms);
    const scenario::ScenarioResult& healthy = arms[0].result;
    const scenario::ScenarioResult& selfheal = arms[1].result;
    const scenario::ScenarioResult& static_op = arms[2].result;

    // The high-priority service's trajectory through the outage.
    TablePrinter t({"Hour", "Healthy viol", "Selfheal viol",
                    "Static viol", "Selfheal kW", "Static kW"});
    const size_t lo = crash_iv >= 2 ? crash_iv - 2 : 0;
    const size_t hi = std::min(
        selfheal.serve.sim.intervals.size(),
        crash_iv + 2 * static_cast<size_t>(kRecoveryIntervals) + 2);
    for (size_t i = lo; i < hi; ++i) {
        auto kw = [i](const scenario::ScenarioResult& r) {
            return fmtDouble(
                r.serve.sim.intervals[i].provisioned_power_w / 1e3, 3);
        };
        t.addRow({fmtDouble(static_cast<double>(i) *
                                spec.serve.interval_hours,
                            1),
                  fmtPercent(violRate(healthy, i, 0), 1),
                  fmtPercent(violRate(selfheal, i, 0), 1),
                  fmtPercent(violRate(static_op, i, 0), 1),
                  kw(selfheal), kw(static_op)});
    }
    std::printf("\n");
    t.print();

    // ---- the recovery gate --------------------------------------------
    const int rec_selfheal =
        recoveryIntervals(selfheal, healthy, 0, crash_iv);
    const int rec_static =
        recoveryIntervals(static_op, healthy, 0, crash_iv);
    const bool recovery_ok =
        rec_selfheal >= 0 && rec_selfheal <= kRecoveryIntervals;
    const double selfheal_w = selfheal.serve.sim.avg_provisioned_power_w;
    const double static_w = static_op.serve.sim.avg_provisioned_power_w;
    const bool power_ok = selfheal_w <= static_w + 1e-6;
    const bool ok = recovery_ok && power_ok;

    std::printf("\nself-healing recovery, high-priority %s: %s "
                "(recovered in %d intervals, budget %d; static arm "
                "%d)\n",
                model::modelName(spec.services[0].spec.model),
                recovery_ok ? "PASS" : "FAIL", rec_selfheal,
                kRecoveryIntervals, rec_static);
    std::printf("steady-state power, selfheal vs static: %s (%.3f vs "
                "%.3f kW provisioned)\n",
                power_ok ? "PASS" : "FAIL", selfheal_w / 1e3,
                static_w / 1e3);

    bench::writeArmsJson(
        "BENCH_faults.json",
        {{"crash_hour", fmtDouble(crash_hour, 2)},
         {"repair_hour", fmtDouble(repair_hour, 2)},
         {"overprovision_rate", fmtDouble(r_shared, 4)},
         {"static_overprovision_rate",
          fmtDouble(r_shared + kStaticExtraR, 4)},
         {"recovery_budget_intervals",
          std::to_string(kRecoveryIntervals)},
         {"recovery_intervals_selfheal", std::to_string(rec_selfheal)},
         {"recovery_intervals_static", std::to_string(rec_static)},
         {"recovery_ok", bench::jsonBool(recovery_ok)},
         {"power_ok", bench::jsonBool(power_ok)},
         {"selfheal_beats_static", bench::jsonBool(ok)}},
        arms);
    return ok ? 0 : 1;
}
