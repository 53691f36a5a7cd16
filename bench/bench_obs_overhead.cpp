/**
 * @file
 * Telemetry overhead: the three_service_phase_shift 24h replay run
 * three ways over one shared efficiency table —
 *
 *  - OFF:     observability disabled (the baseline every other bench
 *             and test runs at);
 *  - METRICS: metrics registry sampling + export, no per-query trace;
 *  - TRACE:   full per-query tracing (sample rate 1.0) + metrics.
 *
 * The three arms run interleaved for kRounds rounds, so machine noise
 * lands on every arm alike. Two gates:
 *
 *  1. Determinism — every arm of every round must report bit-identical
 *     simulated statistics (completed/dropped/rejected/killed counts,
 *     p99, violation rate, power, DES events). Telemetry observes the
 *     DES; it must never perturb it. Any mismatch exits non-zero.
 *  2. Overhead — the TRACE arm's median serve wall time must stay
 *     within kMaxTraceOverhead of OFF's median. Skipped when the
 *     baseline runs too fast for a stable ratio (kMinGateWallMs).
 *
 * Results land in BENCH_obs.json, one result object per arm and
 * round, written before the exit status is decided. Fast mode
 * (HERCULES_BENCH_FAST=1): 6h horizon, reduced profiling probes.
 */
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"

using namespace hercules;

namespace {

/** TRACE wall budget as a multiple of the OFF arm's wall time. */
constexpr double kMaxTraceOverhead = 1.15;
/** Below this OFF wall time the overhead ratio is noise: skip gate. */
constexpr double kMinGateWallMs = 200.0;
/** Interleaved off/metrics/trace rounds the wall gate takes medians of. */
constexpr int kRounds = 3;

/** Count newline-terminated records of a JSONL file; 0 when absent. */
size_t
countLines(const std::string& path)
{
    FILE* f = std::fopen(path.c_str(), "r");
    if (f == nullptr)
        return 0;
    size_t n = 0;
    int c;
    while ((c = std::fgetc(f)) != EOF)
        if (c == '\n')
            ++n;
    std::fclose(f);
    return n;
}

/** @return mismatch description, empty when the arms agree exactly. */
std::string
compareArms(const bench::Arm& x, const bench::Arm& y)
{
    const sim::ClusterSimResult& a = x.result.serve.sim;
    const sim::ClusterSimResult& b = y.result.serve.sim;
    const char* what = nullptr;
    if (a.completed != b.completed)
        what = "completed";
    else if (a.dropped != b.dropped)
        what = "dropped";
    else if (a.rejected != b.rejected)
        what = "rejected";
    else if (a.failed_inflight != b.failed_inflight)
        what = "failed_inflight";
    else if (a.sla_violations != b.sla_violations)
        what = "sla_violations";
    else if (a.p99_ms != b.p99_ms)
        what = "p99_ms";
    else if (a.sla_violation_rate != b.sla_violation_rate)
        what = "sla_violation_rate";
    else if (a.avg_provisioned_power_w != b.avg_provisioned_power_w)
        what = "avg_provisioned_power_w";
    else if (a.avg_consumed_power_w != b.avg_consumed_power_w)
        what = "avg_consumed_power_w";
    else if (a.des.events_executed != b.des.events_executed)
        what = "des_events_executed";
    if (what == nullptr)
        return "";
    return std::string(what) + " differs between " + x.name + " and " +
           y.name;
}

/** @return the median serve wall time of the arms named `kind`/N. */
double
medianWallMs(const std::vector<bench::Arm>& arms, const std::string& kind)
{
    std::vector<double> walls;
    for (const bench::Arm& a : arms)
        if (a.name.rfind(kind + "/", 0) == 0)
            walls.push_back(a.result.serve_wall_ms);
    std::sort(walls.begin(), walls.end());
    return walls[walls.size() / 2];
}

}  // namespace

int
main()
{
    bench::banner("Telemetry overhead",
                  "three_service_phase_shift replayed off / "
                  "metrics-only / full-tracing over one shared table");

    scenario::ScenarioSpec base =
        bench::loadScenario("three_service_phase_shift.scn");
    if (bench::fastMode()) {
        base.serve.horizon_hours = 6.0;
        base.profile.table_cache = "hercules_efficiency_obs_fast.csv";
    }
    bench::applyBenchProfile(base);

    core::EfficiencyTable table = scenario::profileTable(base);

    scenario::ScenarioSpec metrics = base;
    metrics.observability.metrics_file = "obs_overhead_metrics.csv";

    scenario::ScenarioSpec trace = metrics;
    trace.observability.trace_file = "obs_overhead_trace.jsonl";
    trace.observability.sample_rate = 1.0;

    std::vector<bench::Arm> arms;
    for (int round = 1; round <= kRounds; ++round) {
        const std::string n = "/" + std::to_string(round);
        arms.push_back({"off" + n, base, {}});
        arms.push_back({"metrics" + n, metrics, {}});
        arms.push_back({"trace" + n, trace, {}});
    }
    bench::runArms(arms, table);
    bench::printArms(arms);
    const size_t trace_records = countLines(trace.observability.trace_file);
    std::printf("trace records per traced run: %zu\n", trace_records);

    // Gate 1: telemetry must not perturb the simulation, in any round.
    std::string diff;
    for (size_t i = 1; i < arms.size() && diff.empty(); ++i)
        diff = compareArms(arms[0], arms[i]);
    const bool identical = diff.empty();
    if (identical)
        std::printf("\nall arms bit-identical on simulated statistics\n");
    else
        std::fprintf(stderr,
                     "FAIL: telemetry perturbed the simulation: %s\n",
                     diff.c_str());

    // Gate 2: full tracing stays cheap. The ratio is only meaningful
    // once the baseline wall time dominates timer noise.
    const double off_wall = medianWallMs(arms, "off");
    const double metrics_wall = medianWallMs(arms, "metrics");
    const double trace_wall = medianWallMs(arms, "trace");
    const double overhead =
        off_wall > 0.0 ? trace_wall / off_wall - 1.0 : 0.0;
    const bool gated = off_wall >= kMinGateWallMs;
    const bool overhead_ok =
        !gated || trace_wall <= off_wall * kMaxTraceOverhead;
    if (!gated)
        std::printf("median baseline wall %.1f ms < %.0f ms: overhead "
                    "gate skipped (ratio would be timer noise)\n",
                    off_wall, kMinGateWallMs);
    else if (overhead_ok)
        std::printf("tracing overhead %.1f%% on medians of %d rounds "
                    "(budget %.0f%%)\n",
                    overhead * 100.0, kRounds,
                    (kMaxTraceOverhead - 1.0) * 100.0);
    else
        std::fprintf(stderr,
                     "FAIL: tracing overhead %.1f%% exceeds %.0f%% "
                     "budget (median off %.1f ms, trace %.1f ms)\n",
                     overhead * 100.0, (kMaxTraceOverhead - 1.0) * 100.0,
                     off_wall, trace_wall);

    bench::writeArmsJson(
        "BENCH_obs.json",
        {{"rounds", std::to_string(kRounds)},
         {"bit_identical", bench::jsonBool(identical)},
         {"trace_records", std::to_string(trace_records)},
         {"median_serve_wall_ms_off", fmtDouble(off_wall, 1)},
         {"median_serve_wall_ms_metrics", fmtDouble(metrics_wall, 1)},
         {"median_serve_wall_ms_trace", fmtDouble(trace_wall, 1)},
         {"overhead_gated", bench::jsonBool(gated)},
         {"trace_overhead_frac", fmtDouble(overhead, 4)},
         {"overhead_ok", bench::jsonBool(overhead_ok)}},
        arms);
    return identical && overhead_ok ? 0 : 1;
}
