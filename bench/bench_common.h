/**
 * @file
 * Shared setup for the paper-reproduction bench harnesses: search and
 * measurement options sized so the full suite finishes in minutes, a
 * fast mode for smoke runs (HERCULES_BENCH_FAST=1), the cached
 * efficiency-table path that lets the cluster benches reuse the Fig 15
 * profiling results, and the one arm path of the serving benches (a
 * named list of scenario specs run over one profiled table, one
 * console table, one BENCH_*.json writer).
 */
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/eval_engine.h"
#include "sched/gradient_search.h"
#include "util/logging.h"

namespace hercules::bench {

/**
 * @return the git SHA the benches were configured from (stamped by
 * CMake at configure time; "unknown" outside a git checkout).
 */
inline const char*
gitSha()
{
#ifdef HERCULES_GIT_SHA
    return HERCULES_GIT_SHA;
#else
    return "unknown";
#endif
}

/**
 * Write the provenance preamble every emitted BENCH_*.json starts
 * with, so the perf trajectory stays attributable across PRs. Call
 * right after the opening '{'.
 */
inline void
writeJsonProvenance(FILE* f)
{
    std::fprintf(f, "  \"git_sha\": \"%s\",\n", gitSha());
    std::fprintf(f, "  \"generated_at\": \"%s\",\n",
                 isoUtcTimestamp().c_str());
}

/** @return true when HERCULES_BENCH_FAST=1 (reduced sweep sizes). */
inline bool
fastMode()
{
    const char* env = std::getenv("HERCULES_BENCH_FAST");
    return env != nullptr && env[0] == '1';
}

/** Search/measure options used by all benches. */
inline sched::SearchOptions
benchSearchOptions()
{
    sched::SearchOptions opt;
    opt.measure.sim.num_queries = fastMode() ? 250 : 400;
    opt.measure.sim.warmup_queries = fastMode() ? 50 : 80;
    opt.measure.bisect_iters = fastMode() ? 4 : 5;
    opt.measure.sim.seed = 42;
    return opt;
}

/** Path of the efficiency-table cache written by bench_fig15. */
inline std::string
efficiencyCachePath()
{
    return "hercules_efficiency_prod.csv";
}

/**
 * Build one evaluation-engine request with the bench's measurement
 * options. Grid benches collect these and fan them out with
 * EvalEngine::evaluateMany instead of measuring serially.
 */
inline core::EvalRequest
evalRequest(const hw::ServerSpec& server, const model::Model& m,
            const sched::SchedulingConfig& cfg, double sla_ms,
            const sim::MeasureOptions& mo)
{
    core::EvalRequest r;
    r.server = &server;
    r.model = &m;
    r.cfg = cfg;
    r.sla_ms = sla_ms;
    r.measure = mo;
    return r;
}

/** Print the standard bench banner. */
inline void
banner(const char* experiment, const char* what)
{
    std::printf("==============================================================\n");
    std::printf("Hercules reproduction — %s\n", experiment);
    std::printf("%s\n", what);
    std::printf("==============================================================\n\n");
}

}  // namespace hercules::bench

#include <algorithm>
#include <filesystem>
#include <optional>
#include <utility>
#include <vector>

#include "cluster/cluster_manager.h"
#include "cluster/evolution.h"
#include "core/efficiency_table.h"
#include "scenario/scenario.h"
#include "scenario/spec_io.h"
#include "util/table.h"

namespace hercules::bench {

/** The shipped scenario library (stamped by CMake). */
inline std::string
scenarioDir()
{
#ifdef HERCULES_SCENARIO_DIR
    return HERCULES_SCENARIO_DIR;
#else
    return "../scenarios";
#endif
}

/**
 * Load one shipped scenario file by name ("flash_crowd_surge.scn") —
 * the serving benches start from these specs and apply their deltas.
 * Parse failures are fatal: a bench must not silently diverge from
 * the spec it claims to run.
 */
inline scenario::ScenarioSpec
loadScenario(const std::string& file)
{
    std::string path = scenarioDir() + "/" + file;
    std::string err;
    auto spec = scenario::loadSpecFile(path, &err);
    if (!spec.has_value()) {
        std::fprintf(stderr, "bench: %s\n", err.c_str());
        std::exit(1);
    }
    return *spec;
}

/**
 * Load a cached efficiency table if the file exists and parses
 * (announcing reuse); a stale cache from an older build is announced
 * and ignored so the caller falls back to re-profiling.
 */
inline std::optional<core::EfficiencyTable>
tryLoadCachedTable(const std::string& path)
{
    if (!std::filesystem::exists(path))
        return std::nullopt;
    auto cached = core::EfficiencyTable::tryReadCsv(path);
    if (cached.has_value())
        std::printf("(reusing efficiency table from %s)\n\n",
                    path.c_str());
    else
        std::printf("(cache %s is stale: re-profiling)\n\n",
                    path.c_str());
    return cached;
}

/**
 * Scale each evolution service's peak load to a fraction of the
 * CPU-only (T1+T2) fleet capacity for its legacy model. The paper's
 * absolute 50K-QPS peaks are calibrated to its measured tuples; against
 * our simulated tuples the same fractions-of-fleet reproduce the
 * Fig 16 capacity-growth story without saturating the cluster on day
 * one. The default gives the three services together ~36% of the fleet
 * at the Day-D1 peak, leaving the headroom the paper's Day-D2 snapshot
 * consumes.
 */
inline void
scaleEvolutionServices(std::vector<cluster::EvolutionService>& services,
                       const core::EfficiencyTable& table,
                       double fleet_fraction = 0.12)
{
    for (auto& svc : services) {
        double capacity = 0.0;
        for (hw::ServerType st : {hw::ServerType::T1, hw::ServerType::T2}) {
            const core::EfficiencyEntry* e = table.get(st, svc.legacy);
            if (e && e->feasible)
                capacity += e->qps * hw::serverSpec(st).availability;
        }
        if (capacity > 0.0)
            svc.load.peak_qps = fleet_fraction * capacity;
    }
}

// ---- the serving benches' arm path ---------------------------------------

/**
 * Set a spec's profiling knobs to the bench measurement options
 * (benchSearchOptions()), so every serving bench profiles its table
 * the way the grid benches measure.
 */
inline void
applyBenchProfile(scenario::ScenarioSpec& spec)
{
    const sim::MeasureOptions mo = benchSearchOptions().measure;
    spec.profile.num_queries = mo.sim.num_queries;
    spec.profile.warmup_queries = mo.sim.warmup_queries;
    spec.profile.bisect_iters = mo.bisect_iters;
    spec.profile.seed = mo.sim.seed;
}

/**
 * The over-provision rate R the serving benches share across arms:
 * the services' max inter-interval forecast ramp plus 15% tail
 * headroom. The efficiency-tuple QPS is latency-bounded, so covering
 * exactly load * (1 + ramp) would run shards at their SLA edge. Call
 * on a spec whose peaks are resolved.
 */
inline double
headroomOverprovisionRate(const scenario::ScenarioSpec& spec)
{
    constexpr double kTailHeadroom = 0.15;
    double ramp = 0.0;
    for (const scenario::ServiceScenario& s : spec.services)
        ramp = std::max(ramp, cluster::estimateOverprovisionRate(
                                  workload::DiurnalLoad(s.spec.load),
                                  spec.serve.interval_hours,
                                  spec.serve.horizon_hours));
    return ramp + kTailHeadroom;
}

/**
 * @return true when every service of a peak-resolved spec has a
 * positive peak, i.e. capacity on the fleet; else names the first
 * infeasible service.
 */
inline bool
servicesFeasible(const scenario::ScenarioSpec& spec)
{
    for (const scenario::ServiceScenario& s : spec.services) {
        if (s.spec.load.peak_qps <= 0.0) {
            std::printf("%s infeasible on this fleet — abort\n",
                        model::modelName(s.spec.model));
            return false;
        }
    }
    return true;
}

/** One named arm of a serving bench: its spec and, once run, result. */
struct Arm
{
    std::string name;
    scenario::ScenarioSpec spec;
    scenario::ScenarioResult result;
};

/** Run every arm, in order, over one profiled table. */
inline void
runArms(std::vector<Arm>& arms, const core::EfficiencyTable& table)
{
    for (Arm& a : arms)
        a.result = scenario::run(a.spec, &table);
}

/**
 * Print the serving benches' per-arm table: per arm one aggregate row,
 * preceded by a row per service when the arm co-serves several.
 */
inline void
printArms(const std::vector<Arm>& arms)
{
    TablePrinter t({"Arm", "Service", "Completed", "Rejected", "Dropped",
                    "Killed", "p50 (ms)", "p99 (ms)", "SLA (ms)",
                    "Viol rate", "Prov kW", "Cons kW", "Reprov",
                    "Wall (ms)"});
    for (size_t i = 0; i < arms.size(); ++i) {
        const scenario::ScenarioResult& r = arms[i].result;
        const sim::ClusterSimResult& s = r.serve.sim;
        const bool multi = s.services.size() > 1;
        if (multi && i > 0)
            t.addSeparator();
        for (size_t k = 0; multi && k < s.services.size(); ++k) {
            const sim::ServiceRunStats& v = s.services[k];
            t.addRow({arms[i].name, r.resolved.services[k].name,
                      std::to_string(v.completed),
                      std::to_string(v.rejected),
                      std::to_string(v.dropped),
                      std::to_string(v.failed_inflight),
                      fmtDouble(v.p50_ms, 2), fmtDouble(v.p99_ms, 2),
                      fmtDouble(v.sla_ms, 0),
                      fmtPercent(v.sla_violation_rate, 2), "", "", "",
                      ""});
        }
        t.addRow({arms[i].name,
                  multi ? "all" : r.resolved.services[0].name,
                  std::to_string(s.completed), std::to_string(s.rejected),
                  std::to_string(s.dropped),
                  std::to_string(s.failed_inflight),
                  fmtDouble(s.p50_ms, 2), fmtDouble(s.p99_ms, 2),
                  multi ? "" : fmtDouble(s.services[0].sla_ms, 0),
                  fmtPercent(s.sla_violation_rate, 2),
                  fmtDouble(s.avg_provisioned_power_w / 1e3, 3),
                  fmtDouble(s.avg_consumed_power_w / 1e3, 3),
                  std::to_string(r.serve.reprovisions),
                  fmtDouble(r.serve_wall_ms, 0)});
    }
    t.print();
}

/** A bench's JSON header: key and preformatted JSON value, in order. */
using JsonHeader = std::vector<std::pair<std::string, std::string>>;

/** @return a JSON boolean literal. */
inline std::string
jsonBool(bool b)
{
    return b ? "true" : "false";
}

/**
 * Write a serving bench's BENCH_*.json: provenance, the bench's
 * header (the knobs it computed and its gate verdicts), then every arm
 * as {"arm": name, <scenario::writeResultFields>} under "arms".
 */
inline void
writeArmsJson(const char* path, const JsonHeader& header,
              const std::vector<Arm>& arms)
{
    FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
        std::fprintf(stderr, "bench: cannot open %s\n", path);
        return;
    }
    std::fprintf(f, "{\n");
    writeJsonProvenance(f);
    for (const auto& [key, value] : header)
        std::fprintf(f, "  \"%s\": %s,\n", key.c_str(), value.c_str());
    std::fprintf(f, "  \"arms\": [\n");
    for (size_t i = 0; i < arms.size(); ++i) {
        std::fprintf(f, "    {\n      \"arm\": \"%s\",\n",
                     arms[i].name.c_str());
        scenario::writeResultFields(f, arms[i].result, "      ");
        std::fprintf(f, "    }%s\n", i + 1 < arms.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", path);
}

}  // namespace hercules::bench
