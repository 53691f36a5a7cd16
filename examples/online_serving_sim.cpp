/**
 * @file
 * Online serving simulation front door: a declarative scenario file
 * (a .scn file, grammar in src/scenario/README.md; the shipped library
 * is in scenarios/) is the whole experiment — the heterogeneous fleet,
 * the services and their diurnal loads, the provisioner, router,
 * admission control, power caps and faults. The file is run end to
 * end through scenario::run(): a
 * timestamped arrival trace flows through simulated server shards
 * behind a query router while the cluster is re-provisioned every
 * interval, and the run reports real tail latency, SLA violations and
 * power per service. The result is written to BENCH_scenario.json.
 *
 * Usage: online_serving_sim --scenario FILE [--trace-out F]
 *                           [--metrics-out F]
 *        online_serving_sim --lint FILE
 *
 *  - --scenario FILE: run the file end to end;
 *  - --trace-out F / --metrics-out F: with --scenario, write sampled
 *    per-query spans (JSONL) / the metrics registry to F, overriding
 *    the spec's observability block;
 *  - --lint FILE: statically analyze the file without running it
 *    (stable E1xx/W2xx codes), exit 1 on any error.
 *
 * Unknown or malformed flags are named on stderr and exit non-zero.
 */
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "fault/fault.h"
#include "qos/qos.h"
#include "scenario/lint.h"
#include "scenario/scenario.h"
#include "scenario/spec_io.h"
#include "util/table.h"

using namespace hercules;

namespace {

struct Args
{
    std::string scenario_file;  ///< --scenario: run this spec file
    std::string lint_file;      ///< --lint: statically analyze a spec
    std::string trace_out;      ///< --trace-out: per-query JSONL spans
    std::string metrics_out;    ///< --metrics-out: metrics export
};

void
usage(const char* argv0)
{
    std::fprintf(
        stderr,
        "usage: %s --scenario F [--trace-out F] [--metrics-out F]\n"
        "       %s --lint F\n"
        "  --scenario F    run scenario file F end to end (writes\n"
        "                  BENCH_scenario.json); the file is the whole\n"
        "                  experiment, see scenarios/*.scn\n"
        "  --trace-out F   with --scenario: write sampled per-query\n"
        "                  spans as JSONL to F (overrides the spec's\n"
        "                  observability.trace_file)\n"
        "  --metrics-out F with --scenario: write the metrics registry\n"
        "                  to F — .csv / .json by extension, else\n"
        "                  Prometheus-style text (overrides the\n"
        "                  spec's observability.metrics_file)\n"
        "  --lint F        statically analyze scenario file F without\n"
        "                  running it: print every diagnostic (stable\n"
        "                  E1xx/W2xx codes, src/scenario/README.md)\n"
        "                  and exit 1 when any error is found; the\n"
        "                  spec's table_cache, when present on disk,\n"
        "                  enables the hardware-feasibility checks\n"
        "tip: scenarios/single_service.scn finishes in seconds.\n",
        argv0, argv0);
}

bool
parseArgs(int argc, char** argv, Args& out)
{
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        std::string* file = a == "--scenario"      ? &out.scenario_file
                            : a == "--lint"        ? &out.lint_file
                            : a == "--trace-out"   ? &out.trace_out
                            : a == "--metrics-out" ? &out.metrics_out
                                                   : nullptr;
        if (file == nullptr || i + 1 >= argc) {
            std::fprintf(stderr, "error: %s '%s'\n",
                         file == nullptr ? "unknown flag"
                                         : "missing file after",
                         a.c_str());
            return false;
        }
        *file = argv[++i];
    }
    if (out.scenario_file.empty() && out.lint_file.empty()) {
        std::fprintf(stderr, "error: nothing to do: pass --scenario or "
                             "--lint\n");
        return false;
    }
    return true;
}

/**
 * The per-service QoS accounting lines every run prints: admitted vs
 * rejected (admission control) vs dropped (no capacity), and the
 * violation count behind the rate.
 */
void
printQosLines(const std::vector<sim::ServiceRunStats>& services,
              const scenario::ScenarioSpec& spec)
{
    for (size_t s = 0; s < services.size(); ++s) {
        const sim::ServiceRunStats& svc = services[s];
        size_t offered = svc.injected + svc.dropped + svc.rejected;
        std::printf("  qos %-12s admitted %zu/%zu, rejected %zu, "
                    "dropped %zu, violations %zu (%.2f%%)\n",
                    spec.services[s].name.c_str(), svc.injected,
                    offered, svc.rejected, svc.dropped,
                    svc.sla_violations,
                    svc.sla_violation_rate * 100.0);
    }
}

/** Run one spec end to end, print the report, write the JSON. */
int
runSpec(const scenario::ScenarioSpec& spec)
{
    const size_t S = spec.services.size();
    std::printf("scenario '%s': fleet", spec.name.c_str());
    for (const scenario::FleetEntry& e : spec.fleet)
        std::printf(" %s x%d", hw::serverTypeName(e.type),
                    e.shard_slots);
    std::printf(", %zu service%s, router %s, admission %s, "
                "provisioner %s\n",
                S, S == 1 ? "" : "s",
                sim::routerPolicyName(spec.serve.router),
                qos::admissionPolicyName(spec.serve.admission.policy),
                scenario::provisionerKindName(spec.provisioner));

    std::printf("profiling the fleet and serving...\n");
    scenario::ScenarioResult r = scenario::run(spec);
    std::printf("profile %.1f ms, serve %.1f ms\n\n",
                r.profile_wall_ms, r.serve_wall_ms);
    const sim::ClusterSimResult& sim = r.serve.sim;
    const scenario::ScenarioSpec& rs = r.resolved;

    TablePrinter t({"Service", "Peak QPS", "SLA (ms)", "Completed",
                    "Dropped", "p50 (ms)", "p99 (ms)", "SLA viol"});
    for (size_t s = 0; s < S; ++s) {
        const sim::ServiceRunStats& svc = sim.services[s];
        t.addRow({rs.services[s].name,
                  fmtEng(rs.services[s].spec.load.peak_qps, 1),
                  fmtDouble(r.serve.service_sla_ms[s], 0),
                  std::to_string(svc.completed),
                  std::to_string(svc.dropped),
                  fmtDouble(svc.p50_ms, 2), fmtDouble(svc.p99_ms, 2),
                  fmtPercent(svc.sla_violation_rate, 2)});
    }
    t.print();
    std::printf("\n");

    if (S == 1) {
        // Single-service runs keep the per-interval trajectory view.
        TablePrinter iv_t({"Hour", "Offered QPS", "Shards", "p50 (ms)",
                           "p99 (ms)", "SLA viol", "Prov kW",
                           "Cons kW"});
        size_t stride =
            std::max<size_t>(1, sim.intervals.size() / 16);
        for (size_t i = 0; i < sim.intervals.size(); i += stride) {
            const sim::IntervalStats& iv = sim.intervals[i];
            double hour =
                static_cast<double>(i) * spec.serve.interval_hours;
            iv_t.addRow({fmtDouble(hour, 1), fmtEng(iv.offered_qps, 1),
                         std::to_string(iv.active_shards),
                         fmtDouble(iv.p50_ms, 2),
                         fmtDouble(iv.p99_ms, 2),
                         fmtPercent(iv.sla_violation_rate, 1),
                         fmtDouble(iv.provisioned_power_w / 1e3, 3),
                         fmtDouble(iv.consumed_power_w / 1e3, 3)});
        }
        iv_t.print();
        std::printf("\n");
    }
    printQosLines(sim.services, rs);

    if (!sim.health_transitions.empty()) {
        std::printf("\nfault timeline (%zu shard transitions, trace "
                    "hours):\n",
                    sim.health_transitions.size());
        for (const sim::HealthTransition& ht :
             sim.health_transitions) {
            double hour =
                ht.t_s * rs.serve.trace.time_compression / 3600.0;
            std::printf("  h %6.2f  shard %-3d (%s)  %s -> %s", hour,
                        ht.shard,
                        rs.services[static_cast<size_t>(ht.service)]
                            .name.c_str(),
                        fault::healthStateName(ht.from),
                        fault::healthStateName(ht.to));
            if (ht.to == fault::HealthState::Degraded)
                std::printf(" x%g", ht.slowdown);
            if (ht.killed_inflight > 0)
                std::printf("  (killed %zu in-flight)",
                            ht.killed_inflight);
            std::printf("\n");
        }
    }

    std::printf("\n%zu queries served end to end: p50 %.2f ms, p99 "
                "%.2f ms, max %.1f ms\n",
                sim.completed, sim.p50_ms, sim.p99_ms, sim.max_ms);
    std::printf("SLA violations: %.2f%%;  rejected: %zu (retries "
                "%zu);  dropped: %zu;  re-provisions: %d;  avg power: "
                "%.2f kW provisioned / %.2f kW consumed\n",
                sim.sla_violation_rate * 100.0, sim.rejected,
                sim.admission_retries, sim.dropped,
                r.serve.reprovisions,
                sim.avg_provisioned_power_w / 1e3,
                sim.avg_consumed_power_w / 1e3);
    if (rs.observability.tracing())
        std::printf("wrote %s (per-query trace, sample rate %g)\n",
                    rs.observability.trace_file.c_str(),
                    rs.observability.sample_rate);
    if (!rs.observability.metrics_file.empty())
        std::printf("wrote %s (metrics registry)\n",
                    rs.observability.metrics_file.c_str());
    if (scenario::writeResultJson("BENCH_scenario.json", r,
                                  bench::gitSha()))
        std::printf("wrote BENCH_scenario.json\n");
    return 0;
}

/**
 * --lint: static semantic analysis of one spec file. Never simulates;
 * the spec's table_cache (when it exists and parses) additionally
 * enables the efficiency-table checks. Exit 1 on any E1xx error (or a
 * file that does not parse), 0 otherwise — warnings are printed but
 * never block.
 */
int
lintScenarioFile(const std::string& path)
{
    std::string err;
    auto spec = scenario::loadSpecFile(path, &err);
    if (!spec.has_value()) {
        std::fprintf(stderr, "%s: parse error: %s\n", path.c_str(),
                     err.c_str());
        return 1;
    }
    std::optional<core::EfficiencyTable> table;
    if (!spec->profile.table_cache.empty() &&
        std::filesystem::exists(spec->profile.table_cache))
        table =
            core::EfficiencyTable::tryReadCsv(spec->profile.table_cache);

    std::vector<scenario::Diagnostic> ds =
        scenario::lint(*spec, table.has_value() ? &*table : nullptr);
    size_t errors = 0, warnings = 0;
    for (const scenario::Diagnostic& d : ds) {
        (d.severity == scenario::Severity::Error ? errors : warnings)++;
        std::fprintf(d.severity == scenario::Severity::Error ? stderr
                                                             : stdout,
                     "%s: %s\n", path.c_str(),
                     scenario::formatDiagnostic(d).c_str());
    }
    if (ds.empty())
        std::printf("%s: clean — 0 diagnostics (scenario '%s'%s)\n",
                    path.c_str(), spec->name.c_str(),
                    table.has_value() ? ", table-aware checks on"
                                      : "");
    else
        std::printf("%s: %zu error%s, %zu warning%s\n", path.c_str(),
                    errors, errors == 1 ? "" : "s", warnings,
                    warnings == 1 ? "" : "s");
    return errors > 0 ? 1 : 0;
}

int
runScenarioFile(const Args& args)
{
    std::string err;
    auto spec = scenario::loadSpecFile(args.scenario_file, &err);
    if (!spec.has_value()) {
        std::fprintf(stderr, "error: %s\n", err.c_str());
        return 1;
    }
    // CLI telemetry overrides beat the spec's observability block, so
    // any scenario can be traced without editing its file.
    if (!args.trace_out.empty())
        spec->observability.trace_file = args.trace_out;
    if (!args.metrics_out.empty())
        spec->observability.metrics_file = args.metrics_out;
    return runSpec(*spec);
}

}  // namespace

int
main(int argc, char** argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        usage(argv[0]);
        return 2;
    }
    if (!args.lint_file.empty())
        return lintScenarioFile(args.lint_file);
    return runScenarioFile(args);
}
