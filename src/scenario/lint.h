/**
 * @file
 * Static semantic analysis of scenario specs: scenario::lint() walks a
 * parsed ScenarioSpec — *without simulating anything* — and reports
 * every configuration that either cannot run at all or silently cannot
 * do what it says (a power cap no server fits under, a fault process
 * that keeps the fleet dead, a feedback router with nothing to choose
 * between).
 *
 * Every diagnostic carries a stable code: E1xx are errors (the spec
 * cannot run, or the run is provably meaningless, such as an all-dark
 * replay; scenario::run() refuses both) and W2xx are warnings
 * (the spec runs, but a knob is dead or the configuration is
 * degenerate). Codes are append-only across PRs: tooling (CI's
 * scenario-lint step, tests/test_lint.cc) pins them.
 *
 * The checks needing an efficiency table (QPS -> watts, per-type
 * feasibility) run only when one is passed in; linting stays cheap and
 * simulation-free either way — a table is only ever *read*, typically
 * from a CSV cache.
 *
 * Three surfaces consume this pass:
 *  - `online_serving_sim --lint FILE` (exit 1 on errors, 0 otherwise,
 *    all diagnostics printed);
 *  - the gate of scenario::run() and scenario::profileTable(): any
 *    table-free error fatals before profiling, naming every code;
 *  - CI lints every shipped .scn in scenarios/ expecting zero
 *    diagnostics (pinned by tests/test_lint.cc too).
 */
#pragma once

#include <string>
#include <vector>

#include "core/efficiency_table.h"
#include "scenario/scenario.h"

namespace hercules::scenario {

/** Diagnostic severity. */
enum class Severity {
    /** The spec cannot run, or the run is provably meaningless. */
    Error,
    /** The spec runs, but part of it is dead or degenerate. */
    Warning,
};

/** @return display name ("error", "warning"). */
const char* severityName(Severity s);

/** One finding of the lint pass. */
struct Diagnostic
{
    /**
     * Stable code, "E1xx" for errors / "W2xx" for warnings (table in
     * src/scenario/README.md). Append-only: codes never change meaning
     * or get reused.
     */
    std::string code;
    Severity severity = Severity::Error;
    /** Human-readable explanation, including the offending values. */
    std::string message;
    /**
     * Spec path that triggered the finding, e.g. "services[1].sla_ms"
     * or "power_cap_schedule[0].cap_w". Empty for whole-spec findings.
     */
    std::string path;
};

/** "E106 error at power_cap_w: ..." — the --lint output line. */
std::string formatDiagnostic(const Diagnostic& d);

/**
 * Statically analyze `spec`. Diagnostics are reported in a
 * deterministic order (check order, then spec order); a clean spec
 * returns an empty vector.
 *
 * With `table` null only the table-free checks run; passing the
 * efficiency table the spec would serve from additionally enables the
 * hardware-feasibility checks (E130, E131, W209). lint() never simulates:
 * tables come from ScenarioSpec::profile.table_cache or a prior run.
 *
 * Table-free errors are the only semantic gate of scenario::run():
 * it refuses a spec exactly when lint(spec) reports an E1xx, so a
 * lint-clean spec never fatals there for structural reasons (pinned by
 * tests/test_lint.cc:RunDiesNamingEveryErrorCase).
 */
std::vector<Diagnostic> lint(const ScenarioSpec& spec,
                             const core::EfficiencyTable* table = nullptr);

/** @return true when `ds` contains at least one error. */
bool hasErrors(const std::vector<Diagnostic>& ds);

}  // namespace hercules::scenario
