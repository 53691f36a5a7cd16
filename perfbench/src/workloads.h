/**
 * @file
 * The benchmark's workloads and the specs it generates for them. Each
 * workload starts from a shipped scenario file; the workload
 * seed offsets every serving seed in it, and every cache and telemetry path
 * points into the run's own temp directory, so runs are hermetic.
 */
#pragma once

#include <cstdint>
#include <string>

#include "scenario/scenario.h"

namespace perfbench {

/** The workloads (README.md gives the reason for each). */
enum class Workload {
    PhaseShift24h,
    CrashJsqTelemetry,
    ProfileCold,
};

/** @return true and sets *w when `name` names a workload. */
bool parseWorkload(const std::string& name, Workload* w);

/** @return the workload's name as given to --workload. */
const char* workloadName(Workload w);

/** @return true when the timed call is scenario::run (not profiling). */
bool isServing(Workload w);

/** Inputs of spec generation. */
struct GenOptions
{
    std::string scenario_dir;    ///< holds the shipped *.scn files
    std::string tmp_dir;         ///< the run's own cache/telemetry dir
    uint64_t seed = 0;           ///< added to every serving seed
    double horizon_hours = 0.0;  ///< > 0 replaces the file's horizon
};

/**
 * Generate the workload's spec. Exits with a message when the
 * scenario file is missing or does not parse.
 */
hercules::scenario::ScenarioSpec generateSpec(Workload w,
                                              const GenOptions& opt);

/**
 * Delete the spec's efficiency-table cache and EvalEngine memo spill,
 * so the next profile of it starts cold.
 */
void clearCaches(const hercules::scenario::ScenarioSpec& spec);

}  // namespace perfbench
