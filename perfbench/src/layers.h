/**
 * @file
 * The traced paths: the steps of scenario::profileTable and
 * scenario::run, replayed from outside through the public functions
 * of core, workload, cluster and obs, with each layer timed around
 * its call and the counters those calls return kept. The results must
 * be bit-identical to the untraced entry points; the benchmark checks
 * that by digest.
 */
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "scenario/scenario.h"

namespace perfbench {

/** Milliseconds on the monotonic clock (arbitrary epoch). */
inline double
nowMs()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** What one traced profile measured of the core layer. */
struct ProfileLayers
{
    double profile_ms = 0.0;  ///< core::offlineProfile wall time
    uint64_t eval_hits = 0;
    uint64_t eval_misses = 0;
    uint64_t simulations = 0;
    double measure_wall_ms = 0.0;  ///< summed over pool threads
    int pool_threads = 0;
};

/** scenario::profileTable(spec), with the EvalEngine's counters. */
hercules::core::EfficiencyTable tracedProfileTable(
    const hercules::scenario::ScenarioSpec& spec, ProfileLayers* out);

/** What one traced serving run measured of each layer. */
struct ServeLayers
{
    double tracegen_ms = 0.0;  ///< a separate generateMultiServiceTrace
    uint64_t queries = 0;      ///< arrivals that call generated
    std::vector<uint64_t> service_queries;  ///< the same, per service
    double provision_ms = 0.0;  ///< inside the DES route phase
    uint64_t provision_calls = 0;
    double serve_ms = 0.0;  ///< the whole cluster::serveTraces call
    double export_ms = 0.0;  ///< Telemetry trace + metrics export
    uint64_t trace_records = 0;
    bool exported = true;  ///< both exports reported success
};

/**
 * scenario::run(spec, &table)'s serving path, with each layer timed.
 * @param run_ms out: wall time of the replayed run, without the
 *               separate trace-generation probe.
 */
hercules::cluster::MultiServeResult tracedRun(
    const hercules::scenario::ScenarioSpec& spec,
    const hercules::core::EfficiencyTable& table, ServeLayers* out,
    double* run_ms);

}  // namespace perfbench
