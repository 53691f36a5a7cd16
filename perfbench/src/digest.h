/**
 * @file
 * Correctness checks of the benchmark: a 64-bit digest of every
 * simulated statistic a run produces, and the per-service conservation
 * law. Digests hash doubles by bit pattern, so two runs agree only
 * when they are bit-identical. Wall-clock provenance (the DES
 * self-profile) is left out.
 */
#pragma once

#include <cstdint>
#include <string>

#include "cluster/serving.h"
#include "core/efficiency_table.h"

namespace perfbench {

/** @return the digest of every entry of an efficiency table. */
uint64_t digestTable(const hercules::core::EfficiencyTable& table);

/**
 * @return the digest of a serving run: the table it was built from,
 * run aggregates, per-service stats, per-interval arrays and the
 * health timeline.
 */
uint64_t digestServe(const hercules::core::EfficiencyTable& table,
                     const hercules::cluster::MultiServeResult& r);

/** @return the digest as 16 lower-case hex digits. */
std::string digestHex(uint64_t digest);

/**
 * Check that every arrival is accounted for. Per service, the queries
 * admitted to a shard (ServiceRunStats::injected) are either completed
 * or killed in flight; over the run, admitted + dropped + rejected
 * queries add up to the arrivals of the generated trace.
 * @return an empty string, or a description of the first violation.
 */
std::string checkConservation(const hercules::cluster::MultiServeResult& r);

/**
 * Check per-service conservation against the trace's own per-service
 * arrival counts: arrivals = completed + dropped + rejected + killed
 * in flight.
 * @return an empty string, or a description of the first violation.
 */
std::string checkServiceArrivals(const hercules::sim::ClusterSimResult& r,
                                 const std::vector<uint64_t>& arrivals);

/**
 * @return the simulated arrivals of a run: completed + dropped +
 * rejected + killed in flight.
 */
uint64_t simulatedArrivals(const hercules::sim::ClusterSimResult& r);

}  // namespace perfbench
