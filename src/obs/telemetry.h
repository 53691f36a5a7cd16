/**
 * @file
 * Telemetry facade: the single object the serving stack reports to.
 * Owns a MetricsRegistry and the per-query TraceRecord log.
 *
 * Telemetry keeps no accounting of its own. ClusterSim is its only
 * caller, from two places: the serial harvest loop of ClusterSim::run
 * (histogram observations, then one interval sample per boundary whose
 * counters are ClusterSim's running totals) and the end of the run
 * (the trace records ClusterSim joined from its sampled arrivals, its
 * shards' completion logs and its health log).
 *
 * Contract: every call only *observes*. No RNG draws, no event
 * scheduling, no mutation of simulated state — so a run with telemetry
 * attached produces bit-identical simulated statistics to one without.
 * ClusterSim guards each call site with a null check; a null Telemetry
 * pointer is the (default) off switch.
 *
 * Thread-safety: the trace log and the shard/service id tables are
 * guarded by one facade mutex (annotated for Clang's
 * -Werror=thread-safety); the owned MetricsRegistry synchronizes
 * itself. Lock order is Telemetry::mu_ -> MetricsRegistry::mu_ and
 * the registry never calls back, so the pair cannot deadlock. The
 * reference-returning traceRecords()/metrics() views are for the
 * post-run, single-threaded export phase.
 */
#pragma once

#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/thread_annotations.h"

namespace hercules::obs {

/**
 * The spec-level `observability` block (see src/scenario/README.md):
 * which files to emit and what fraction of queries to trace.
 */
struct ObsSpec
{
    std::string trace_file;    ///< JSONL per-query spans; "" = off
    std::string metrics_file;  ///< .txt/.prom | .csv | .json; "" = off
    double sample_rate = 1.0;  ///< fraction of queries traced, in [0, 1]

    bool enabled() const
    {
        return !trace_file.empty() || !metrics_file.empty();
    }
    bool tracing() const { return !trace_file.empty(); }
};

/** Running arrival totals of one scope (cluster or service). */
struct ArrivalTotals
{
    size_t arrivals = 0;  ///< routed: admitted + dropped + rejected
    size_t completions = 0;
    size_t dropped = 0;
    size_t rejected = 0;
};

class Telemetry
{
  public:
    explicit Telemetry(const ObsSpec& spec);

    const ObsSpec& spec() const { return spec_; }
    MetricsRegistry& metrics() { return metrics_; }
    const MetricsRegistry& metrics() const { return metrics_; }
    /** Trace log view (post-run read phase; see file comment). */
    const std::vector<TraceRecord>&
    traceRecords() const EXCLUDES(mu_)
    {
        util::MutexLock lock(mu_);
        return records_;
    }

    /** Topology declarations (called from ClusterSim setup). */
    void declareService(int svc) EXCLUDES(mu_);
    void declareShard(int shard, int svc) EXCLUDES(mu_);

    /**
     * Feed one shard's completions of one harvest into service `svc`'s
     * latency histograms, in log order (a histogram's float `_sum`
     * depends on it). `Completion` is any record with `queue_wait_s`
     * (seconds), `latencyMs()` and `serviceMs()`: sim's completion log
     * entry.
     */
    template <typename Completion>
    void observeCompletions(int svc, const Completion* first,
                            const Completion* last) EXCLUDES(mu_);

    /** Interval-boundary values, then commitSample() stamps them. */
    void setShardWindow(int shard, size_t injected, size_t queue_depth,
                        int health) EXCLUDES(mu_);
    void setServiceWindow(int svc, const ArrivalTotals& totals,
                          double p50_ms, double p99_ms,
                          double sla_violation_rate) EXCLUDES(mu_);
    void setClusterWindow(const ArrivalTotals& totals,
                          size_t failed_inflight, size_t admission_retries,
                          int active_shards, double consumed_power_w,
                          double provisioned_power_w);
    /**
     * Snapshot every counter and gauge at `t_s`. The drain-tail sample
     * stays in the series, but each gauge's run-level value remains
     * its last full-interval sample.
     */
    void commitSample(double t_s, bool drain_tail);

    /** Append a finished run's trace records (in arrival order). */
    void addTraceRecords(std::vector<TraceRecord> records) EXCLUDES(mu_);

    /**
     * Emit the configured files; no-ops when the path is empty.
     * @return false when a file cannot be opened or written.
     */
    bool writeTraceFile() const EXCLUDES(mu_);
    bool writeMetricsFile() const;

  private:
    struct ShardIds
    {
        int injected = -1;     ///< counter
        int queue_depth = -1;  ///< gauge
        int health = -1;       ///< gauge
    };
    struct ServiceIds
    {
        int arrivals = -1;
        int completions = -1;
        int dropped = -1;
        int rejected = -1;
        int p50 = -1;
        int p99 = -1;
        int viol = -1;
        int h_wait = -1;
        int h_service = -1;
        int h_latency = -1;
    };

    ShardIds& shardIds(int shard) REQUIRES(mu_);
    ServiceIds& serviceIds(int svc) REQUIRES(mu_);
    /** Copy of service `svc`'s ids (for the unlocked histogram loop). */
    ServiceIds serviceIdsOf(int svc) EXCLUDES(mu_);

    ObsSpec spec_;  ///< immutable after construction
    MetricsRegistry metrics_;  ///< internally synchronized (own mutex)
    mutable util::Mutex mu_;
    std::vector<TraceRecord> records_ GUARDED_BY(mu_);
    std::vector<ShardIds> shards_ GUARDED_BY(mu_);
    std::vector<ServiceIds> services_ GUARDED_BY(mu_);

    // Cluster-wide metric ids: set once in the constructor, immutable
    // after, so reads need no lock.
    int c_arrivals_;
    int c_completions_;
    int c_dropped_;
    int c_rejected_;
    int c_failed_inflight_;
    int c_retries_;
    int g_active_shards_;
    int g_consumed_w_;
    int g_provisioned_w_;
};

template <typename Completion>
void
Telemetry::observeCompletions(int svc, const Completion* first,
                              const Completion* last)
{
    if (first == last)
        return;
    const ServiceIds s = serviceIdsOf(svc);
    metrics_.observeEach(s.h_wait, first, last, [](const Completion& c) {
        return c.queue_wait_s * 1e3;
    });
    metrics_.observeEach(s.h_service, first, last, [](const Completion& c) {
        return c.serviceMs();
    });
    metrics_.observeEach(s.h_latency, first, last, [](const Completion& c) {
        return c.latencyMs();
    });
}

}  // namespace hercules::obs
