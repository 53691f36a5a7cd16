/**
 * @file
 * Deterministic metrics registry: counters, gauges, and fixed
 * log-bucket histograms keyed by stable dotted names
 * ("shard.3.queue_depth", "svc.0.queue_wait_ms", ...).
 *
 * Counters and gauges are sampled at interval boundaries into aligned
 * time series (one value per sample() call); histograms accumulate over
 * the whole run. Everything is stored and exported in registration
 * order — no unordered containers anywhere — so two identical runs emit
 * byte-identical files.
 *
 * Exporters: Prometheus-style text ("# TYPE name kind" + samples, with
 * histograms expanded into _bucket{le=...}/_sum/_count), a long-form
 * CSV of the time series, and a JSON dump. writeFile() picks the format
 * from the extension (.csv / .json / anything else = Prometheus text).
 *
 * Thread-safety: every method is internally synchronized on one
 * registry mutex (annotated, so Clang's -Werror=thread-safety checks
 * the discipline), so callers need no external locking. The
 * reference-returning read accessors (series(), bucketCounts(),
 * sampleTimes(), name()) hand out views into guarded storage: they are
 * for the post-run, single-threaded export/analysis phase, not for use
 * while writers are live.
 */
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "util/thread_annotations.h"

namespace hercules::obs {

enum class MetricKind { Counter, Gauge, Histogram };

/** @return "counter" / "gauge" / "histogram". */
const char* metricKindName(MetricKind kind);

class MetricsRegistry
{
  public:
    /**
     * Register a metric (idempotent: an existing name returns its id;
     * re-declaring under a different kind panics). Returns a dense id
     * for the O(1) update calls below.
     */
    int declareMetric(MetricKind kind, const std::string& name)
        EXCLUDES(mu_);

    /** Convenience wrappers. */
    int counter(const std::string& name) EXCLUDES(mu_);
    int gauge(const std::string& name) EXCLUDES(mu_);
    int histogram(const std::string& name) EXCLUDES(mu_);

    /**
     * Gauge: overwrite the current value. Counter: take a running
     * total kept elsewhere (panics if it would decrease).
     */
    void set(int id, double value) EXCLUDES(mu_);

    /** Histogram: record one observation. */
    void observe(int id, double value) EXCLUDES(mu_);

    /**
     * Histogram: record `value(r)` for every r in [first, last), in
     * order (the float sum depends on it), under one lock.
     */
    template <typename Record, typename Fn>
    void observeEach(int id, const Record* first, const Record* last,
                     Fn value) EXCLUDES(mu_)
    {
        util::MutexLock lock(mu_);
        Metric& m = histogramAt(id);
        for (; first != last; ++first)
            record(m, value(*first));
    }

    /** Current value of a counter or gauge. */
    double value(int id) const EXCLUDES(mu_);

    /**
     * Snapshot every counter and gauge into its time series, stamped
     * `t_s` (simulated seconds). Call once per interval boundary. A
     * `partial` sample (a window shorter than an interval, such as a
     * drain tail) is recorded in every series, but each gauge's current
     * value stays its previous full sample.
     */
    void sample(double t_s, bool partial = false) EXCLUDES(mu_);

    size_t
    numMetrics() const EXCLUDES(mu_)
    {
        util::MutexLock lock(mu_);
        return metrics_.size();
    }

    size_t
    numSamples() const EXCLUDES(mu_)
    {
        util::MutexLock lock(mu_);
        return sample_times_.size();
    }

    /** Sample timestamps (post-run read phase; see file comment). */
    const std::vector<double>&
    sampleTimes() const EXCLUDES(mu_)
    {
        util::MutexLock lock(mu_);
        return sample_times_;
    }

    const std::string& name(int id) const EXCLUDES(mu_);
    MetricKind kind(int id) const EXCLUDES(mu_);
    /** Sampled series of a counter/gauge (aligned with sampleTimes()). */
    const std::vector<double>& series(int id) const EXCLUDES(mu_);
    /** Histogram per-bucket counts (aligned with bucketBounds()). */
    const std::vector<uint64_t>& bucketCounts(int id) const
        EXCLUDES(mu_);
    uint64_t histogramCount(int id) const EXCLUDES(mu_);
    double histogramSum(int id) const EXCLUDES(mu_);

    /**
     * The shared upper bucket bounds: 0.01 doubling up to ~1.3e5, with
     * an implicit +Inf bucket at the end of every histogram.
     */
    static const std::vector<double>& bucketBounds();

    /**
     * Write to `path`, format chosen by extension (.csv, .json, else
     * Prometheus text). @return false when the file cannot be opened
     * or written.
     */
    bool writeFile(const std::string& path) const EXCLUDES(mu_);

  private:
    struct Metric
    {
        std::string name;
        MetricKind kind = MetricKind::Counter;
        double value = 0.0;             ///< counter/gauge current value
        std::vector<double> series;     ///< one entry per sample()
        std::vector<uint64_t> buckets;  ///< histogram only
        uint64_t count = 0;             ///< histogram observations
        double sum = 0.0;               ///< histogram sum
        double min = 0.0;               ///< histogram min (count > 0)
        double max = 0.0;               ///< histogram max (count > 0)
    };

    const Metric& at(int id) const REQUIRES(mu_);
    Metric& at(int id) REQUIRES(mu_);
    /** at(id), panicking unless it is a histogram. */
    Metric& histogramAt(int id) REQUIRES(mu_);
    /** Add one observation to histogram `m`. */
    static void record(Metric& m, double value);

    /** The exporters, one per format (writeFile holds mu_). */
    void writePrometheus(std::FILE* f) const REQUIRES(mu_);
    void writeCsv(std::FILE* f) const REQUIRES(mu_);
    void writeJson(std::FILE* f) const REQUIRES(mu_);

    mutable util::Mutex mu_;
    std::vector<Metric> metrics_ GUARDED_BY(mu_);  ///< registration order
    std::map<std::string, int> index_ GUARDED_BY(mu_);  ///< name -> id
    std::vector<double> sample_times_ GUARDED_BY(mu_);
};

}  // namespace hercules::obs
