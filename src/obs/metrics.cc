#include "obs/metrics.h"

#include <cmath>
#include <cstring>

#include "util/logging.h"

namespace hercules::obs {

namespace {

/**
 * Deterministic human-friendly number formatting: integral values print
 * without a fraction, everything else with six decimals.
 */
std::string
fmtNum(double v)
{
    char buf[64];
    if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15)
        std::snprintf(buf, sizeof buf, "%.0f", v);
    else
        std::snprintf(buf, sizeof buf, "%.6f", v);
    return buf;
}

/**
 * The first bucket whose upper bound is >= `value` (NaN and values at
 * or below the first bound land in bucket 0, values above the last in
 * the +Inf bucket). Bound i is bound 0 times 2^i exactly, i.e. bound
 * 0's bit pattern plus i in the exponent field, and positive doubles
 * order like their bit patterns: so the bucket is the bit distance
 * from bound 0 in exponent steps, rounded up.
 */
size_t
bucketIndex(double value)
{
    const std::vector<double>& bounds = MetricsRegistry::bucketBounds();
    if (!(value > bounds.front()))
        return 0;
    if (value > bounds.back())
        return bounds.size();
    uint64_t v, b0;
    std::memcpy(&v, &value, sizeof v);
    std::memcpy(&b0, &bounds.front(), sizeof b0);
    constexpr uint64_t kExpStep = uint64_t{1} << 52;
    return static_cast<size_t>((v - b0 + kExpStep - 1) / kExpStep);
}

}  // namespace

const char*
metricKindName(MetricKind kind)
{
    switch (kind) {
      case MetricKind::Counter:
        return "counter";
      case MetricKind::Gauge:
        return "gauge";
      case MetricKind::Histogram:
        return "histogram";
    }
    return "?";
}

const std::vector<double>&
MetricsRegistry::bucketBounds()
{
    // 0.01 ms doubling 24 times tops out at ~1.4e5 ms (2.3 simulated
    // minutes) — generous for any latency this stack produces; the
    // implicit +Inf bucket catches the rest.
    static const std::vector<double> kBounds = [] {
        std::vector<double> b;
        double v = 0.01;
        for (int i = 0; i < 24; ++i, v *= 2.0)
            b.push_back(v);
        return b;
    }();
    return kBounds;
}

int
MetricsRegistry::declareMetric(MetricKind kind, const std::string& name)
{
    util::MutexLock lock(mu_);
    auto it = index_.find(name);
    if (it != index_.end()) {
        if (metrics_[it->second].kind != kind)
            panic("MetricsRegistry: '%s' re-declared as %s (was %s)",
                  name.c_str(), metricKindName(kind),
                  metricKindName(metrics_[it->second].kind));
        return it->second;
    }
    Metric m;
    m.name = name;
    m.kind = kind;
    if (kind == MetricKind::Histogram)
        m.buckets.assign(bucketBounds().size() + 1, 0);  // +Inf at end
    // Late declarations (e.g. a shard added mid-run) back-fill their
    // series with zeros so every series stays sample-aligned.
    m.series.assign(kind == MetricKind::Histogram ? 0 : sample_times_.size(),
                    0.0);
    int id = static_cast<int>(metrics_.size());
    metrics_.push_back(std::move(m));
    index_.emplace(name, id);
    return id;
}

int
MetricsRegistry::counter(const std::string& name)
{
    return declareMetric(MetricKind::Counter, name);
}

int
MetricsRegistry::gauge(const std::string& name)
{
    return declareMetric(MetricKind::Gauge, name);
}

int
MetricsRegistry::histogram(const std::string& name)
{
    return declareMetric(MetricKind::Histogram, name);
}

const MetricsRegistry::Metric&
MetricsRegistry::at(int id) const
{
    if (id < 0 || static_cast<size_t>(id) >= metrics_.size())
        panic("MetricsRegistry: bad metric id %d", id);
    return metrics_[id];
}

MetricsRegistry::Metric&
MetricsRegistry::at(int id)
{
    return const_cast<Metric&>(
        static_cast<const MetricsRegistry*>(this)->at(id));
}

void
MetricsRegistry::set(int id, double value)
{
    util::MutexLock lock(mu_);
    Metric& m = at(id);
    if (m.kind == MetricKind::Histogram)
        panic("MetricsRegistry: set() on histogram '%s'", m.name.c_str());
    if (m.kind == MetricKind::Counter && value < m.value)
        panic("MetricsRegistry: counter '%s' set from %f down to %f",
              m.name.c_str(), m.value, value);
    m.value = value;
}

MetricsRegistry::Metric&
MetricsRegistry::histogramAt(int id)
{
    Metric& m = at(id);
    if (m.kind != MetricKind::Histogram)
        panic("MetricsRegistry: observe() on non-histogram '%s'",
              m.name.c_str());
    return m;
}

void
MetricsRegistry::record(Metric& m, double value)
{
    ++m.buckets[bucketIndex(value)];
    if (m.count == 0) {
        m.min = value;
        m.max = value;
    } else {
        if (value < m.min)
            m.min = value;
        if (value > m.max)
            m.max = value;
    }
    ++m.count;
    m.sum += value;
}

void
MetricsRegistry::observe(int id, double value)
{
    util::MutexLock lock(mu_);
    record(histogramAt(id), value);
}

double
MetricsRegistry::value(int id) const
{
    util::MutexLock lock(mu_);
    return at(id).value;
}

void
MetricsRegistry::sample(double t_s, bool partial)
{
    util::MutexLock lock(mu_);
    sample_times_.push_back(t_s);
    for (Metric& m : metrics_) {
        if (m.kind == MetricKind::Histogram)
            continue;
        m.series.push_back(m.value);
        if (partial && m.kind == MetricKind::Gauge && m.series.size() > 1)
            m.value = m.series[m.series.size() - 2];
    }
}

const std::string&
MetricsRegistry::name(int id) const
{
    util::MutexLock lock(mu_);
    return at(id).name;
}

MetricKind
MetricsRegistry::kind(int id) const
{
    util::MutexLock lock(mu_);
    return at(id).kind;
}

const std::vector<double>&
MetricsRegistry::series(int id) const
{
    util::MutexLock lock(mu_);
    return at(id).series;
}

const std::vector<uint64_t>&
MetricsRegistry::bucketCounts(int id) const
{
    util::MutexLock lock(mu_);
    return at(id).buckets;
}

uint64_t
MetricsRegistry::histogramCount(int id) const
{
    util::MutexLock lock(mu_);
    return at(id).count;
}

double
MetricsRegistry::histogramSum(int id) const
{
    util::MutexLock lock(mu_);
    return at(id).sum;
}

void
MetricsRegistry::writePrometheus(std::FILE* f) const
{
    const std::vector<double>& bounds = bucketBounds();
    for (const Metric& m : metrics_) {
        std::fprintf(f, "# TYPE %s %s\n", m.name.c_str(),
                     metricKindName(m.kind));
        if (m.kind != MetricKind::Histogram) {
            std::fprintf(f, "%s %s\n", m.name.c_str(),
                         fmtNum(m.value).c_str());
            continue;
        }
        uint64_t cum = 0;
        for (size_t b = 0; b < m.buckets.size(); ++b) {
            cum += m.buckets[b];
            if (b < bounds.size())
                std::fprintf(f, "%s_bucket{le=\"%g\"} %llu\n",
                             m.name.c_str(), bounds[b],
                             static_cast<unsigned long long>(cum));
            else
                std::fprintf(f, "%s_bucket{le=\"+Inf\"} %llu\n",
                             m.name.c_str(),
                             static_cast<unsigned long long>(cum));
        }
        std::fprintf(f, "%s_sum %s\n", m.name.c_str(),
                     fmtNum(m.sum).c_str());
        std::fprintf(f, "%s_count %llu\n", m.name.c_str(),
                     static_cast<unsigned long long>(m.count));
    }
}

void
MetricsRegistry::writeCsv(std::FILE* f) const
{
    // Long-form time series: histograms have no series and are omitted
    // (use the Prometheus or JSON export for distribution data).
    std::fprintf(f, "t_s,name,value\n");
    for (size_t s = 0; s < sample_times_.size(); ++s)
        for (const Metric& m : metrics_)
            if (m.kind != MetricKind::Histogram)
                std::fprintf(f, "%.6f,%s,%s\n", sample_times_[s],
                             m.name.c_str(), fmtNum(m.series[s]).c_str());
}

void
MetricsRegistry::writeJson(std::FILE* f) const
{
    const std::vector<double>& bounds = bucketBounds();
    std::fprintf(f, "{\n  \"sample_times_s\": [");
    for (size_t i = 0; i < sample_times_.size(); ++i)
        std::fprintf(f, "%s%.6f", i ? ", " : "", sample_times_[i]);
    std::fprintf(f, "],\n  \"metrics\": [\n");
    for (size_t i = 0; i < metrics_.size(); ++i) {
        const Metric& m = metrics_[i];
        std::fprintf(f, "    {\"name\": \"%s\", \"kind\": \"%s\"",
                     m.name.c_str(), metricKindName(m.kind));
        if (m.kind != MetricKind::Histogram) {
            std::fprintf(f, ", \"value\": %s, \"series\": [",
                         fmtNum(m.value).c_str());
            for (size_t s = 0; s < m.series.size(); ++s)
                std::fprintf(f, "%s%s", s ? ", " : "",
                             fmtNum(m.series[s]).c_str());
            std::fprintf(f, "]}");
        } else {
            std::fprintf(
                f, ", \"count\": %llu, \"sum\": %s, \"min\": %s, \"max\": %s",
                static_cast<unsigned long long>(m.count),
                fmtNum(m.sum).c_str(), fmtNum(m.count ? m.min : 0.0).c_str(),
                fmtNum(m.count ? m.max : 0.0).c_str());
            std::fprintf(f, ", \"bounds\": [");
            for (size_t b = 0; b < bounds.size(); ++b)
                std::fprintf(f, "%s%g", b ? ", " : "", bounds[b]);
            std::fprintf(f, "], \"buckets\": [");
            for (size_t b = 0; b < m.buckets.size(); ++b)
                std::fprintf(f, "%s%llu", b ? ", " : "",
                             static_cast<unsigned long long>(m.buckets[b]));
            std::fprintf(f, "]}");
        }
        std::fprintf(f, "%s\n", i + 1 < metrics_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
}

bool
MetricsRegistry::writeFile(const std::string& path) const
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) {
        warn("metrics: cannot open '%s' for writing", path.c_str());
        return false;
    }
    size_t dot = path.rfind('.');
    std::string ext = dot == std::string::npos ? "" : path.substr(dot);
    util::MutexLock lock(mu_);
    if (ext == ".csv")
        writeCsv(f);
    else if (ext == ".json")
        writeJson(f);
    else
        writePrometheus(f);
    const bool written = std::ferror(f) == 0;
    return std::fclose(f) == 0 && written;
}

}  // namespace hercules::obs
