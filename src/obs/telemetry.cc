#include "obs/telemetry.h"

#include <cstdio>

#include "util/logging.h"
#include "util/thread_annotations.h"

namespace hercules::obs {

namespace {

std::string
shardName(int shard, const char* leaf)
{
    return "shard." + std::to_string(shard) + "." + leaf;
}

std::string
svcName(int svc, const char* leaf)
{
    return "svc." + std::to_string(svc) + "." + leaf;
}

}  // namespace

Telemetry::Telemetry(const ObsSpec& spec) : spec_(spec)
{
    c_arrivals_ = metrics_.counter("cluster.arrivals");
    c_completions_ = metrics_.counter("cluster.completions");
    c_dropped_ = metrics_.counter("cluster.dropped");
    c_rejected_ = metrics_.counter("cluster.rejected");
    c_failed_inflight_ = metrics_.counter("cluster.failed_inflight");
    c_retries_ = metrics_.counter("cluster.admission_retries");
    g_active_shards_ = metrics_.gauge("cluster.active_shards");
    g_consumed_w_ = metrics_.gauge("cluster.consumed_power_w");
    g_provisioned_w_ = metrics_.gauge("cluster.provisioned_power_w");
}

Telemetry::ShardIds&
Telemetry::shardIds(int shard)
{
    if (shard < 0)
        panic("Telemetry: negative shard id %d", shard);
    if (static_cast<size_t>(shard) >= shards_.size())
        shards_.resize(shard + 1);
    ShardIds& s = shards_[shard];
    if (s.injected < 0) {
        s.injected = metrics_.counter(shardName(shard, "injected"));
        s.queue_depth = metrics_.gauge(shardName(shard, "queue_depth"));
        s.health = metrics_.gauge(shardName(shard, "health"));
    }
    return s;
}

Telemetry::ServiceIds&
Telemetry::serviceIds(int svc)
{
    if (svc < 0)
        panic("Telemetry: negative service id %d", svc);
    if (static_cast<size_t>(svc) >= services_.size())
        services_.resize(svc + 1);
    ServiceIds& s = services_[svc];
    if (s.arrivals < 0) {
        s.arrivals = metrics_.counter(svcName(svc, "arrivals"));
        s.completions = metrics_.counter(svcName(svc, "completions"));
        s.dropped = metrics_.counter(svcName(svc, "dropped"));
        s.rejected = metrics_.counter(svcName(svc, "rejected"));
        s.p50 = metrics_.gauge(svcName(svc, "p50_ms"));
        s.p99 = metrics_.gauge(svcName(svc, "p99_ms"));
        s.viol = metrics_.gauge(svcName(svc, "sla_violation_rate"));
        s.h_wait = metrics_.histogram(svcName(svc, "queue_wait_ms"));
        s.h_service = metrics_.histogram(svcName(svc, "service_ms"));
        s.h_latency = metrics_.histogram(svcName(svc, "latency_ms"));
    }
    return s;
}

Telemetry::ServiceIds
Telemetry::serviceIdsOf(int svc)
{
    util::MutexLock lock(mu_);
    return serviceIds(svc);
}

void
Telemetry::declareService(int svc)
{
    serviceIdsOf(svc);
}

void
Telemetry::declareShard(int shard, int svc)
{
    util::MutexLock lock(mu_);
    shardIds(shard);
    serviceIds(svc);
}

void
Telemetry::setShardWindow(int shard, size_t injected, size_t queue_depth,
                          int health)
{
    util::MutexLock lock(mu_);
    ShardIds& sh = shardIds(shard);
    metrics_.set(sh.injected, static_cast<double>(injected));
    metrics_.set(sh.queue_depth, static_cast<double>(queue_depth));
    metrics_.set(sh.health, health);
}

void
Telemetry::setServiceWindow(int svc, const ArrivalTotals& totals,
                            double p50_ms, double p99_ms,
                            double sla_violation_rate)
{
    util::MutexLock lock(mu_);
    ServiceIds& s = serviceIds(svc);
    metrics_.set(s.arrivals, static_cast<double>(totals.arrivals));
    metrics_.set(s.completions, static_cast<double>(totals.completions));
    metrics_.set(s.dropped, static_cast<double>(totals.dropped));
    metrics_.set(s.rejected, static_cast<double>(totals.rejected));
    metrics_.set(s.p50, p50_ms);
    metrics_.set(s.p99, p99_ms);
    metrics_.set(s.viol, sla_violation_rate);
}

void
Telemetry::setClusterWindow(const ArrivalTotals& totals,
                            size_t failed_inflight, size_t admission_retries,
                            int active_shards, double consumed_power_w,
                            double provisioned_power_w)
{
    metrics_.set(c_arrivals_, static_cast<double>(totals.arrivals));
    metrics_.set(c_completions_, static_cast<double>(totals.completions));
    metrics_.set(c_dropped_, static_cast<double>(totals.dropped));
    metrics_.set(c_rejected_, static_cast<double>(totals.rejected));
    metrics_.set(c_failed_inflight_, static_cast<double>(failed_inflight));
    metrics_.set(c_retries_, static_cast<double>(admission_retries));
    metrics_.set(g_active_shards_, active_shards);
    metrics_.set(g_consumed_w_, consumed_power_w);
    metrics_.set(g_provisioned_w_, provisioned_power_w);
}

void
Telemetry::commitSample(double t_s, bool drain_tail)
{
    metrics_.sample(t_s, drain_tail);
}

void
Telemetry::addTraceRecords(std::vector<TraceRecord> records)
{
    util::MutexLock lock(mu_);
    if (records_.empty())
        records_ = std::move(records);
    else
        records_.insert(records_.end(), records.begin(), records.end());
}

bool
Telemetry::writeTraceFile() const
{
    if (spec_.trace_file.empty())
        return true;
    std::FILE* f = std::fopen(spec_.trace_file.c_str(), "w");
    if (!f) {
        warn("telemetry: cannot open '%s' for writing",
             spec_.trace_file.c_str());
        return false;
    }
    {
        util::MutexLock lock(mu_);
        writeTraceJsonl(f, records_);
    }
    const bool written = std::ferror(f) == 0;
    return std::fclose(f) == 0 && written;
}

bool
Telemetry::writeMetricsFile() const
{
    if (spec_.metrics_file.empty())
        return true;
    return metrics_.writeFile(spec_.metrics_file);
}

}  // namespace hercules::obs
