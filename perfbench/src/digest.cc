#include "digest.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>

namespace perfbench {

namespace hc = hercules;

namespace {

/** FNV-1a over the fields fed to it, in order. */
class Hasher
{
  public:
    void
    bytes(const void* p, size_t n)
    {
        const unsigned char* b = static_cast<const unsigned char*>(p);
        for (size_t i = 0; i < n; ++i) {
            h_ ^= b[i];
            h_ *= 1099511628211ULL;
        }
    }
    void u(uint64_t v) { bytes(&v, sizeof v); }
    void d(double v) { bytes(&v, sizeof v); }
    void
    s(const std::string& v)
    {
        u(v.size());
        bytes(v.data(), v.size());
    }
    template <typename T>
    void
    doubles(const std::vector<T>& vs)
    {
        u(vs.size());
        for (double v : vs)
            d(v);
    }
    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 14695981039346656037ULL;
};

void
hashTable(Hasher& h, const hc::core::EfficiencyTable& table)
{
    h.u(table.size());
    for (const hc::core::EfficiencyEntry& e : table.entries()) {
        h.u(static_cast<uint64_t>(e.server));
        h.u(static_cast<uint64_t>(e.model));
        h.u(e.feasible ? 1 : 0);
        h.d(e.qps);
        h.d(e.power_w);
        h.d(e.avg_power_w);
        h.d(e.qps_per_watt);
        h.s(e.config.key());
    }
}

void
hashInterval(Hasher& h, const hc::sim::IntervalStats& iv)
{
    h.d(iv.t0_s);
    h.d(iv.t1_s);
    h.u(iv.arrivals);
    h.u(iv.completions);
    h.u(iv.dropped);
    h.u(iv.rejected);
    h.u(iv.failed_inflight);
    h.d(iv.offered_qps);
    h.d(iv.p50_ms);
    h.d(iv.p99_ms);
    h.d(iv.max_ms);
    h.u(iv.sla_violations);
    h.d(iv.sla_violation_rate);
    h.u(static_cast<uint64_t>(iv.active_shards));
    h.d(iv.consumed_power_w);
    h.d(iv.provisioned_power_w);
    h.d(iv.budget_power_w);
    h.u(iv.power_capped ? 1 : 0);
    h.u(iv.services.size());
    for (const hc::sim::ServiceIntervalStats& s : iv.services) {
        h.u(s.arrivals);
        h.u(s.completions);
        h.u(s.dropped);
        h.u(s.rejected);
        h.d(s.p50_ms);
        h.d(s.p99_ms);
        h.u(s.failed_inflight);
        h.u(s.sla_violations);
        h.d(s.sla_violation_rate);
        h.u(static_cast<uint64_t>(s.active_shards));
    }
}

}  // namespace

uint64_t
digestTable(const hc::core::EfficiencyTable& table)
{
    Hasher h;
    hashTable(h, table);
    return h.value();
}

uint64_t
digestServe(const hc::core::EfficiencyTable& table,
            const hc::cluster::MultiServeResult& r)
{
    Hasher h;
    hashTable(h, table);
    h.d(r.estimated_r);
    h.doubles(r.service_r);
    h.u(r.trace_queries);
    h.u(static_cast<uint64_t>(r.reprovisions));
    h.u(static_cast<uint64_t>(r.shard_slots));
    h.doubles(r.service_capacity_qps);
    h.doubles(r.service_sla_ms);

    const hc::sim::ClusterSimResult& s = r.sim;
    h.u(s.intervals.size());
    for (const hc::sim::IntervalStats& iv : s.intervals)
        hashInterval(h, iv);
    h.u(s.injected);
    h.u(s.completed);
    h.u(s.dropped);
    h.u(s.rejected);
    h.u(s.failed_inflight);
    h.u(s.admission_retries);
    h.d(s.mean_ms);
    h.d(s.p50_ms);
    h.d(s.p95_ms);
    h.d(s.p99_ms);
    h.d(s.max_ms);
    h.u(s.sla_violations);
    h.d(s.sla_violation_rate);
    h.d(s.avg_consumed_power_w);
    h.d(s.peak_consumed_power_w);
    h.d(s.avg_provisioned_power_w);
    h.d(s.peak_provisioned_power_w);
    h.u(s.services.size());
    for (const hc::sim::ServiceRunStats& v : s.services) {
        h.u(v.injected);
        h.u(v.completed);
        h.u(v.dropped);
        h.u(v.rejected);
        h.u(v.failed_inflight);
        h.d(v.p50_ms);
        h.d(v.p99_ms);
        h.d(v.max_ms);
        h.d(v.sla_ms);
        h.u(v.sla_violations);
        h.d(v.sla_violation_rate);
    }
    h.u(s.health_transitions.size());
    for (const hc::sim::HealthTransition& t : s.health_transitions) {
        h.d(t.t_s);
        h.u(static_cast<uint64_t>(t.shard));
        h.u(static_cast<uint64_t>(t.service));
        h.u(static_cast<uint64_t>(t.from));
        h.u(static_cast<uint64_t>(t.to));
        h.d(t.slowdown);
        h.u(t.killed_inflight);
    }
    return h.value();
}

std::string
digestHex(uint64_t digest)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, digest);
    return buf;
}

std::string
checkConservation(const hc::cluster::MultiServeResult& r)
{
    char buf[256];
    uint64_t arrivals = 0;
    for (size_t i = 0; i < r.sim.services.size(); ++i) {
        const hc::sim::ServiceRunStats& v = r.sim.services[i];
        arrivals += v.injected + v.dropped + v.rejected;
        if (v.injected != v.completed + v.failed_inflight) {
            std::snprintf(buf, sizeof buf,
                          "service %zu: admitted %zu != completed %zu + "
                          "killed in flight %zu",
                          i, v.injected, v.completed, v.failed_inflight);
            return buf;
        }
    }
    if (arrivals != r.trace_queries) {
        std::snprintf(buf, sizeof buf,
                      "services account for %" PRIu64
                      " arrivals, the trace has %zu",
                      arrivals, r.trace_queries);
        return buf;
    }
    return "";
}

std::string
checkServiceArrivals(const hc::sim::ClusterSimResult& r,
                     const std::vector<uint64_t>& arrivals)
{
    char buf[256];
    if (arrivals.size() != r.services.size()) {
        std::snprintf(buf, sizeof buf,
                      "trace has %zu services, the run reports %zu",
                      arrivals.size(), r.services.size());
        return buf;
    }
    for (size_t i = 0; i < arrivals.size(); ++i) {
        const hc::sim::ServiceRunStats& v = r.services[i];
        const uint64_t sum =
            v.completed + v.dropped + v.rejected + v.failed_inflight;
        if (arrivals[i] != sum) {
            std::snprintf(buf, sizeof buf,
                          "service %zu: %" PRIu64 " arrivals != completed "
                          "%zu + dropped %zu + rejected %zu + killed %zu",
                          i, arrivals[i], v.completed, v.dropped,
                          v.rejected, v.failed_inflight);
            return buf;
        }
    }
    return "";
}

uint64_t
simulatedArrivals(const hc::sim::ClusterSimResult& r)
{
    return r.completed + r.dropped + r.rejected + r.failed_inflight;
}

}  // namespace perfbench
