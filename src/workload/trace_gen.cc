#include "workload/trace_gen.h"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "util/logging.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace hercules::workload {

TraceGenerator::TraceGenerator(const DiurnalLoad& load, TraceOptions opt)
    : load_(load), opt_(opt)
{
    if (opt_.horizon_hours <= 0.0)
        fatal("TraceGenerator: non-positive horizon %f",
              opt_.horizon_hours);
    if (opt_.bucket_seconds <= 0.0)
        fatal("TraceGenerator: non-positive bucket %f",
              opt_.bucket_seconds);
    if (opt_.time_compression < 1.0)
        fatal("TraceGenerator: compression %f below 1",
              opt_.time_compression);
}

double
TraceGenerator::simSeconds() const
{
    return opt_.horizon_hours * 3600.0 / opt_.time_compression;
}

std::vector<Query>
TraceGenerator::generate()
{
    Rng rng(opt_.seed);
    std::vector<Query> trace;
    const double horizon_s = simSeconds();
    const double bucket_s = opt_.bucket_seconds / opt_.time_compression;
    const double mu = std::log(opt_.sizes.median);

    uint64_t id = 0;
    double t = 0.0;                   // simulated seconds
    double bucket_end = bucket_s;
    // Rate of the current bucket, sampled at the bucket midpoint of the
    // wall-clock curve.
    auto bucketRate = [&](double bucket_start) {
        double mid_s = std::min(bucket_start + 0.5 * bucket_s, horizon_s);
        double wall_hours =
            mid_s * opt_.time_compression / 3600.0;
        return load_.loadAt(wall_hours);
    };
    double rate = bucketRate(0.0);
    // Expected query count, for the reserve only (capped: growth is
    // cheap relative to a mis-sized up-front allocation).
    trace.reserve(static_cast<size_t>(
        std::min(load_.peakQps() * horizon_s * 0.75, 4e6)));

    while (t < horizon_s) {
        if (rate <= 1e-9) {
            // Dead bucket: skip straight to the next one.
            t = bucket_end;
            bucket_end += bucket_s;
            rate = bucketRate(t);
            continue;
        }
        double gap = rng.exponential(rate);
        if (t + gap >= bucket_end) {
            // The draw crosses the boundary: restart at the boundary
            // with the next bucket's rate (exact for piecewise-constant
            // intensity, by memorylessness).
            t = bucket_end;
            bucket_end += bucket_s;
            rate = bucketRate(t);
            continue;
        }
        t += gap;
        if (t >= horizon_s)
            break;
        Query q;
        q.id = id++;
        q.arrival_s = t;
        double raw = rng.lognormal(mu, opt_.sizes.sigma);
        q.size = std::clamp(static_cast<int>(std::lround(raw)),
                            opt_.sizes.min_size, opt_.sizes.max_size);
        q.pooling_scale = rng.lognormal(0.0, opt_.pooling.sigma);
        trace.push_back(q);
    }
    return trace;
}

uint64_t
serviceTraceSeed(uint64_t base_seed, size_t service)
{
    // Golden-ratio stride keeps the per-service streams well separated;
    // service 0 keeps the base seed so single-service merged traces
    // reproduce the plain TraceGenerator stream exactly.
    return base_seed +
           0x9E3779B97F4A7C15ull * static_cast<uint64_t>(service);
}

std::vector<Query>
generateMultiServiceTrace(const std::vector<ServiceTraceSpec>& services,
                          const TraceOptions& opt, util::ThreadPool* pool)
{
    if (services.empty())
        fatal("generateMultiServiceTrace: no services");

    // Each stream depends only on its own seed and spec, so the streams
    // can be drawn in any order, on any thread.
    std::vector<std::vector<Query>> streams(services.size());
    auto generateStream = [&](size_t s) {
        TraceOptions o = opt;
        o.seed = serviceTraceSeed(opt.seed, s);
        o.sizes = services[s].sizes;
        o.pooling = services[s].pooling;
        DiurnalLoad load(services[s].load);
        streams[s] = TraceGenerator(load, o).generate();
    };
    if (pool != nullptr)
        pool->parallelFor(services.size(), generateStream);
    else
        for (size_t s = 0; s < services.size(); ++s)
            generateStream(s);
    return mergeServiceStreams(std::move(streams));
}

std::vector<Query>
mergeServiceStreams(std::vector<std::vector<Query>> streams)
{
    if (streams.empty())
        return {};
    for (size_t s = 0; s < streams.size(); ++s)
        for (Query& q : streams[s])
            q.service_id = static_cast<int>(s);
    // Fold the streams in service order: std::merge takes the first
    // range's element on a tie, so the lower service index wins it.
    std::vector<Query> merged = std::move(streams[0]);
    for (size_t s = 1; s < streams.size(); ++s) {
        std::vector<Query> next;
        next.reserve(merged.size() + streams[s].size());
        std::merge(merged.begin(), merged.end(), streams[s].begin(),
                   streams[s].end(), std::back_inserter(next),
                   [](const Query& a, const Query& b) {
                       return a.arrival_s < b.arrival_s;
                   });
        merged = std::move(next);
        std::vector<Query>().swap(streams[s]);
    }
    for (size_t i = 0; i < merged.size(); ++i)
        merged[i].id = i;
    return merged;
}

}  // namespace hercules::workload
