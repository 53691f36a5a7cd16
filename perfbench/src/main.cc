/**
 * @file
 * hercules_perfbench: runs one benchmark workload and prints its
 * ledger. run.py builds this binary and calls it; README.md describes
 * the workloads, the metrics and the checks.
 *
 *   hercules_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *       --scenario-dir DIR --tmp-dir DIR [--ledger-dir DIR]
 *       [--refs FILE] [--horizon-hours H] [--setup-reps N]
 *       [--min-reps N]
 *
 * With --trace 0 it times the untraced entry points and reports the
 * end-to-end metrics; with --trace 1 it alternates untraced and traced
 * repetitions and reports the per-layer metrics. The last line of
 * stdout is one JSON object: correct, attempted, failed, metrics.
 */
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "digest.h"
#include "layers.h"
#include "util/logging.h"
#include "workloads.h"

namespace {

namespace hc = hercules;
namespace scn = hercules::scenario;
using namespace perfbench;

struct Args
{
    Workload workload = Workload::PhaseShift24h;
    GenOptions gen;
    double seconds = 10.0;
    bool trace = false;
    std::string ledger_dir;
    std::string refs;
    int setup_reps = 3;
    int min_reps = 3;
};

[[noreturn]] void
usage(const char* msg)
{
    std::fprintf(stderr, "hercules_perfbench: %s\n", msg);
    std::exit(2);
}

Args
parseArgs(int argc, char** argv)
{
    Args a;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + key).c_str());
        const std::string val = argv[++i];
        if (key == "--workload") {
            if (!parseWorkload(val, &a.workload))
                usage(("unknown workload " + val).c_str());
            have_workload = true;
        } else if (key == "--seed") {
            a.gen.seed = std::strtoull(val.c_str(), nullptr, 10);
        } else if (key == "--seconds") {
            a.seconds = std::atof(val.c_str());
        } else if (key == "--trace") {
            a.trace = val == "1";
        } else if (key == "--scenario-dir") {
            a.gen.scenario_dir = val;
        } else if (key == "--tmp-dir") {
            a.gen.tmp_dir = val;
        } else if (key == "--ledger-dir") {
            a.ledger_dir = val;
        } else if (key == "--refs") {
            a.refs = val;
        } else if (key == "--horizon-hours") {
            a.gen.horizon_hours = std::atof(val.c_str());
        } else if (key == "--setup-reps") {
            a.setup_reps = std::max(1, std::atoi(val.c_str()));
        } else if (key == "--min-reps") {
            a.min_reps = std::max(1, std::atoi(val.c_str()));
        } else {
            usage(("unknown option " + key).c_str());
        }
    }
    if (!have_workload || a.gen.scenario_dir.empty() ||
        a.gen.tmp_dir.empty())
        usage("--workload, --scenario-dir and --tmp-dir are required");
    return a;
}

/** Repeated measurements of one quantity. */
struct Samples
{
    std::vector<double> v;

    void add(double x) { v.push_back(x); }

    double
    median() const
    {
        if (v.empty())
            return 0.0;
        std::vector<double> s = v;
        std::sort(s.begin(), s.end());
        const size_t n = s.size();
        return n % 2 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
    }
    double min() const
    { return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end()); }
    double max() const
    { return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end()); }
};

/** One reported metric: the median of its samples. */
struct Metric
{
    Metric(std::string n, std::string u, bool is_count = false)
        : name(std::move(n)), unit(std::move(u)), count(is_count)
    {
    }

    std::string name;
    std::string unit;
    Samples samples;
    bool count;  ///< an exact integer count
};

/** Counts checked calls and the ones that failed a check. */
class Checker
{
  public:
    explicit Checker(std::string reference) : reference_(std::move(reference))
    {
    }

    /**
     * Check one call's digest: it must equal the first call's and, when
     * the benchmark stores one for these inputs, the reference.
     */
    bool
    digest(const std::string& what, uint64_t d,
           const std::string& problem = "")
    {
        ++attempted_;
        std::string err = problem;
        const std::string hex = digestHex(d);
        if (first_.empty())
            first_ = hex;
        if (err.empty() && hex != first_)
            err = "digest " + hex + " differs from the first call's " +
                  first_;
        if (err.empty() && !reference_.empty() && hex != reference_)
            err = "digest " + hex + " differs from the reference " +
                  reference_;
        if (!err.empty()) {
            ++failed_;
            std::fprintf(stderr, "perfbench: CHECK FAILED (%s): %s\n",
                         what.c_str(), err.c_str());
        }
        return err.empty();
    }

    /** Add another checker's counts to this one's. */
    void
    merge(const Checker& o)
    {
        attempted_ += o.attempted_;
        failed_ += o.failed_;
    }

    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const { return failed_; }
    const std::string& first() const { return first_; }
    const std::string& reference() const { return reference_; }

  private:
    std::string reference_;
    std::string first_;
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
};

/** The stored reference digest for these inputs, or "". */
std::string
lookupReference(const std::string& path, const std::string& workload,
                uint64_t seed, double horizon_hours)
{
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string w, digest;
        uint64_t s = 0;
        double h = 0.0;
        if ((ls >> w >> s >> h >> digest) && w == workload &&
            s == seed && h == horizon_hours)
            return digest;
    }
    return "";
}

double
peakRssMb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof ru);
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string
formatValue(const Metric& m, double v)
{
    char buf[64];
    if (m.count)
        std::snprintf(buf, sizeof buf, "%" PRIu64,
                      static_cast<uint64_t>(std::llround(v)));
    else
        std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** Print the table to stdout and write it as CSV. */
void
writeLedger(const std::vector<Metric>& ms, const std::string& title,
            const std::string& csv_path, const Args& a)
{
    std::printf("\n%s (workload %s, seed %" PRIu64 ")\n", title.c_str(),
                workloadName(a.workload), a.gen.seed);
    std::printf("  %-24s %22s %-6s %8s\n", "metric", "median", "unit",
                "samples");
    for (const Metric& m : ms)
        std::printf("  %-24s %22s %-6s %8zu\n", m.name.c_str(),
                    formatValue(m, m.samples.median()).c_str(),
                    m.unit.c_str(), m.samples.v.size());
    if (csv_path.empty())
        return;
    std::FILE* f = std::fopen(csv_path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     csv_path.c_str());
        return;
    }
    std::fprintf(f, "workload,seed,layer,metric,unit,median,min,max,samples\n");
    for (const Metric& m : ms) {
        const size_t dot = m.name.find('.');
        const std::string layer =
            dot == std::string::npos ? "end_to_end" : m.name.substr(0, dot);
        std::fprintf(f, "%s,%" PRIu64 ",%s,%s,%s,%s,%s,%s,%zu\n",
                     workloadName(a.workload), a.gen.seed, layer.c_str(),
                     m.name.c_str(), m.unit.c_str(),
                     formatValue(m, m.samples.median()).c_str(),
                     formatValue(m, m.samples.min()).c_str(),
                     formatValue(m, m.samples.max()).c_str(),
                     m.samples.v.size());
    }
    std::fclose(f);
}

/** The result line: exactly the metrics in `ms`. */
void
printResult(const std::vector<Metric>& ms, const Checker& chk)
{
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                chk.failed() == 0 ? "true" : "false", chk.attempted(),
                chk.failed());
    for (size_t i = 0; i < ms.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                    i ? ", " : "", ms[i].name.c_str(),
                    formatValue(ms[i], ms[i].samples.median()).c_str(),
                    ms[i].unit.c_str());
    std::printf("}}\n");
}

/** The per-layer metrics, in BENCHMARK.json order. */
struct LayerMetrics
{
    Metric profile_ms{"core.profile_ms", "ms"};
    Metric eval_misses{"core.eval_misses", "count", true};
    Metric eval_hits{"core.eval_hits", "count", true};
    Metric hit_ratio{"core.hit_ratio", "ratio"};
    Metric simulations{"core.simulations", "count", true};
    Metric ms_per_sim{"core.ms_per_simulation", "ms"};
    Metric pool_busy{"core.pool_busy_ratio", "ratio"};
    Metric tracegen_ms{"workload.tracegen_ms", "ms"};
    Metric queries{"workload.queries", "count", true};
    Metric provision_ms{"cluster.provision_ms", "ms"};
    Metric provision_calls{"cluster.provision_calls", "count", true};
    Metric reprovisions{"cluster.reprovisions", "count", true};
    Metric serve_self_ms{"cluster.serve_self_ms", "ms"};
    Metric run_ms{"sim.run_ms", "ms"};
    Metric route_ms{"sim.route_ms", "ms"};
    Metric advance_ms{"sim.advance_ms", "ms"};
    Metric harvest_ms{"sim.harvest_ms", "ms"};
    Metric events{"sim.events", "count", true};
    Metric peak_queue{"sim.peak_queue_depth", "count", true};
    Metric ns_per_event{"sim.ns_per_event", "ns"};
    Metric export_ms{"obs.export_ms", "ms"};
    Metric trace_records{"obs.trace_records", "count", true};
    Metric overhead{"trace_overhead_ratio", "ratio"};

    void
    addProfile(const ProfileLayers& p)
    {
        profile_ms.samples.add(p.profile_ms);
        eval_misses.samples.add(static_cast<double>(p.eval_misses));
        eval_hits.samples.add(static_cast<double>(p.eval_hits));
        const double lookups =
            static_cast<double>(p.eval_hits + p.eval_misses);
        hit_ratio.samples.add(lookups > 0 ? p.eval_hits / lookups : 0.0);
        simulations.samples.add(static_cast<double>(p.simulations));
        ms_per_sim.samples.add(
            p.simulations > 0 ? p.measure_wall_ms / p.simulations : 0.0);
        pool_busy.samples.add(
            p.profile_ms > 0 && p.pool_threads > 0
                ? p.measure_wall_ms / (p.profile_ms * p.pool_threads)
                : 0.0);
    }

    void
    addServe(const ServeLayers& s, const hc::cluster::MultiServeResult& r)
    {
        const hc::obs::DesProfile& des = r.sim.des;
        tracegen_ms.samples.add(s.tracegen_ms);
        queries.samples.add(static_cast<double>(s.queries));
        provision_ms.samples.add(s.provision_ms);
        provision_calls.samples.add(static_cast<double>(s.provision_calls));
        reprovisions.samples.add(r.reprovisions);
        serve_self_ms.samples.add(s.serve_ms - s.tracegen_ms -
                                  des.run_wall_ms);
        run_ms.samples.add(des.run_wall_ms);
        route_ms.samples.add(des.route_wall_ms);
        advance_ms.samples.add(des.advance_wall_ms);
        harvest_ms.samples.add(des.harvest_wall_ms);
        events.samples.add(static_cast<double>(des.events_executed));
        peak_queue.samples.add(
            static_cast<double>(des.peak_event_queue_depth));
        ns_per_event.samples.add(
            des.events_executed > 0
                ? des.run_wall_ms * 1e6 / des.events_executed
                : 0.0);
        export_ms.samples.add(s.export_ms);
        trace_records.samples.add(static_cast<double>(s.trace_records));
    }

    /**
     * Every metric; a layer the workload never calls reports one
     * sample of 0.
     */
    std::vector<Metric>
    all() const
    {
        std::vector<Metric> ms = {
            profile_ms,   eval_misses,     eval_hits,    hit_ratio,
            simulations,  ms_per_sim,      pool_busy,    tracegen_ms,
            queries,      provision_ms,    provision_calls,
            reprovisions, serve_self_ms,   run_ms,       route_ms,
            advance_ms,   harvest_ms,      events,       peak_queue,
            ns_per_event, export_ms,       trace_records, overhead};
        for (Metric& m : ms)
            if (m.samples.v.empty())
                m.samples.add(0.0);
        return ms;
    }
};

}  // namespace

int
main(int argc, char** argv)
{
    const Args a = parseArgs(argc, argv);
    const bool serving = isServing(a.workload);
    hc::setLogLevel(hc::LogLevel::Warn);
    std::filesystem::create_directories(a.gen.tmp_dir);

    LayerMetrics layers;

    // ---- setup: spec generation, plus a cold efficiency table for the
    // serving workloads. Repeated; the median is setup_s. The traced
    // run profiles through the replayed path after the first setup and
    // checks it yields the same table.
    Samples setup_s;
    scn::ScenarioSpec spec;
    hc::core::EfficiencyTable table;
    Checker table_chk("");
    const int setup_reps = serving ? a.setup_reps : 25 * a.setup_reps;
    for (int i = 0; i < setup_reps; ++i) {
        const double t0 = nowMs();
        spec = generateSpec(a.workload, a.gen);
        if (serving) {
            clearCaches(spec);
            if (a.trace && i > 0) {
                ProfileLayers pl;
                table = tracedProfileTable(spec, &pl);
                layers.addProfile(pl);
            } else {
                table = scn::profileTable(spec);
            }
        }
        setup_s.add((nowMs() - t0) / 1000.0);
        if (serving)
            table_chk.digest("setup " + std::to_string(i),
                             digestTable(table));
    }

    // ---- timed calls: untraced, or alternating untraced and traced.
    // The reference is keyed by the spec's effective horizon.
    Checker chk(a.refs.empty()
                    ? ""
                    : lookupReference(a.refs, workloadName(a.workload),
                                      a.gen.seed,
                                      spec.serve.horizon_hours));
    Samples run_s, traced_run_s;
    uint64_t arrivals = 0;
    double peak_rss_mb = 0.0;
    const double deadline = nowMs() + a.seconds * 1000.0;
    for (int rep = 0;; ++rep) {
        const bool traced = a.trace && rep % 2 == 1;
        const int done = static_cast<int>(run_s.v.size());
        const int done_traced = static_cast<int>(traced_run_s.v.size());
        const bool enough = done >= a.min_reps &&
                            (!a.trace || done_traced >= a.min_reps);
        if (enough && (nowMs() >= deadline || rep >= 400))
            break;

        const std::string what = std::string(traced ? "traced" : "untraced") +
                                 " call " + std::to_string(rep);
        if (serving) {
            hc::cluster::MultiServeResult r;
            std::string problem;
            if (!traced) {
                const double t0 = nowMs();
                scn::ScenarioResult sr = scn::run(spec, &table);
                run_s.add((nowMs() - t0) / 1000.0);
                r = std::move(sr.serve);
            } else {
                ServeLayers sl;
                double ms = 0.0;
                r = tracedRun(spec, table, &sl, &ms);
                traced_run_s.add(ms / 1000.0);
                layers.addServe(sl, r);
                if (sl.queries != r.trace_queries)
                    problem = "trace generation probe made " +
                              std::to_string(sl.queries) +
                              " queries, serveTraces " +
                              std::to_string(r.trace_queries);
                else if (!sl.exported)
                    problem = "telemetry export failed";
                else
                    problem =
                        checkServiceArrivals(r.sim, sl.service_queries);
            }
            if (problem.empty())
                problem = checkConservation(r);
            arrivals = simulatedArrivals(r.sim);
            chk.digest(what, digestServe(table, r), problem);
        } else {
            clearCaches(spec);
            hc::core::EfficiencyTable t;
            const double t0 = nowMs();
            if (!traced) {
                t = scn::profileTable(spec);
                run_s.add((nowMs() - t0) / 1000.0);
            } else {
                ProfileLayers pl;
                t = tracedProfileTable(spec, &pl);
                traced_run_s.add((nowMs() - t0) / 1000.0);
                layers.addProfile(pl);
            }
            chk.digest(what, digestTable(t));
        }
        // Later repetitions add only allocator fragmentation, and their
        // number depends on speed.
        if (rep == 0)
            peak_rss_mb = peakRssMb();
    }
    chk.merge(table_chk);
    clearCaches(spec);

    std::printf("digest %s (reference %s)\n", chk.first().c_str(),
                chk.reference().empty() ? "none stored"
                                        : chk.reference().c_str());
    const std::string dir = a.ledger_dir;
    if (!dir.empty())
        std::filesystem::create_directories(dir);
    std::vector<Metric> result;
    if (!a.trace) {
        Metric run{"run_s", "s"};
        run.samples = run_s;
        Metric setup{"setup_s", "s"};
        setup.samples = setup_s;
        Metric rss{"peak_rss_mb", "MiB"};
        rss.samples.add(peak_rss_mb);
        result = {run, setup, rss};

        // Ledger-only figures: they do not exist on every workload or
        // read 0 when all is well, so they are not gated metrics.
        std::vector<Metric> ledger = result;
        if (serving) {
            Metric qps{"sim_queries_per_s", "1/s"};
            qps.samples.add(arrivals / run_s.median());
            ledger.push_back(qps);
        }
        Metric failed{"failed_ratio", "ratio"};
        failed.samples.add(static_cast<double>(chk.failed()) /
                           std::max<uint64_t>(1, chk.attempted()));
        ledger.push_back(failed);
        writeLedger(ledger, "end-to-end",
                    dir.empty() ? "" : dir + "/EndToEnd.csv", a);
    } else {
        layers.overhead.samples.add(traced_run_s.median() /
                                    run_s.median());
        result = layers.all();
        writeLedger(result, "per-layer",
                    dir.empty() ? ""
                                : dir + "/detailed_" +
                                      workloadName(a.workload) + ".csv",
                    a);
    }
    std::fflush(stdout);
    printResult(result, chk);
    return 0;
}
