#include "layers.h"

#include <memory>

#include "core/eval_engine.h"
#include "core/profiler.h"
#include "obs/telemetry.h"
#include "workload/trace_gen.h"

namespace perfbench {

namespace hc = hercules;
namespace scn = hercules::scenario;

namespace {

/** Forwards to a provisioner and times every call. */
class TimedProvisioner : public hc::cluster::Provisioner
{
  public:
    TimedProvisioner(hc::cluster::Provisioner& inner, ServeLayers& out)
        : inner_(inner), out_(out)
    {
    }

    hc::cluster::Allocation
    provision(const hc::cluster::ProvisionProblem& p,
              const std::vector<double>& loads, double r) override
    {
        const double t0 = nowMs();
        hc::cluster::Allocation a = inner_.provision(p, loads, r);
        out_.provision_ms += nowMs() - t0;
        ++out_.provision_calls;
        return a;
    }

    const char* name() const override { return inner_.name(); }

  private:
    hc::cluster::Provisioner& inner_;
    ServeLayers& out_;
};

std::unique_ptr<hc::cluster::Provisioner>
makeProvisioner(const scn::ScenarioSpec& spec)
{
    switch (spec.provisioner) {
      case scn::ProvisionerKind::Hercules:
        return std::make_unique<hc::cluster::HerculesProvisioner>();
      case scn::ProvisionerKind::Greedy:
        return std::make_unique<hc::cluster::GreedyProvisioner>();
      case scn::ProvisionerKind::PriorityAware:
        return std::make_unique<hc::cluster::PriorityAwareProvisioner>();
      case scn::ProvisionerKind::Nh:
        return std::make_unique<hc::cluster::NhProvisioner>(spec.nh_seed);
    }
    return nullptr;
}

}  // namespace

hc::core::EfficiencyTable
tracedProfileTable(const scn::ScenarioSpec& spec, ProfileLayers* out)
{
    hc::core::ProfilerOptions popt;
    popt.search.measure.sim.num_queries = spec.profile.num_queries;
    popt.search.measure.sim.warmup_queries = spec.profile.warmup_queries;
    popt.search.measure.bisect_iters = spec.profile.bisect_iters;
    popt.search.measure.sim.seed = spec.profile.seed;
    for (const scn::FleetEntry& e : spec.fleet)
        popt.servers.push_back(e.type);
    for (const scn::ServiceScenario& s : spec.services) {
        bool seen = false;
        for (hc::model::ModelId m : popt.models)
            seen = seen || m == s.spec.model;
        if (!seen)
            popt.models.push_back(s.spec.model);
    }

    hc::core::EvalEngine engine(popt.search.eval);
    engine.loadCache(spec.profile.eval_memo);
    popt.search.engine = &engine;

    const double t0 = nowMs();
    hc::core::EfficiencyTable table = hc::core::offlineProfile(popt);
    out->profile_ms = nowMs() - t0;

    engine.saveCache(spec.profile.eval_memo);
    table.writeCsv(spec.profile.table_cache);

    const hc::core::EvalEngine::Stats st = engine.stats();
    out->eval_hits = st.hits;
    out->eval_misses = st.misses;
    out->simulations = st.simulations;
    out->measure_wall_ms = st.measure_wall_ms;
    out->pool_threads = engine.pool().threads();
    return table;
}

hc::cluster::MultiServeResult
tracedRun(const scn::ScenarioSpec& spec,
          const hc::core::EfficiencyTable& table, ServeLayers* out,
          double* run_ms)
{
    const double t0 = nowMs();
    scn::ScenarioSpec resolved = spec;
    scn::resolvePeaks(resolved, table);

    // The trace serveTraces generates internally, generated once more
    // on its own so the workload layer's share can be timed.
    std::vector<hc::workload::ServiceTraceSpec> trace_specs;
    for (const scn::ServiceScenario& s : resolved.services) {
        hc::workload::ServiceTraceSpec ts;
        ts.load = s.spec.load;
        ts.sizes = s.spec.sizes;
        ts.pooling = s.spec.pooling;
        trace_specs.push_back(ts);
    }
    hc::workload::TraceOptions topt = resolved.serve.trace;
    topt.horizon_hours = resolved.serve.horizon_hours;
    const double probe0 = nowMs();
    {
        // Scoped, so the probe's trace is freed before serving starts.
        const std::vector<hc::workload::Query> trace =
            hc::workload::generateMultiServiceTrace(trace_specs, topt);
        out->tracegen_ms = nowMs() - probe0;
        out->queries = trace.size();
        out->service_queries.assign(trace_specs.size(), 0);
        for (const hc::workload::Query& q : trace)
            if (q.service_id >= 0 &&
                static_cast<size_t>(q.service_id) < trace_specs.size())
                ++out->service_queries[static_cast<size_t>(q.service_id)];
    }
    const double probe_ms = nowMs() - probe0;

    std::vector<hc::hw::ServerType> fleet;
    std::vector<int> slots;
    for (const scn::FleetEntry& e : spec.fleet) {
        fleet.push_back(e.type);
        slots.push_back(e.shard_slots);
    }
    std::vector<hc::cluster::ServiceSpec> services;
    for (const scn::ServiceScenario& s : resolved.services)
        services.push_back(s.spec);
    std::unique_ptr<hc::cluster::Provisioner> inner = makeProvisioner(spec);
    TimedProvisioner policy(*inner, *out);

    hc::obs::Telemetry telemetry(spec.observability);
    hc::cluster::TraceServeOptions sopt = spec.serve;
    if (spec.observability.enabled())
        sopt.telemetry = &telemetry;

    const double s0 = nowMs();
    hc::cluster::MultiServeResult r = hc::cluster::serveTraces(
        table, fleet, slots, services, policy, sopt);
    out->serve_ms = nowMs() - s0;

    if (spec.observability.enabled()) {
        const double e0 = nowMs();
        out->exported =
            telemetry.writeTraceFile() && telemetry.writeMetricsFile();
        out->export_ms = nowMs() - e0;
        out->trace_records = telemetry.traceRecords().size();
    }
    *run_ms = nowMs() - t0 - probe_ms;
    return r;
}

}  // namespace perfbench
