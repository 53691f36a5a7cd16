#include "scenario/scenario.h"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>

#include "obs/self_profile.h"
#include "scenario/lint.h"
#include "util/logging.h"

namespace hercules::scenario {

namespace {

void
validate(const ScenarioSpec& spec)
{
    std::string err;
    if (!validateSpec(spec, &err))
        fatal("%s", err.c_str());
}

std::unique_ptr<cluster::Provisioner>
makeProvisioner(const ScenarioSpec& spec)
{
    switch (spec.provisioner) {
      case ProvisionerKind::Hercules:
        return std::make_unique<cluster::HerculesProvisioner>();
      case ProvisionerKind::Greedy:
        return std::make_unique<cluster::GreedyProvisioner>();
      case ProvisionerKind::PriorityAware:
        return std::make_unique<cluster::PriorityAwareProvisioner>();
      case ProvisionerKind::Nh:
        return std::make_unique<cluster::NhProvisioner>(spec.nh_seed);
    }
    panic("makeProvisioner: bad kind %d",
          static_cast<int>(spec.provisioner));
}

/**
 * @return "(type, model)" of the first pair of the profiling grid the
 * table has no entry for; empty when it covers the whole grid.
 */
std::string
missingPair(const core::EfficiencyTable& table,
            const core::ProfilerOptions& grid)
{
    for (hw::ServerType st : grid.servers)
        for (model::ModelId m : grid.models)
            if (table.get(st, m) == nullptr)
                return std::string("(") + hw::serverTypeName(st) +
                       ", " + model::modelName(m) + ")";
    return "";
}

}  // namespace

const char*
provisionerKindName(ProvisionerKind k)
{
    switch (k) {
      case ProvisionerKind::Hercules: return "hercules";
      case ProvisionerKind::Greedy: return "greedy";
      case ProvisionerKind::PriorityAware: return "priority-aware";
      case ProvisionerKind::Nh: return "nh";
    }
    panic("provisionerKindName: bad kind %d", static_cast<int>(k));
}

std::optional<ProvisionerKind>
parseProvisionerKind(const std::string& name)
{
    for (ProvisionerKind k :
         {ProvisionerKind::Hercules, ProvisionerKind::Greedy,
          ProvisionerKind::PriorityAware, ProvisionerKind::Nh})
        if (name == provisionerKindName(k))
            return k;
    return std::nullopt;
}

bool
validateSpec(const ScenarioSpec& spec, std::string* error)
{
    auto fail = [&](const std::string& msg) {
        if (error != nullptr)
            *error = "scenario '" + spec.name + "': " + msg;
        return false;
    };
    if (spec.fleet.empty())
        return fail("empty fleet");
    if (spec.services.empty())
        return fail("no services");
    for (const FleetEntry& e : spec.fleet)
        if (e.shard_slots < 0)
            return fail(std::string("negative slots for ") +
                        hw::serverTypeName(e.type));
    if (spec.serve.horizon_hours <= 0.0 ||
        spec.serve.interval_hours <= 0.0)
        return fail("non-positive horizon/interval");
    const auto& sched = spec.serve.power_cap_schedule;
    for (size_t i = 0; i < sched.size(); ++i) {
        if (!(sched[i].from_hour >= 0.0) ||
            !std::isfinite(sched[i].from_hour) ||
            !(sched[i].cap_w >= 0.0))
            return fail("power_cap_schedule[" + std::to_string(i) +
                        "]: non-finite or negative point");
        if (i > 0 && sched[i].from_hour < sched[i - 1].from_hour)
            return fail("power_cap_schedule not sorted by from_hour");
    }
    const fault::FaultSpec& fs = spec.serve.faults;
    if (!(fs.crash_mtbf_hours >= 0.0) ||
        !(fs.crash_mttr_hours >= 0.0) ||
        !(fs.degrade_mtbf_hours >= 0.0) ||
        !(fs.degrade_mttr_hours >= 0.0))
        return fail("faults: negative (or NaN) MTBF/MTTR");
    if (!(fs.degrade_slowdown >= 1.0))
        return fail("faults: degrade_slowdown must be >= 1");
    for (size_t i = 0; i < fs.events.size(); ++i) {
        const fault::FaultEvent& e = fs.events[i];
        const std::string ctx =
            "faults.events[" + std::to_string(i) + "]: ";
        if (!(e.t_hours >= 0.0))
            return fail(ctx + "negative (or NaN) at_hour");
        if (e.fleet_index < 0 ||
            e.fleet_index >= static_cast<int>(spec.fleet.size()))
            return fail(ctx + "fleet index out of range");
        if (e.slot < 0 ||
            e.slot >= spec.fleet[e.fleet_index].shard_slots)
            return fail(ctx + "slot out of range");
        if (e.state == fault::HealthState::Degraded &&
            !(e.slowdown >= 1.0))
            return fail(ctx + "degraded slowdown must be >= 1");
    }
    const obs::ObsSpec& ob = spec.observability;
    if (!(ob.sample_rate >= 0.0) || !(ob.sample_rate <= 1.0))
        return fail("observability.sample_rate must be in [0, 1]");
    return true;
}

core::EfficiencyTable
profileTable(const ScenarioSpec& spec)
{
    validate(spec);
    core::ProfilerOptions popt;
    popt.search.measure.sim.num_queries = spec.profile.num_queries;
    popt.search.measure.sim.warmup_queries =
        spec.profile.warmup_queries;
    popt.search.measure.bisect_iters = spec.profile.bisect_iters;
    popt.search.measure.sim.seed = spec.profile.seed;
    for (const FleetEntry& e : spec.fleet)
        popt.servers.push_back(e.type);
    for (const ServiceScenario& s : spec.services) {
        bool seen = false;
        for (model::ModelId m : popt.models)
            seen = seen || m == s.spec.model;
        if (!seen)
            popt.models.push_back(s.spec.model);
    }

    // A cache profiled for another grid (another spec sharing the
    // file) would serve this one without rows: trust it only when it
    // covers every (fleet type, service model) pair.
    const std::string& cache = spec.profile.table_cache;
    if (!cache.empty() && std::filesystem::exists(cache)) {
        if (auto cached = core::EfficiencyTable::tryReadCsv(cache)) {
            std::string missing = missingPair(*cached, popt);
            if (missing.empty())
                return *cached;
            logWarn("scenario",
                    "'%s': table cache %s has no entry for %s: "
                    "re-profiling",
                    spec.name.c_str(), cache.c_str(), missing.c_str());
        }
    }

    // One engine for the whole grid; the memo spill warm-starts
    // repeated runs (and CI jobs restoring it from an actions cache).
    core::EvalEngine engine(popt.search.eval);
    if (!spec.profile.eval_memo.empty())
        engine.loadCache(spec.profile.eval_memo);
    popt.search.engine = &engine;

    core::EfficiencyTable table = core::offlineProfile(popt);

    if (!spec.profile.eval_memo.empty())
        engine.saveCache(spec.profile.eval_memo);
    if (!spec.profile.table_cache.empty())
        table.writeCsv(spec.profile.table_cache);
    return table;
}

double
fleetCapacityQps(const ScenarioSpec& spec, model::ModelId m,
                 const core::EfficiencyTable& table)
{
    double capacity = 0.0;
    for (const FleetEntry& e : spec.fleet) {
        const core::EfficiencyEntry* ent = table.get(e.type, m);
        if (ent != nullptr && ent->feasible)
            capacity += e.shard_slots * ent->qps;
    }
    return capacity;
}

void
resolvePeaks(ScenarioSpec& spec, const core::EfficiencyTable& table)
{
    for (ServiceScenario& s : spec.services) {
        if (s.name.empty())
            s.name = model::modelName(s.spec.model);
        if (s.peak_qps_frac <= 0.0)
            continue;
        double capacity = fleetCapacityQps(spec, s.spec.model, table);
        if (!(capacity > 0.0)) {
            std::string fleet;
            for (const FleetEntry& e : spec.fleet)
                fleet += std::string(fleet.empty() ? "" : ", ") +
                         hw::serverTypeName(e.type) + " x" +
                         std::to_string(e.shard_slots);
            fatal("resolvePeaks: service '%s' sizes its peak as "
                  "peak_qps_frac %g of the fleet's capacity, but no "
                  "fleet type with slots has a feasible efficiency-table "
                  "row for %s (fleet: %s)",
                  s.name.c_str(), s.peak_qps_frac,
                  model::modelName(s.spec.model),
                  fleet.empty() ? "empty" : fleet.c_str());
        }
        s.spec.load.peak_qps = s.peak_qps_frac * capacity;
        s.peak_qps_frac = 0.0;
    }
}

ScenarioResult
run(const ScenarioSpec& spec, const core::EfficiencyTable* table)
{
    // Opt-in lint gate: reject statically-broken specs before any
    // profiling or trace generation spends time on them.
    if (spec.lint) {
        std::vector<Diagnostic> ds = lint(spec, table);
        std::string errs;
        for (const Diagnostic& d : ds)
            if (d.severity == Severity::Error)
                errs += (errs.empty() ? "" : "; ") +
                        formatDiagnostic(d);
        if (!errs.empty())
            fatal("scenario '%s' rejected by lint gate: %s",
                  spec.name.c_str(), errs.c_str());
    }
    validate(spec);

    ScenarioResult out;
    obs::WallTimer profile_timer;
    out.table = table != nullptr ? *table : profileTable(spec);
    out.profile_wall_ms = profile_timer.elapsedMs();

    out.resolved = spec;
    std::vector<hw::ServerType> fleet;
    std::vector<int> slots;
    for (const FleetEntry& e : spec.fleet) {
        fleet.push_back(e.type);
        slots.push_back(e.shard_slots);
    }

    // Resolve fraction-of-capacity peaks against the profiled table
    // and fill display names, so `resolved` replays without either.
    resolvePeaks(out.resolved, out.table);
    std::vector<cluster::ServiceSpec> services;
    for (const ServiceScenario& s : out.resolved.services)
        services.push_back(s.spec);

    std::unique_ptr<cluster::Provisioner> policy =
        makeProvisioner(spec);

    // Telemetry (spec "observability" block): attach a sink for the
    // serve phase, then emit the configured files. With both files
    // empty no sink is attached — the pre-telemetry path, bit-exact.
    obs::Telemetry telemetry(spec.observability);
    cluster::TraceServeOptions sopt = spec.serve;
    if (spec.observability.enabled())
        sopt.telemetry = &telemetry;

    obs::WallTimer serve_timer;
    out.serve = cluster::serveTraces(out.table, fleet, slots, services,
                                     *policy, sopt);
    out.serve_wall_ms = serve_timer.elapsedMs();

    // A requested export that cannot be written fails the run: a
    // caller must never read a stale or missing file as this run's.
    if (!telemetry.writeTraceFile())
        fatal("scenario '%s': cannot write trace file '%s'",
              spec.name.c_str(), spec.observability.trace_file.c_str());
    if (!telemetry.writeMetricsFile())
        fatal("scenario '%s': cannot write metrics file '%s'",
              spec.name.c_str(), spec.observability.metrics_file.c_str());
    return out;
}

void
writeResultFields(std::FILE* f, const ScenarioResult& r,
                  const char* indent)
{
    const ScenarioSpec& spec = r.resolved;
    const sim::ClusterSimResult& sim = r.serve.sim;
    const char* in = indent;

    std::fprintf(f, "%s\"scenario\": \"%s\",\n", in, spec.name.c_str());
    std::fprintf(f, "%s\"provisioner\": \"%s\",\n", in,
                 provisionerKindName(spec.provisioner));
    std::fprintf(f, "%s\"router\": \"%s\",\n", in,
                 sim::routerPolicyName(spec.serve.router));
    std::fprintf(f, "%s\"admission\": \"%s\",\n", in,
                 qos::admissionPolicyName(spec.serve.admission.policy));
    std::fprintf(f, "%s\"horizon_hours\": %.2f,\n", in,
                 spec.serve.horizon_hours);
    std::fprintf(f, "%s\"interval_hours\": %.2f,\n", in,
                 spec.serve.interval_hours);
    std::fprintf(f, "%s\"time_compression\": %.0f,\n", in,
                 spec.serve.trace.time_compression);
    if (std::isfinite(spec.serve.power_cap_w))
        std::fprintf(f, "%s\"power_cap_w\": %.2f,\n", in,
                     spec.serve.power_cap_w);
    if (!spec.serve.power_cap_schedule.empty()) {
        std::fprintf(f, "%s\"power_cap_schedule\": [", in);
        const auto& sched = spec.serve.power_cap_schedule;
        for (size_t i = 0; i < sched.size(); ++i)
            std::fprintf(f, "%s{\"from_hour\": %.2f, \"cap_w\": %.2f}",
                         i ? ", " : "", sched[i].from_hour,
                         sched[i].cap_w);
        std::fprintf(f, "],\n");
    }
    std::fprintf(f, "%s\"estimated_r\": %.4f,\n", in,
                 r.serve.estimated_r);
    std::fprintf(f, "%s\"trace_queries\": %zu,\n", in,
                 r.serve.trace_queries);
    std::fprintf(f, "%s\"reprovisions\": %d,\n", in,
                 r.serve.reprovisions);
    std::fprintf(f, "%s\"shard_slots\": %d,\n", in, r.serve.shard_slots);
    std::fprintf(f, "%s\"profile_wall_ms\": %.1f,\n", in,
                 r.profile_wall_ms);
    std::fprintf(f, "%s\"serve_wall_ms\": %.1f,\n", in, r.serve_wall_ms);

    std::fprintf(f, "%s\"services\": [\n", in);
    for (size_t s = 0; s < spec.services.size(); ++s) {
        const ServiceScenario& svc = spec.services[s];
        const sim::ServiceRunStats& st = sim.services[s];
        std::fprintf(
            f,
            "%s  {\"name\": \"%s\", \"model\": \"%s\", "
            "\"peak_qps\": %.1f, \"peak_hour\": %.2f, "
            "\"priority\": %d, \"tier\": \"%s\", \"sla_ms\": %.2f, "
            "\"capacity_qps\": %.1f, \"estimated_r\": %.4f, "
            "\"injected\": %zu, \"completed\": %zu, \"rejected\": %zu, "
            "\"dropped\": %zu, \"failed_inflight\": %zu, "
            "\"p50_ms\": %.4f, \"p99_ms\": %.4f, "
            "\"sla_violations\": %zu, \"sla_violation_rate\": %.6f}%s\n",
            in, svc.name.c_str(), model::modelName(svc.spec.model),
            svc.spec.load.peak_qps, svc.spec.load.peak_hour,
            svc.spec.qos.priority, qos::tierName(svc.spec.qos.tier),
            r.serve.service_sla_ms[s], r.serve.service_capacity_qps[s],
            r.serve.service_r[s], st.injected, st.completed,
            st.rejected, st.dropped, st.failed_inflight, st.p50_ms,
            st.p99_ms, st.sla_violations, st.sla_violation_rate,
            s + 1 < spec.services.size() ? "," : "");
    }
    std::fprintf(f, "%s],\n", in);

    std::fprintf(f, "%s\"injected\": %zu,\n", in, sim.injected);
    std::fprintf(f, "%s\"completed\": %zu,\n", in, sim.completed);
    std::fprintf(f, "%s\"rejected\": %zu,\n", in, sim.rejected);
    std::fprintf(f, "%s\"dropped\": %zu,\n", in, sim.dropped);
    std::fprintf(f, "%s\"failed_inflight\": %zu,\n", in,
                 sim.failed_inflight);
    std::fprintf(f, "%s\"admission_retries\": %zu,\n", in,
                 sim.admission_retries);
    std::fprintf(f, "%s\"p50_ms\": %.4f,\n", in, sim.p50_ms);
    std::fprintf(f, "%s\"p99_ms\": %.4f,\n", in, sim.p99_ms);
    std::fprintf(f, "%s\"sla_violations\": %zu,\n", in,
                 sim.sla_violations);
    std::fprintf(f, "%s\"sla_violation_rate\": %.6f,\n", in,
                 sim.sla_violation_rate);
    std::fprintf(f, "%s\"avg_provisioned_power_w\": %.2f,\n", in,
                 sim.avg_provisioned_power_w);
    std::fprintf(f, "%s\"avg_consumed_power_w\": %.2f,\n", in,
                 sim.avg_consumed_power_w);

    // Fault timeline: every applied health transition. Always emitted
    // (empty array on fault-free runs) so consumers never key-check.
    std::fprintf(f, "%s\"health_transitions\": [", in);
    for (size_t i = 0; i < sim.health_transitions.size(); ++i) {
        const sim::HealthTransition& ht = sim.health_transitions[i];
        std::fprintf(f,
                     "%s\n%s  {\"t_s\": %.2f, \"shard\": %d, "
                     "\"service\": %d, \"from\": \"%s\", \"to\": \"%s\", "
                     "\"slowdown\": %.2f, \"killed_inflight\": %zu}",
                     i ? "," : "", in, ht.t_s, ht.shard, ht.service,
                     fault::healthStateName(ht.from),
                     fault::healthStateName(ht.to), ht.slowdown,
                     ht.killed_inflight);
    }
    if (!sim.health_transitions.empty())
        std::fprintf(f, "\n%s", in);
    std::fprintf(f, "],\n");

    // DES self-profile: event counts are deterministic, wall timings
    // are provenance (vary run to run).
    std::fprintf(f, "%s\"des_events_executed\": %llu,\n", in,
                 static_cast<unsigned long long>(sim.des.events_executed));
    std::fprintf(f, "%s\"des_peak_event_queue_depth\": %zu,\n", in,
                 sim.des.peak_event_queue_depth);
    std::fprintf(f, "%s\"des_events_per_sec\": %.0f,\n", in,
                 sim.des.events_per_sec);

    hercules::sim::writeIntervalArraysJson(f, sim.intervals, in);
}

bool
writeResultJson(const std::string& path, const ScenarioResult& r,
                const char* git_sha, const std::string& generated_at)
{
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"git_sha\": \"%s\",\n", git_sha);
    std::fprintf(
        f, "  \"generated_at\": \"%s\",\n",
        generated_at.empty() ? isoUtcTimestamp().c_str()
                             : generated_at.c_str());
    writeResultFields(f, r, "  ");
    std::fprintf(f, "}\n");
    std::fclose(f);
    return true;
}

}  // namespace hercules::scenario
