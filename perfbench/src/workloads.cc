#include "workloads.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "scenario/spec_io.h"

namespace perfbench {

namespace scn = hercules::scenario;

namespace {

struct WorkloadInfo
{
    Workload id;
    const char* name;
    const char* file;  ///< base scenario under the scenario dir
};

constexpr WorkloadInfo kWorkloads[] = {
    {Workload::PhaseShift24h, "phase_shift_24h",
     "three_service_phase_shift.scn"},
    {Workload::CrashJsqTelemetry, "crash_jsq_telemetry",
     "shard_crash_recovery.scn"},
    {Workload::ProfileCold, "profile_cold",
     "three_service_phase_shift.scn"},
};

const WorkloadInfo&
info(Workload w)
{
    for (const WorkloadInfo& i : kWorkloads)
        if (i.id == w)
            return i;
    std::abort();
}

}  // namespace

bool
parseWorkload(const std::string& name, Workload* w)
{
    for (const WorkloadInfo& i : kWorkloads)
        if (name == i.name) {
            *w = i.id;
            return true;
        }
    return false;
}

const char*
workloadName(Workload w)
{
    return info(w).name;
}

bool
isServing(Workload w)
{
    return w != Workload::ProfileCold;
}

scn::ScenarioSpec
generateSpec(Workload w, const GenOptions& opt)
{
    const std::string path = opt.scenario_dir + "/" + info(w).file;
    std::string err;
    std::optional<scn::ScenarioSpec> parsed =
        scn::loadSpecFile(path, &err);
    if (!parsed) {
        std::fprintf(stderr, "perfbench: cannot load %s: %s\n",
                     path.c_str(), err.c_str());
        std::exit(2);
    }
    scn::ScenarioSpec spec = std::move(*parsed);

    // The seed moves every random stream of serving: the load ripples,
    // the arrival trace, the routers, the NH provisioner and the fault
    // processes. The profiling seed stays the file's: it changes the
    // efficiency table, and peak loads resolve against the table's
    // capacity, so it would change the amount of work by more than the
    // benchmark's bounds (README.md).
    for (scn::ServiceScenario& s : spec.services)
        s.spec.load.seed += opt.seed;
    spec.serve.trace.seed += opt.seed;
    spec.serve.router_seed += opt.seed;
    spec.serve.faults.seed += opt.seed;
    spec.nh_seed += opt.seed;

    spec.profile.table_cache = opt.tmp_dir + "/efficiency_table.csv";
    spec.profile.eval_memo = opt.tmp_dir + "/eval_memo.tsv";
    spec.observability = hercules::obs::ObsSpec{};
    if (w == Workload::CrashJsqTelemetry) {
        spec.serve.router = hercules::sim::RouterPolicy::LeastOutstanding;
        spec.observability.trace_file = opt.tmp_dir + "/trace.jsonl";
        spec.observability.metrics_file = opt.tmp_dir + "/metrics.txt";
        spec.observability.sample_rate = 0.05;
    }
    if (opt.horizon_hours > 0.0)
        spec.serve.horizon_hours = opt.horizon_hours;
    return spec;
}

void
clearCaches(const scn::ScenarioSpec& spec)
{
    std::error_code ec;
    std::filesystem::remove(spec.profile.table_cache, ec);
    std::filesystem::remove(spec.profile.eval_memo, ec);
}

}  // namespace perfbench
