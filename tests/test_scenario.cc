/**
 * @file
 * Tests of the declarative scenario API (src/scenario/): exact text
 * round-trip on every shipped .scn in scenarios/, field-by-field
 * round-trip of every spec key, seeded byte mutants of the shipped
 * files (fixed point or a line-numbered error), duplicate/unknown-key
 * rejection with 1-based line numbers, default-spec == legacy-defaults
 * equivalence, the time-varying power-cap schedule, and the golden
 * pin that scenario::run() on a spec mirroring bench_multiservice's
 * joint-arm wiring reproduces a hand-wired cluster::serveTraces()
 * call bit-identically, the result JSON's arrival accounting, and the
 * table cache's grid-coverage check.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/serving.h"
#include "fault/fault.h"
#include "model/model_zoo.h"
#include "scenario/lint.h"
#include "scenario/scenario.h"
#include "scenario/spec_io.h"

namespace hercules::scenario {
namespace {

using hw::ServerType;
using model::ModelId;

std::string
scenarioDir()
{
#ifdef HERCULES_SCENARIO_DIR
    return HERCULES_SCENARIO_DIR;
#else
    return "../scenarios";
#endif
}

std::string
readFile(const std::filesystem::path& p)
{
    std::ifstream in(p);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Field-by-field equality, written out apart from the spec tables. */
void
expectSameSpec(const ScenarioSpec& a, const ScenarioSpec& b)
{
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.description, b.description);
    ASSERT_EQ(a.fleet.size(), b.fleet.size());
    for (size_t i = 0; i < a.fleet.size(); ++i) {
        EXPECT_EQ(a.fleet[i].type, b.fleet[i].type) << i;
        EXPECT_EQ(a.fleet[i].shard_slots, b.fleet[i].shard_slots) << i;
    }
    ASSERT_EQ(a.services.size(), b.services.size());
    for (size_t i = 0; i < a.services.size(); ++i) {
        const ServiceScenario& x = a.services[i];
        const ServiceScenario& y = b.services[i];
        EXPECT_EQ(x.name, y.name);
        EXPECT_EQ(x.peak_qps_frac, y.peak_qps_frac);
        EXPECT_EQ(x.spec.model, y.spec.model);
        EXPECT_EQ(x.spec.load.peak_qps, y.spec.load.peak_qps);
        EXPECT_EQ(x.spec.load.trough_frac, y.spec.load.trough_frac);
        EXPECT_EQ(x.spec.load.peak_hour, y.spec.load.peak_hour);
        EXPECT_EQ(x.spec.load.noise_frac, y.spec.load.noise_frac);
        EXPECT_EQ(x.spec.load.seed, y.spec.load.seed);
        EXPECT_EQ(x.spec.load.surge_hour, y.spec.load.surge_hour);
        EXPECT_EQ(x.spec.load.surge_hours, y.spec.load.surge_hours);
        EXPECT_EQ(x.spec.load.surge_factor, y.spec.load.surge_factor);
        EXPECT_EQ(x.spec.sla_ms, y.spec.sla_ms);
        EXPECT_EQ(x.spec.qos.priority, y.spec.qos.priority);
        EXPECT_EQ(x.spec.qos.tier, y.spec.qos.tier);
        EXPECT_EQ(x.spec.qos.sla_ms, y.spec.qos.sla_ms);
        EXPECT_EQ(x.spec.sizes.median, y.spec.sizes.median);
        EXPECT_EQ(x.spec.sizes.sigma, y.spec.sizes.sigma);
        EXPECT_EQ(x.spec.sizes.min_size, y.spec.sizes.min_size);
        EXPECT_EQ(x.spec.sizes.max_size, y.spec.sizes.max_size);
        EXPECT_EQ(x.spec.pooling.sigma, y.spec.pooling.sigma);
    }
    EXPECT_EQ(a.provisioner, b.provisioner);
    EXPECT_EQ(a.nh_seed, b.nh_seed);

    const cluster::TraceServeOptions& x = a.serve;
    const cluster::TraceServeOptions& y = b.serve;
    EXPECT_EQ(x.router, y.router);
    EXPECT_EQ(x.router_seed, y.router_seed);
    EXPECT_EQ(x.feedback.gain, y.feedback.gain);
    EXPECT_EQ(x.feedback.floor_frac, y.feedback.floor_frac);
    EXPECT_EQ(x.admission.policy, y.admission.policy);
    EXPECT_EQ(x.admission.queue_cap, y.admission.queue_cap);
    EXPECT_EQ(x.admission.deadline_slack, y.admission.deadline_slack);
    EXPECT_EQ(x.admission.cross_shard_retry, y.admission.cross_shard_retry);
    EXPECT_EQ(x.horizon_hours, y.horizon_hours);
    EXPECT_EQ(x.interval_hours, y.interval_hours);
    EXPECT_EQ(x.sla_ms, y.sla_ms);
    EXPECT_EQ(x.overprovision_rate, y.overprovision_rate);
    EXPECT_EQ(x.power_cap_w, y.power_cap_w);
    ASSERT_EQ(x.power_cap_schedule.size(), y.power_cap_schedule.size());
    for (size_t i = 0; i < x.power_cap_schedule.size(); ++i) {
        EXPECT_EQ(x.power_cap_schedule[i].from_hour,
                  y.power_cap_schedule[i].from_hour);
        EXPECT_EQ(x.power_cap_schedule[i].cap_w,
                  y.power_cap_schedule[i].cap_w);
    }
    EXPECT_EQ(x.faults.seed, y.faults.seed);
    EXPECT_EQ(x.faults.crash_mtbf_hours, y.faults.crash_mtbf_hours);
    EXPECT_EQ(x.faults.crash_mttr_hours, y.faults.crash_mttr_hours);
    EXPECT_EQ(x.faults.degrade_mtbf_hours, y.faults.degrade_mtbf_hours);
    EXPECT_EQ(x.faults.degrade_mttr_hours, y.faults.degrade_mttr_hours);
    EXPECT_EQ(x.faults.degrade_slowdown, y.faults.degrade_slowdown);
    ASSERT_EQ(x.faults.events.size(), y.faults.events.size());
    for (size_t i = 0; i < x.faults.events.size(); ++i) {
        const fault::FaultEvent& e = x.faults.events[i];
        const fault::FaultEvent& f = y.faults.events[i];
        EXPECT_EQ(e.t_hours, f.t_hours);
        EXPECT_EQ(e.fleet_index, f.fleet_index);
        EXPECT_EQ(e.slot, f.slot);
        EXPECT_EQ(e.state, f.state);
        EXPECT_EQ(e.slowdown, f.slowdown);
    }
    EXPECT_EQ(x.trace.bucket_seconds, y.trace.bucket_seconds);
    EXPECT_EQ(x.trace.time_compression, y.trace.time_compression);
    EXPECT_EQ(x.trace.seed, y.trace.seed);

    EXPECT_EQ(a.profile.table_cache, b.profile.table_cache);
    EXPECT_EQ(a.profile.eval_memo, b.profile.eval_memo);
    EXPECT_EQ(a.profile.num_queries, b.profile.num_queries);
    EXPECT_EQ(a.profile.warmup_queries, b.profile.warmup_queries);
    EXPECT_EQ(a.profile.bisect_iters, b.profile.bisect_iters);
    EXPECT_EQ(a.profile.seed, b.profile.seed);
    EXPECT_EQ(a.observability.trace_file, b.observability.trace_file);
    EXPECT_EQ(a.observability.metrics_file, b.observability.metrics_file);
    EXPECT_EQ(a.observability.sample_rate, b.observability.sample_rate);
}

// ---- shipped-library round trip ------------------------------------------

TEST(SpecIo, ShippedScenariosRoundTripExactly)
{
    size_t n = 0;
    for (const auto& ent :
         std::filesystem::directory_iterator(scenarioDir())) {
        if (ent.path().extension() != ".scn")
            continue;
        ++n;
        std::string text = readFile(ent.path());
        std::string err;
        auto spec = parseSpec(text, &err);
        ASSERT_TRUE(spec.has_value())
            << ent.path() << ": " << err;
        // The shipped files are in canonical form: serializing the
        // parsed spec reproduces the file byte for byte...
        EXPECT_EQ(toText(*spec), text) << ent.path();
        // ...and the round trip is a fixed point.
        auto again = parseSpec(toText(*spec), &err);
        ASSERT_TRUE(again.has_value()) << ent.path() << ": " << err;
        EXPECT_EQ(toText(*again), toText(*spec)) << ent.path();
    }
    EXPECT_GE(n, 6u) << "shipped scenario library shrank";
}

TEST(SpecIo, EveryNonDefaultFieldRoundTrips)
{
    ScenarioSpec s;
    s.name = "all_knobs";
    s.description = "escapes: \"quote\" \\ tab\t newline\n done";
    s.fleet = {{ServerType::T2, 2}, {ServerType::T10, 3}};
    ServiceScenario svc;
    svc.name = "ranker";
    svc.spec.model = ModelId::Dien;
    svc.peak_qps_frac = 0.25;
    svc.spec.load.peak_qps = 123.5;
    svc.spec.load.trough_frac = 0.5;
    svc.spec.load.peak_hour = 7.25;
    svc.spec.load.noise_frac = 0.01;
    svc.spec.load.seed = 99;
    svc.spec.load.surge_hour = 6.0;
    svc.spec.load.surge_hours = 1.5;
    svc.spec.load.surge_factor = 2.0;
    svc.spec.sla_ms = 31.0;
    svc.spec.qos.priority = 3;
    svc.spec.qos.tier = qos::Tier::Throughput;
    svc.spec.qos.sla_ms = 40.0;
    svc.spec.sizes.median = 70.0;
    svc.spec.sizes.sigma = 0.9;
    svc.spec.sizes.min_size = 5;
    svc.spec.sizes.max_size = 500;
    svc.spec.pooling.sigma = 0.45;
    s.services.push_back(svc);
    s.provisioner = ProvisionerKind::PriorityAware;
    s.nh_seed = 23;
    s.serve.router = sim::RouterPolicy::PowerOfTwo;
    s.serve.router_seed = 9;
    s.serve.feedback.gain = 0.2;
    s.serve.feedback.floor_frac = 0.1;
    s.serve.admission.policy = qos::AdmissionPolicy::QueueCap;
    s.serve.admission.queue_cap = 17;
    s.serve.admission.deadline_slack = 1.25;
    s.serve.admission.cross_shard_retry = false;
    s.serve.horizon_hours = 6.0;
    s.serve.interval_hours = 0.25;
    s.serve.sla_ms = 33.0;
    s.serve.overprovision_rate = 0.07;
    s.serve.power_cap_w = 512.125;
    s.serve.power_cap_schedule = {{3.0, 400.0}, {5.0, 1e9}};
    s.serve.faults.seed = 11;
    s.serve.faults.crash_mtbf_hours = 8.0;
    s.serve.faults.crash_mttr_hours = 0.75;
    s.serve.faults.degrade_mtbf_hours = 6.0;
    s.serve.faults.degrade_mttr_hours = 2.0;
    s.serve.faults.degrade_slowdown = 3.5;
    s.serve.faults.events = {
        {1.5, 1, 2, fault::HealthState::Failed, 1.0},
        {2.25, 1, 2, fault::HealthState::Healthy, 1.0},
        {4.0, 0, 1, fault::HealthState::Degraded, 2.5},
    };
    s.serve.trace.bucket_seconds = 30.0;
    s.serve.trace.time_compression = 480.0;
    s.serve.trace.seed = 1234;
    s.profile.table_cache = "t.csv";
    s.profile.eval_memo = "m.tsv";
    s.profile.num_queries = 111;
    s.profile.warmup_queries = 22;
    s.profile.bisect_iters = 3;
    s.profile.seed = 77;
    s.observability.trace_file = "trace.jsonl";
    s.observability.metrics_file = "metrics.csv";
    s.observability.sample_rate = 0.125;

    std::string text = toText(s);
    std::string err;
    auto parsed = parseSpec(text, &err);
    ASSERT_TRUE(parsed.has_value()) << err;
    EXPECT_EQ(toText(*parsed), text);
    expectSameSpec(*parsed, s);

    // A round trip alone cannot see two keys whose members are swapped
    // in both directions. Every value in `s` is distinct within its
    // object, so pinning the text each key carries catches any key
    // bound to the wrong member.
    const std::string golden =
        "{\n"
        "  \"name\": \"all_knobs\",\n"
        "  \"description\": \"escapes: \\\"quote\\\" \\\\ tab\\t newline\\n "
        "done\",\n"
        "  \"fleet\": [\n"
        "    {\"type\": \"T2\", \"slots\": 2},\n"
        "    {\"type\": \"T10\", \"slots\": 3}\n"
        "  ],\n"
        "  \"services\": [\n"
        "    {\n"
        "      \"name\": \"ranker\",\n"
        "      \"model\": \"DIEN\",\n"
        "      \"peak_qps_frac\": 0.25,\n"
        "      \"peak_qps\": 123.5,\n"
        "      \"trough_frac\": 0.5,\n"
        "      \"peak_hour\": 7.25,\n"
        "      \"noise_frac\": 0.01,\n"
        "      \"load_seed\": 99,\n"
        "      \"surge_hour\": 6,\n"
        "      \"surge_hours\": 1.5,\n"
        "      \"surge_factor\": 2,\n"
        "      \"sla_ms\": 31,\n"
        "      \"priority\": 3,\n"
        "      \"tier\": \"throughput\",\n"
        "      \"qos_sla_ms\": 40,\n"
        "      \"size_median\": 70,\n"
        "      \"size_sigma\": 0.9,\n"
        "      \"size_min\": 5,\n"
        "      \"size_max\": 500,\n"
        "      \"pooling_sigma\": 0.45\n"
        "    }\n"
        "  ],\n"
        "  \"provisioner\": \"priority-aware\",\n"
        "  \"nh_seed\": 23,\n"
        "  \"router\": \"p2c\",\n"
        "  \"router_seed\": 9,\n"
        "  \"feedback\": {\"gain\": 0.2, \"floor_frac\": 0.1},\n"
        "  \"admission\": {\"policy\": \"queue_cap\", \"queue_cap\": 17, "
        "\"deadline_slack\": 1.25, \"cross_shard_retry\": false},\n"
        "  \"horizon_hours\": 6,\n"
        "  \"interval_hours\": 0.25,\n"
        "  \"sla_ms\": 33,\n"
        "  \"overprovision_rate\": 0.07,\n"
        "  \"power_cap_w\": 512.125,\n"
        "  \"power_cap_schedule\": [\n"
        "    {\"from_hour\": 3, \"cap_w\": 400},\n"
        "    {\"from_hour\": 5, \"cap_w\": 1000000000}\n"
        "  ],\n"
        "  \"faults\": {\n"
        "    \"seed\": 11,\n"
        "    \"crash_mtbf_hours\": 8,\n"
        "    \"crash_mttr_hours\": 0.75,\n"
        "    \"degrade_mtbf_hours\": 6,\n"
        "    \"degrade_mttr_hours\": 2,\n"
        "    \"degrade_slowdown\": 3.5,\n"
        "    \"events\": [\n"
        "      {\"at_hour\": 1.5, \"fleet\": 1, \"slot\": 2, \"state\": "
        "\"failed\"},\n"
        "      {\"at_hour\": 2.25, \"fleet\": 1, \"slot\": 2, \"state\": "
        "\"healthy\"},\n"
        "      {\"at_hour\": 4, \"slot\": 1, \"state\": \"degraded\", "
        "\"slowdown\": 2.5}\n"
        "    ]\n"
        "  },\n"
        "  \"trace\": {\"bucket_seconds\": 30, \"time_compression\": 480, "
        "\"seed\": 1234},\n"
        "  \"profile\": {\"table_cache\": \"t.csv\", \"eval_memo\": \"m.tsv\", "
        "\"num_queries\": 111, \"warmup_queries\": 22, \"bisect_iters\": 3, "
        "\"seed\": 77},\n"
        "  \"observability\": {\"trace_file\": \"trace.jsonl\", "
        "\"metrics_file\": \"metrics.csv\", \"sample_rate\": 0.125}\n"
        "}\n";
    EXPECT_EQ(text, golden);
    auto from_golden = parseSpec(golden, &err);
    ASSERT_TRUE(from_golden.has_value()) << err;
    expectSameSpec(*from_golden, s);
}

/**
 * Seeded byte mutants of every shipped scenario either parse and
 * re-serialize to a fixed point, or fail with an error naming a line.
 */
TEST(SpecIo, MutatedShippedScenariosReachFixedPointOrNameALine)
{
    std::vector<std::filesystem::path> files;
    for (const auto& ent :
         std::filesystem::directory_iterator(scenarioDir()))
        if (ent.path().extension() == ".scn")
            files.push_back(ent.path());
    std::sort(files.begin(), files.end());  // seeded order
    ASSERT_GE(files.size(), 6u);

    auto names_line = [](const std::string& err) {
        size_t digits = err.find_first_not_of("0123456789", 5);
        return err.compare(0, 5, "line ") == 0 && digits > 5 &&
               digits != std::string::npos &&
               err.compare(digits, 2, ": ") == 0;
    };
    const std::string alphabet = "{}[]:,\"-.0123456789eE truefalsn\n\\_z";
    std::mt19937_64 rng(13);
    size_t parsed = 0;
    for (const auto& file : files) {
        const std::string base = readFile(file);
        for (int k = 0; k < 1500; ++k) {
            std::string t = base;
            for (int j = 1 + static_cast<int>(rng() % 3); j > 0; --j) {
                size_t pos = rng() % (t.size() + 1);
                char c = alphabet[rng() % alphabet.size()];
                switch (rng() % 4) {
                  case 0: if (pos < t.size()) t[pos] = c; break;
                  case 1: if (pos < t.size()) t.erase(pos, 1); break;
                  case 2: t.insert(pos, 1, c); break;
                  default: t.insert(pos, t.substr(pos, 1 + rng() % 12));
                }
            }
            std::string err;
            auto spec = parseSpec(t, &err);
            if (!spec.has_value()) {
                EXPECT_TRUE(names_line(err)) << file << ": " << err;
                continue;
            }
            ++parsed;
            std::string once = toText(*spec);
            auto again = parseSpec(once, &err);
            ASSERT_TRUE(again.has_value()) << file << ": " << err;
            EXPECT_EQ(toText(*again), once) << file;
        }
    }
    EXPECT_GT(parsed, 0u) << "no mutant parsed: the test checks nothing";
}

// ---- line/key-precise rejection ------------------------------------------

TEST(SpecIo, DuplicateKeyRejectedWithLine)
{
    std::string err;
    auto s = parseSpec("{\n  \"name\": \"x\",\n  \"name\": \"y\"\n}",
                       &err);
    EXPECT_FALSE(s.has_value());
    EXPECT_EQ(err, "line 3: duplicate key 'name'");
}

TEST(SpecIo, UnknownKeyRejectedWithLineAndContext)
{
    std::string err;
    auto s = parseSpec("{\n"
                       "  \"services\": [\n"
                       "    {\"model\": \"DLRM-RMC1\",\n"
                       "     \"peek_qps\": 3}\n"
                       "  ]\n"
                       "}",
                       &err);
    EXPECT_FALSE(s.has_value());
    EXPECT_EQ(err, "line 4: unknown key 'peek_qps' in services[0]");

    auto t = parseSpec("{\n  \"admission\": {\"polcy\": \"none\"}\n}",
                       &err);
    EXPECT_FALSE(t.has_value());
    EXPECT_EQ(err, "line 2: unknown key 'polcy' in admission");

    auto u = parseSpec("{\n  \"horizont\": 3\n}", &err);
    EXPECT_FALSE(u.has_value());
    EXPECT_EQ(err, "line 2: unknown key 'horizont' in scenario");

    // "lint" is no key: run() applies its lint gate to every spec.
    auto v = parseSpec("{\n  \"name\": \"x\",\n  \"lint\": true\n}", &err);
    EXPECT_FALSE(v.has_value());
    EXPECT_EQ(err, "line 3: unknown key 'lint' in scenario");
}

TEST(SpecIo, UnknownEnumNamesRejected)
{
    std::string err;
    EXPECT_FALSE(parseSpec("{\"fleet\": [{\"type\": \"T99\"}]}", &err)
                     .has_value());
    EXPECT_EQ(err, "line 1: unknown server type 'T99' in fleet[0]");

    EXPECT_FALSE(
        parseSpec("{\"services\": [{\"model\": \"GPT\"}]}", &err)
            .has_value());
    EXPECT_EQ(err, "line 1: unknown model 'GPT' in services[0]");

    EXPECT_FALSE(parseSpec("{\"router\": \"random\"}", &err)
                     .has_value());
    EXPECT_EQ(err, "line 1: unknown router policy 'random' in scenario");

    EXPECT_FALSE(parseSpec("{\"provisioner\": \"magic\"}", &err)
                     .has_value());
    EXPECT_EQ(err, "line 1: unknown provisioner 'magic' in scenario");
}

TEST(SpecIo, TypeMismatchNamesKeyAndLine)
{
    std::string err;
    EXPECT_FALSE(
        parseSpec("{\n  \"horizon_hours\": \"six\"\n}", &err)
            .has_value());
    EXPECT_EQ(err, "line 2: key 'horizon_hours' in scenario expects a "
                   "number (got a string)");

    // Integer keys reject fractional values.
    EXPECT_FALSE(
        parseSpec("{\"fleet\": [{\"type\": \"T2\", \"slots\": 1.5}]}",
                  &err)
            .has_value());
    EXPECT_EQ(err, "line 1: key 'slots' in fleet[0] expects an "
                   "integer (got a number)");
}

TEST(SpecIo, RequiredServiceAndFleetKeys)
{
    std::string err;
    EXPECT_FALSE(parseSpec("{\"services\": [{\"sla_ms\": 5}]}", &err)
                     .has_value());
    EXPECT_EQ(err, "line 1: missing key 'model' in services[0]");

    EXPECT_FALSE(
        parseSpec("{\"fleet\": [{\"slots\": 2}]}", &err).has_value());
    EXPECT_EQ(err, "line 1: missing key 'type' in fleet[0]");
}

TEST(SpecIo, SyntaxErrorsCarryLines)
{
    std::string err;
    EXPECT_FALSE(parseSpec("[1, 2]", &err).has_value());
    EXPECT_EQ(err, "line 1: top-level value must be an object");

    EXPECT_FALSE(parseSpec("{\n  \"name\": \"unterminated\n}", &err)
                     .has_value());
    EXPECT_EQ(err, "line 2: unterminated string");

    EXPECT_FALSE(parseSpec("{\"name\": \"x\"} trailing", &err)
                     .has_value());
    EXPECT_EQ(err,
              "line 1: trailing content after the top-level object");

    EXPECT_FALSE(parseSpec("{\"sla_ms\": 3.}", &err).has_value());
    EXPECT_EQ(err, "line 1: malformed number");

    EXPECT_FALSE(parseSpec("{\"sla_ms\": 1e999}", &err).has_value());
    EXPECT_EQ(err, "line 1: number out of range");
}

// ---- defaults mirror the legacy entry points -----------------------------

TEST(SpecDefaults, DefaultSpecMatchesLegacyServeDefaults)
{
    // A default ScenarioSpec must drive serveTraces exactly like a
    // default-constructed TraceServeOptions — the legacy entry
    // points' behaviour. Pin every field so drift in either struct
    // breaks this test, not an experiment.
    ScenarioSpec s;
    cluster::TraceServeOptions legacy;
    EXPECT_EQ(s.serve.horizon_hours, legacy.horizon_hours);
    EXPECT_EQ(s.serve.interval_hours, legacy.interval_hours);
    EXPECT_EQ(s.serve.sla_ms, legacy.sla_ms);
    EXPECT_EQ(s.serve.overprovision_rate, legacy.overprovision_rate);
    EXPECT_EQ(s.serve.power_cap_w, legacy.power_cap_w);
    EXPECT_TRUE(s.serve.power_cap_schedule.empty());
    EXPECT_EQ(s.serve.router, legacy.router);
    EXPECT_EQ(s.serve.router_seed, legacy.router_seed);
    EXPECT_EQ(s.serve.admission.policy, legacy.admission.policy);
    EXPECT_EQ(s.serve.admission.queue_cap, legacy.admission.queue_cap);
    EXPECT_EQ(s.serve.admission.deadline_slack,
              legacy.admission.deadline_slack);
    EXPECT_EQ(s.serve.admission.cross_shard_retry,
              legacy.admission.cross_shard_retry);
    EXPECT_EQ(s.serve.feedback.gain, legacy.feedback.gain);
    EXPECT_EQ(s.serve.feedback.floor_frac, legacy.feedback.floor_frac);
    EXPECT_EQ(s.serve.trace.horizon_hours, legacy.trace.horizon_hours);
    EXPECT_EQ(s.serve.trace.bucket_seconds,
              legacy.trace.bucket_seconds);
    EXPECT_EQ(s.serve.trace.time_compression,
              legacy.trace.time_compression);
    EXPECT_EQ(s.serve.trace.seed, legacy.trace.seed);
    EXPECT_EQ(s.provisioner, ProvisionerKind::Hercules);
    EXPECT_EQ(s.nh_seed, 17u);

    // Profiling defaults mirror the library measurement defaults.
    sim::MeasureOptions mo;
    EXPECT_EQ(s.profile.num_queries, mo.sim.num_queries);
    EXPECT_EQ(s.profile.warmup_queries, mo.sim.warmup_queries);
    EXPECT_EQ(s.profile.bisect_iters, mo.bisect_iters);
    EXPECT_EQ(s.profile.seed, mo.sim.seed);
    EXPECT_TRUE(s.profile.table_cache.empty());
    EXPECT_TRUE(s.profile.eval_memo.empty());

    // A default service spec is the legacy ServiceSpec.
    ServiceScenario svc;
    cluster::ServiceSpec legacy_svc;
    EXPECT_EQ(svc.spec.model, legacy_svc.model);
    EXPECT_EQ(svc.spec.load.peak_qps, legacy_svc.load.peak_qps);
    EXPECT_EQ(svc.spec.sla_ms, legacy_svc.sla_ms);
    EXPECT_EQ(svc.spec.qos.priority, legacy_svc.qos.priority);
    EXPECT_EQ(svc.peak_qps_frac, 0.0);

    // And the default spec's canonical text is the trivial one.
    EXPECT_EQ(toText(ScenarioSpec{}),
              "{\n  \"name\": \"scenario\"\n}\n");
}

// ---- time-varying power cap ----------------------------------------------

TEST(PowerCapSchedule, PowerCapAtSteps)
{
    const double inf = std::numeric_limits<double>::infinity();
    std::vector<cluster::PowerCapPoint> sched;
    // Empty schedule: the scalar cap alone.
    EXPECT_EQ(cluster::powerCapAt(sched, inf, 5.0), inf);
    EXPECT_EQ(cluster::powerCapAt(sched, 700.0, 5.0), 700.0);

    sched = {{18.0, 330.0}, {23.0, 1e9}};
    // Before the first point only the scalar applies.
    EXPECT_EQ(cluster::powerCapAt(sched, inf, 0.0), inf);
    EXPECT_EQ(cluster::powerCapAt(sched, 500.0, 17.99), 500.0);
    // Inside the brownout the step wins (min with the scalar).
    EXPECT_EQ(cluster::powerCapAt(sched, inf, 18.0), 330.0);
    EXPECT_EQ(cluster::powerCapAt(sched, inf, 22.5), 330.0);
    EXPECT_EQ(cluster::powerCapAt(sched, 200.0, 20.0), 200.0);
    // After the lift, the huge step leaves the scalar in charge.
    EXPECT_EQ(cluster::powerCapAt(sched, inf, 23.0), 1e9);
    EXPECT_EQ(cluster::powerCapAt(sched, 500.0, 23.5), 500.0);
}

// ---- golden: scenario::run == hand-wired serveTraces ---------------------

/** A valid CPU config for the hand-built efficiency entries. */
sched::SchedulingConfig
cpuConfig()
{
    sched::SchedulingConfig cfg;
    cfg.mapping = sched::Mapping::CpuModelBased;
    cfg.cpu_threads = 4;
    cfg.cores_per_thread = 1;
    cfg.batch = 64;
    return cfg;
}

/**
 * Hand-built (T1, T2) x (RMC1, RMC2, RMC3) efficiency table — the
 * bench_multiservice shape (heterogeneous types, three models)
 * without the profiling cost.
 */
core::EfficiencyTable
goldenTable()
{
    core::EfficiencyTable t;
    auto add = [&](ServerType st, ModelId m, double qps, double w) {
        core::EfficiencyEntry e;
        e.server = st;
        e.model = m;
        e.feasible = true;
        e.qps = qps;
        e.power_w = w;
        e.config = cpuConfig();
        t.set(e);
    };
    add(ServerType::T2, ModelId::DlrmRmc1, 2000.0, 100.0);
    add(ServerType::T2, ModelId::DlrmRmc2, 1000.0, 200.0);
    add(ServerType::T2, ModelId::DlrmRmc3, 1500.0, 120.0);
    add(ServerType::T1, ModelId::DlrmRmc1, 1200.0, 90.0);
    add(ServerType::T1, ModelId::DlrmRmc2, 600.0, 150.0);
    add(ServerType::T1, ModelId::DlrmRmc3, 900.0, 100.0);
    return t;
}

/**
 * The spec mirrors bench_multiservice's joint arm: three services
 * with phase-shifted peaks (20h / 12h / 4h, seeds 5/6/7, the small
 * RMC2 size-shaped) co-served on a shared heterogeneous fleet under
 * the Hercules provisioner, 0.5h intervals, compressed replay.
 */
ScenarioSpec
goldenSpec()
{
    ScenarioSpec spec;
    spec.name = "golden_multiservice";
    spec.fleet = {{ServerType::T2, 2}, {ServerType::T1, 1}};
    const ModelId ids[3] = {ModelId::DlrmRmc1, ModelId::DlrmRmc2,
                            ModelId::DlrmRmc3};
    const double peaks[3] = {400.0, 200.0, 300.0};
    for (int s = 0; s < 3; ++s) {
        ServiceScenario svc;
        svc.spec.model = ids[s];
        svc.spec.load.peak_qps = peaks[s];
        svc.spec.load.trough_frac = 0.35;
        svc.spec.load.peak_hour = 20.0 - 8.0 * s;
        svc.spec.load.seed = 5 + static_cast<uint64_t>(s);
        if (s == 1) {
            svc.spec.sizes.sigma = 0.7;
            svc.spec.sizes.max_size = 300;
        }
        spec.services.push_back(svc);
    }
    spec.serve.horizon_hours = 3.0;
    spec.serve.interval_hours = 0.5;
    spec.serve.trace.time_compression = 480.0;
    spec.serve.trace.seed = 42;
    return spec;
}

void
expectBitIdentical(const cluster::MultiServeResult& a,
                   const cluster::MultiServeResult& b)
{
    EXPECT_EQ(a.trace_queries, b.trace_queries);
    EXPECT_EQ(a.reprovisions, b.reprovisions);
    EXPECT_EQ(a.shard_slots, b.shard_slots);
    EXPECT_EQ(a.estimated_r, b.estimated_r);
    ASSERT_EQ(a.service_r.size(), b.service_r.size());
    for (size_t s = 0; s < a.service_r.size(); ++s) {
        EXPECT_EQ(a.service_r[s], b.service_r[s]);
        EXPECT_EQ(a.service_capacity_qps[s], b.service_capacity_qps[s]);
        EXPECT_EQ(a.service_sla_ms[s], b.service_sla_ms[s]);
    }
    EXPECT_EQ(a.sim.injected, b.sim.injected);
    EXPECT_EQ(a.sim.completed, b.sim.completed);
    EXPECT_EQ(a.sim.dropped, b.sim.dropped);
    EXPECT_EQ(a.sim.rejected, b.sim.rejected);
    EXPECT_EQ(a.sim.mean_ms, b.sim.mean_ms);
    EXPECT_EQ(a.sim.p50_ms, b.sim.p50_ms);
    EXPECT_EQ(a.sim.p99_ms, b.sim.p99_ms);
    EXPECT_EQ(a.sim.max_ms, b.sim.max_ms);
    EXPECT_EQ(a.sim.sla_violations, b.sim.sla_violations);
    EXPECT_EQ(a.sim.sla_violation_rate, b.sim.sla_violation_rate);
    EXPECT_EQ(a.sim.avg_provisioned_power_w,
              b.sim.avg_provisioned_power_w);
    EXPECT_EQ(a.sim.avg_consumed_power_w, b.sim.avg_consumed_power_w);
    ASSERT_EQ(a.sim.intervals.size(), b.sim.intervals.size());
    for (size_t k = 0; k < a.sim.intervals.size(); ++k) {
        const sim::IntervalStats& ia = a.sim.intervals[k];
        const sim::IntervalStats& ib = b.sim.intervals[k];
        EXPECT_EQ(ia.arrivals, ib.arrivals) << "interval " << k;
        EXPECT_EQ(ia.completions, ib.completions) << "interval " << k;
        EXPECT_EQ(ia.dropped, ib.dropped) << "interval " << k;
        EXPECT_EQ(ia.rejected, ib.rejected) << "interval " << k;
        EXPECT_EQ(ia.p50_ms, ib.p50_ms) << "interval " << k;
        EXPECT_EQ(ia.p99_ms, ib.p99_ms) << "interval " << k;
        EXPECT_EQ(ia.sla_violation_rate, ib.sla_violation_rate)
            << "interval " << k;
        EXPECT_EQ(ia.provisioned_power_w, ib.provisioned_power_w)
            << "interval " << k;
        EXPECT_EQ(ia.consumed_power_w, ib.consumed_power_w)
            << "interval " << k;
        EXPECT_EQ(ia.power_capped, ib.power_capped)
            << "interval " << k;
    }
    ASSERT_EQ(a.sim.services.size(), b.sim.services.size());
    for (size_t s = 0; s < a.sim.services.size(); ++s) {
        const sim::ServiceRunStats& sa = a.sim.services[s];
        const sim::ServiceRunStats& sb = b.sim.services[s];
        EXPECT_EQ(sa.injected, sb.injected);
        EXPECT_EQ(sa.completed, sb.completed);
        EXPECT_EQ(sa.dropped, sb.dropped);
        EXPECT_EQ(sa.rejected, sb.rejected);
        EXPECT_EQ(sa.p50_ms, sb.p50_ms);
        EXPECT_EQ(sa.p99_ms, sb.p99_ms);
        EXPECT_EQ(sa.sla_violations, sb.sla_violations);
        EXPECT_EQ(sa.sla_violation_rate, sb.sla_violation_rate);
    }
}

TEST(ScenarioRun, GoldenBitIdenticalToServeTraces)
{
    core::EfficiencyTable table = goldenTable();
    ScenarioSpec spec = goldenSpec();

    // The hand-wired legacy call the spec claims to subsume.
    std::vector<cluster::ServiceSpec> services;
    for (const ServiceScenario& s : spec.services)
        services.push_back(s.spec);
    cluster::HerculesProvisioner provisioner;
    cluster::MultiServeResult direct = cluster::serveTraces(
        table, {ServerType::T2, ServerType::T1}, {2, 1}, services,
        provisioner, spec.serve);

    ScenarioResult via_spec = run(spec, &table);
    expectBitIdentical(via_spec.serve, direct);

    // The spec survives a text round trip with the run untouched.
    std::string err;
    auto reparsed = parseSpec(toText(spec), &err);
    ASSERT_TRUE(reparsed.has_value()) << err;
    ScenarioResult via_text = run(*reparsed, &table);
    expectBitIdentical(via_text.serve, direct);
}

TEST(ScenarioRun, SingletonScheduleEqualsScalarCap)
{
    core::EfficiencyTable table = goldenTable();
    ScenarioSpec scalar = goldenSpec();
    scalar.serve.power_cap_w = 450.0;

    ScenarioSpec sched = goldenSpec();
    sched.serve.power_cap_schedule = {{0.0, 450.0}};

    ScenarioResult a = run(scalar, &table);
    ScenarioResult b = run(sched, &table);
    expectBitIdentical(a.serve, b.serve);
}

TEST(ScenarioRun, ScheduleCapsOnlyInsideWindow)
{
    core::EfficiencyTable table = goldenTable();
    ScenarioSpec spec = goldenSpec();
    // A one-interval brownout in [1h, 1.5h) far below the plan.
    spec.serve.power_cap_schedule = {{1.0, 150.0}, {1.5, 1e9}};

    ScenarioResult r = run(spec, &table);
    ScenarioSpec uncapped = goldenSpec();
    ScenarioResult base = run(uncapped, &table);

    const auto& ivs = r.serve.sim.intervals;
    ASSERT_GE(ivs.size(), 4u);
    EXPECT_FALSE(ivs[0].power_capped);
    EXPECT_FALSE(ivs[1].power_capped);
    EXPECT_TRUE(ivs[2].power_capped);  // [1h, 1.5h)
    EXPECT_LE(ivs[2].provisioned_power_w, 150.0);
    EXPECT_FALSE(ivs[3].power_capped);
    // Outside the window the plan matches the uncapped run.
    EXPECT_EQ(ivs[0].provisioned_power_w,
              base.serve.sim.intervals[0].provisioned_power_w);
    EXPECT_EQ(ivs[3].provisioned_power_w,
              base.serve.sim.intervals[3].provisioned_power_w);
}

TEST(ScenarioRun, UnsortedScheduleIsFatal)
{
    core::EfficiencyTable table = goldenTable();
    ScenarioSpec spec = goldenSpec();
    spec.serve.power_cap_schedule = {{2.0, 100.0}, {1.0, 200.0}};
    EXPECT_DEATH(run(spec, &table), "power_cap_schedule");
}

TEST(ScenarioRun, UnwritableExportIsFatalAndNamesThePath)
{
    core::EfficiencyTable table = goldenTable();
    ScenarioSpec trace = goldenSpec();
    trace.observability.trace_file = "no_such_dir/t.jsonl";
    EXPECT_DEATH(run(trace, &table),
                 "cannot write trace file 'no_such_dir/t.jsonl'");
    ScenarioSpec metrics = goldenSpec();
    metrics.observability.metrics_file = "no_such_dir/m.txt";
    EXPECT_DEATH(run(metrics, &table),
                 "cannot write metrics file 'no_such_dir/m.txt'");
}

TEST(ScenarioRun, PeakFracWithoutCapacityNamesTheService)
{
    // No fleet type has a feasible RMC1 row: the fraction has nothing
    // to scale, and the failure names the service and the fleet
    // instead of a later "non-positive peak" deep in the load model.
    core::EfficiencyTable table = goldenTable();
    for (ServerType t : {ServerType::T1, ServerType::T2}) {
        core::EfficiencyEntry e = *table.get(t, ModelId::DlrmRmc1);
        e.feasible = false;
        table.set(e);
    }
    ScenarioSpec spec = goldenSpec();
    spec.services[0].name = "ranker";
    spec.services[0].peak_qps_frac = 0.5;
    EXPECT_DEATH(resolvePeaks(spec, table),
                 "service 'ranker'.*DLRM-RMC1.*T2 x2, T1 x1");
    EXPECT_DEATH(run(spec, &table), "service 'ranker'");
    // Feasible rows on zero-slot types add no capacity either.
    ScenarioSpec no_slots = goldenSpec();
    no_slots.services[0].peak_qps_frac = 0.5;
    for (FleetEntry& e : no_slots.fleet)
        e.shard_slots = 0;
    EXPECT_DEATH(resolvePeaks(no_slots, goldenTable()),
                 "service 'DLRM-RMC1'");
}

TEST(ScenarioRun, PeakFracResolvesAgainstTable)
{
    core::EfficiencyTable table = goldenTable();
    ScenarioSpec spec = goldenSpec();
    // RMC1 full-fleet capacity on T2 x2 + T1 x1: 2*2000 + 1200.
    spec.services[0].peak_qps_frac = 0.5;
    resolvePeaks(spec, table);
    EXPECT_DOUBLE_EQ(spec.services[0].spec.load.peak_qps,
                     0.5 * (2 * 2000.0 + 1200.0));
    EXPECT_EQ(spec.services[0].peak_qps_frac, 0.0);
    EXPECT_EQ(spec.services[0].name, "DLRM-RMC1");
    // Services without a frac keep their absolute peak.
    EXPECT_DOUBLE_EQ(spec.services[1].spec.load.peak_qps, 200.0);
}

TEST(ScenarioRun, LintCatchesUnrunnableSpecs)
{
    // What run() and `online_serving_sim --scenario` refuse: lint's
    // errors, each named by code and path (every code is pinned in
    // test_lint.cc).
    auto errors = [](const ScenarioSpec& s) {
        std::string out;
        for (const Diagnostic& d : lint(s))
            if (d.severity == Severity::Error)
                out += formatDiagnostic(d) + "\n";
        return out;
    };
    EXPECT_EQ(errors(goldenSpec()), "");

    ScenarioSpec unsorted = goldenSpec();
    unsorted.serve.power_cap_schedule = {{2.0, 100.0}, {1.0, 200.0}};
    EXPECT_NE(errors(unsorted).find("power_cap_schedule"),
              std::string::npos);

    EXPECT_NE(errors(ScenarioSpec{}).find("empty fleet"),
              std::string::npos);

    ScenarioSpec no_services = goldenSpec();
    no_services.services.clear();
    EXPECT_NE(errors(no_services).find("no services"), std::string::npos);

    ScenarioSpec bad_interval = goldenSpec();
    bad_interval.serve.interval_hours = 0.0;
    EXPECT_NE(errors(bad_interval).find("interval_hours"),
              std::string::npos);
}

/** @return the value text after `"key": ` at `from`, up to , or }. */
std::string
jsonValueAt(const std::string& text, size_t from)
{
    size_t end = text.find_first_of(",}\n", from);
    return text.substr(from, end - from);
}

/** @return the value of a run-level key (its own 2-space line). */
std::string
topLevelValue(const std::string& text, const std::string& key)
{
    const std::string pat = "\n  \"" + key + "\": ";
    size_t at = text.find(pat);
    return at == std::string::npos ? ""
                                   : jsonValueAt(text, at + pat.size());
}

/** @return the value of `key` inside one single-line JSON object. */
std::string
objectValue(const std::string& line, const std::string& key)
{
    const std::string pat = "\"" + key + "\": ";
    size_t at = line.find(pat);
    return at == std::string::npos ? ""
                                   : jsonValueAt(line, at + pat.size());
}

TEST(ScenarioRun, ResultJsonAccountsForEveryArrival)
{
    core::EfficiencyTable table = goldenTable();
    ScenarioSpec spec = goldenSpec();
    // Frequent seeded crashes, some landing on busy shards and
    // killing their in-flight queries.
    spec.serve.faults.crash_mtbf_hours = 0.5;
    spec.serve.faults.crash_mttr_hours = 0.1;
    ScenarioResult r = run(spec, &table);
    const sim::ClusterSimResult& sim = r.serve.sim;
    ASSERT_GT(sim.failed_inflight, 0u);
    ASSERT_EQ(r.serve.trace_queries, sim.completed + sim.dropped +
                                         sim.rejected +
                                         sim.failed_inflight);

    const std::string path =
        (std::filesystem::temp_directory_path() /
         "hercules_test_scenario_result.json")
            .string();
    ASSERT_TRUE(writeResultJson(path, r, "test"));
    const std::string text = readFile(path);
    std::remove(path.c_str());

    EXPECT_EQ(topLevelValue(text, "trace_queries"),
              std::to_string(r.serve.trace_queries));
    EXPECT_EQ(topLevelValue(text, "injected"),
              std::to_string(sim.injected));
    EXPECT_EQ(topLevelValue(text, "completed"),
              std::to_string(sim.completed));
    EXPECT_EQ(topLevelValue(text, "dropped"), std::to_string(sim.dropped));
    EXPECT_EQ(topLevelValue(text, "rejected"),
              std::to_string(sim.rejected));
    EXPECT_EQ(topLevelValue(text, "failed_inflight"),
              std::to_string(sim.failed_inflight));
    EXPECT_EQ(topLevelValue(text, "sla_violations"),
              std::to_string(sim.sla_violations));

    // One single-line object per service, in service order.
    std::vector<std::string> svc_lines;
    std::istringstream lines(text);
    for (std::string line; std::getline(lines, line);)
        if (line.rfind("    {\"name\": ", 0) == 0)
            svc_lines.push_back(line);
    ASSERT_EQ(svc_lines.size(), sim.services.size());
    size_t svc_killed = 0;
    for (size_t s = 0; s < sim.services.size(); ++s) {
        const sim::ServiceRunStats& st = sim.services[s];
        const std::string& l = svc_lines[s];
        EXPECT_EQ(objectValue(l, "injected"), std::to_string(st.injected));
        EXPECT_EQ(objectValue(l, "completed"),
                  std::to_string(st.completed));
        EXPECT_EQ(objectValue(l, "dropped"), std::to_string(st.dropped));
        EXPECT_EQ(objectValue(l, "rejected"),
                  std::to_string(st.rejected));
        EXPECT_EQ(objectValue(l, "failed_inflight"),
                  std::to_string(st.failed_inflight));
        svc_killed += std::stoul(objectValue(l, "failed_inflight"));
    }
    EXPECT_EQ(svc_killed, sim.failed_inflight);

    // The health timeline's kills add up to the run-level count.
    size_t transition_killed = 0;
    const std::string kpat = "\"killed_inflight\": ";
    for (size_t at = text.find(kpat); at != std::string::npos;
         at = text.find(kpat, at + 1))
        transition_killed +=
            std::stoul(jsonValueAt(text, at + kpat.size()));
    EXPECT_EQ(transition_killed, sim.failed_inflight);
}

TEST(ScenarioRun, TableCacheMissingGridPairIsReprofiled)
{
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::temp_directory_path() / "hercules_test_scenario_cache";
    fs::remove_all(dir);
    fs::create_directories(dir / "shared");
    fs::create_directories(dir / "fresh");

    // Two small specs whose grids differ (T2 vs T2+T3, one model)
    // share one table cache, as benches sharing a cache file do.
    ScenarioSpec narrow;
    narrow.name = "narrow";
    narrow.fleet = {{ServerType::T2, 1}};
    ServiceScenario svc;
    svc.spec.model = ModelId::DlrmRmc1;
    svc.peak_qps_frac = 0.3;
    narrow.services = {svc};
    narrow.serve.horizon_hours = 1.0;
    narrow.serve.trace.time_compression = 960.0;
    narrow.profile.num_queries = 120;
    narrow.profile.warmup_queries = 20;
    narrow.profile.bisect_iters = 2;
    narrow.profile.table_cache = (dir / "shared" / "table.csv").string();

    ScenarioSpec wide = narrow;
    wide.name = "wide";
    wide.fleet.push_back({ServerType::T3, 1});

    run(narrow);  // writes the cache with T2 rows only
    ScenarioResult second = run(wide);

    ScenarioSpec wide_fresh = wide;
    wide_fresh.profile.table_cache =
        (dir / "fresh" / "table.csv").string();
    ScenarioResult fresh = run(wide_fresh);

    ASSERT_NE(second.table.get(ServerType::T3, ModelId::DlrmRmc1),
              nullptr);
    EXPECT_TRUE(second.table == fresh.table);
    expectBitIdentical(second.serve, fresh.serve);
    // The shared cache now holds the wide grid and is trusted as is.
    EXPECT_TRUE(profileTable(wide).get(ServerType::T3,
                                       ModelId::DlrmRmc1) != nullptr);
    fs::remove_all(dir);
}

TEST(ScenarioRun, ProvisionerNamesRoundTrip)
{
    for (ProvisionerKind k :
         {ProvisionerKind::Hercules, ProvisionerKind::Greedy,
          ProvisionerKind::PriorityAware, ProvisionerKind::Nh})
        EXPECT_EQ(parseProvisionerKind(provisionerKindName(k)), k);
    EXPECT_FALSE(parseProvisionerKind("bogus").has_value());
}

}  // namespace
}  // namespace hercules::scenario
