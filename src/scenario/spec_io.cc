#include "scenario/spec_io.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <type_traits>
#include <vector>

#include "fault/fault.h"
#include "model/model_zoo.h"

namespace hercules::scenario {

namespace {

// ---- value tree ----------------------------------------------------------

struct Field;

/** One parsed JSON-subset value, carrying its 1-based source line. */
struct Value
{
    enum class Kind { Object, Array, String, Number, Bool };
    Kind kind = Kind::Object;
    int line = 0;
    double num = 0.0;
    bool boolean = false;
    std::string str;
    std::vector<Field> fields;  ///< Kind::Object, in source order
    std::vector<Value> items;   ///< Kind::Array
};

struct Field
{
    std::string key;
    int line = 0;  ///< line of the key token
    Value value;
};

const char*
kindName(Value::Kind k)
{
    switch (k) {
      case Value::Kind::Object: return "an object";
      case Value::Kind::Array: return "an array";
      case Value::Kind::String: return "a string";
      case Value::Kind::Number: return "a number";
      case Value::Kind::Bool: return "a boolean";
    }
    return "a value";
}

std::string
fmt(const char* f, ...)
{
    char buf[256];
    va_list ap;
    va_start(ap, f);
    std::vsnprintf(buf, sizeof buf, f, ap);
    va_end(ap);
    return buf;
}

// ---- parser --------------------------------------------------------------

/** Recursive-descent parser over the strict JSON subset. */
class Parser
{
  public:
    explicit Parser(const std::string& text) : t_(text) {}

    bool
    parse(Value& out)
    {
        skipWs();
        if (pos_ >= t_.size())
            return fail("empty input");
        if (t_[pos_] != '{')
            return fail("top-level value must be an object");
        if (!parseValue(out))
            return false;
        skipWs();
        if (pos_ != t_.size())
            return fail("trailing content after the top-level object");
        return true;
    }

    std::string error;

  private:
    bool
    fail(const char* f, ...)
    {
        char buf[200];
        va_list ap;
        va_start(ap, f);
        std::vsnprintf(buf, sizeof buf, f, ap);
        va_end(ap);
        error = fmt("line %d: %s", line_, buf);
        return false;
    }

    void
    skipWs()
    {
        while (pos_ < t_.size()) {
            char c = t_[pos_];
            if (c == '\n')
                ++line_;
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
                break;
            ++pos_;
        }
    }

    bool
    parseValue(Value& out)
    {
        skipWs();
        if (pos_ >= t_.size())
            return fail("unexpected end of input");
        out.line = line_;
        char c = t_[pos_];
        if (c == '{')
            return parseObject(out);
        if (c == '[')
            return parseArray(out);
        if (c == '"') {
            out.kind = Value::Kind::String;
            return parseString(out.str);
        }
        if (c == 't' || c == 'f')
            return parseBool(out);
        if (c == '-' || (c >= '0' && c <= '9'))
            return parseNumber(out);
        return fail("unexpected character '%c'", c);
    }

    bool
    parseObject(Value& out)
    {
        out.kind = Value::Kind::Object;
        ++pos_;  // '{'
        skipWs();
        if (pos_ < t_.size() && t_[pos_] == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            if (pos_ >= t_.size() || t_[pos_] != '"')
                return fail("expected a key string");
            Field f;
            f.line = line_;
            if (!parseString(f.key))
                return false;
            for (const Field& prev : out.fields)
                if (prev.key == f.key) {
                    line_ = f.line;
                    return fail("duplicate key '%s'", f.key.c_str());
                }
            skipWs();
            if (pos_ >= t_.size() || t_[pos_] != ':')
                return fail("expected ':' after key '%s'",
                            f.key.c_str());
            ++pos_;
            if (!parseValue(f.value))
                return false;
            out.fields.push_back(std::move(f));
            skipWs();
            if (pos_ >= t_.size())
                return fail("unterminated object");
            if (t_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (t_[pos_] == '}') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or '}' in object");
        }
    }

    bool
    parseArray(Value& out)
    {
        out.kind = Value::Kind::Array;
        ++pos_;  // '['
        skipWs();
        if (pos_ < t_.size() && t_[pos_] == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            Value item;
            if (!parseValue(item))
                return false;
            out.items.push_back(std::move(item));
            skipWs();
            if (pos_ >= t_.size())
                return fail("unterminated array");
            if (t_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (t_[pos_] == ']') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or ']' in array");
        }
    }

    bool
    parseString(std::string& out)
    {
        ++pos_;  // opening '"'
        out.clear();
        while (pos_ < t_.size()) {
            char c = t_[pos_];
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (c == '\n')
                return fail("unterminated string");
            if (c == '\\') {
                if (pos_ + 1 >= t_.size())
                    return fail("unterminated string");
                char e = t_[++pos_];
                switch (e) {
                  case '"': out.push_back('"'); break;
                  case '\\': out.push_back('\\'); break;
                  case '/': out.push_back('/'); break;
                  case 'n': out.push_back('\n'); break;
                  case 't': out.push_back('\t'); break;
                  case 'r': out.push_back('\r'); break;
                  default:
                      return fail("unsupported escape '\\%c'", e);
                }
                ++pos_;
                continue;
            }
            out.push_back(c);
            ++pos_;
        }
        return fail("unterminated string");
    }

    bool
    parseNumber(Value& out)
    {
        out.kind = Value::Kind::Number;
        size_t start = pos_;
        if (t_[pos_] == '-')
            ++pos_;
        auto digits = [&]() {
            size_t n = 0;
            while (pos_ < t_.size() && t_[pos_] >= '0' &&
                   t_[pos_] <= '9') {
                ++pos_;
                ++n;
            }
            return n;
        };
        if (digits() == 0)
            return fail("malformed number");
        if (pos_ < t_.size() && t_[pos_] == '.') {
            ++pos_;
            if (digits() == 0)
                return fail("malformed number");
        }
        if (pos_ < t_.size() && (t_[pos_] == 'e' || t_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < t_.size() &&
                (t_[pos_] == '+' || t_[pos_] == '-'))
                ++pos_;
            if (digits() == 0)
                return fail("malformed number");
        }
        std::string tok = t_.substr(start, pos_ - start);
        errno = 0;
        out.num = std::strtod(tok.c_str(), nullptr);
        if (errno == ERANGE || !std::isfinite(out.num))
            return fail("number out of range");
        return true;
    }

    bool
    parseBool(Value& out)
    {
        out.kind = Value::Kind::Bool;
        if (t_.compare(pos_, 4, "true") == 0) {
            out.boolean = true;
            pos_ += 4;
            return true;
        }
        if (t_.compare(pos_, 5, "false") == 0) {
            out.boolean = false;
            pos_ += 5;
            return true;
        }
        return fail("unexpected token");
    }

    const std::string& t_;
    size_t pos_ = 0;
    int line_ = 1;
};

/** Shortest decimal that round-trips through strtod. */
std::string
fmtNumber(double v)
{
    if (v == std::floor(v) && std::fabs(v) < 1e15) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%lld",
                      static_cast<long long>(v));
        return buf;
    }
    for (int prec = 1; prec <= 17; ++prec) {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.*g", prec, v);
        if (std::strtod(buf, nullptr) == v)
            return buf;
    }
    return "0";
}

std::string
quote(const std::string& s)
{
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default: out.push_back(c);
        }
    }
    out.push_back('"');
    return out;
}

// ---- field tables --------------------------------------------------------

constexpr double kInf = std::numeric_limits<double>::infinity();

/**
 * A value kind: which text value a member accepts, its range, and how
 * the member is stored and written back. Object and Array rows bind
 * through the row's Table instead of store/text.
 */
struct Kind
{
    Value::Kind accepts;
    const char* what;            ///< "expects <what>"
    const char* name = nullptr;  ///< "must be <name>", "unknown <name>"
    double lo = -kInf, hi = kInf;  ///< numbers: the accepted range
    bool integral = false;         ///< numbers: whole values only
    bool (*store)(void* m, const Value& v) = nullptr;  ///< false: no name
    std::string (*text)(const void* m) = nullptr;  ///< "": no literal
};

/** A Kind for members of type T, which the row macro checks. */
template <typename T>
struct KindOf : Kind
{
    using Member = T;
};

template <typename T>
constexpr KindOf<T>
scalar(const char* name = nullptr, double lo = -kInf, double hi = kInf)
{
    constexpr bool is_str = std::is_same_v<T, std::string>;
    constexpr bool is_bool = std::is_same_v<T, bool>;
    constexpr bool integral = std::is_integral_v<T> && !is_bool;
    auto store = [](void* m, const Value& v) {
        if constexpr (is_str)
            *static_cast<T*>(m) = v.str;
        else if constexpr (is_bool)
            *static_cast<T*>(m) = v.boolean;
        else
            *static_cast<T*>(m) = static_cast<T>(v.num);
        return true;
    };
    auto text = [](const void* m) -> std::string {
        const T& v = *static_cast<const T*>(m);
        if constexpr (is_str)
            return quote(v);
        else if constexpr (is_bool)
            return v ? "true" : "false";
        else
            return std::isfinite(double(v)) ? fmtNumber(double(v)) : "";
    };
    return {{is_str    ? Value::Kind::String
             : is_bool ? Value::Kind::Bool
                       : Value::Kind::Number,
             is_str     ? "a string"
             : is_bool  ? "a boolean"
             : integral ? "an integer"
                        : "a number",
             name, lo, hi, integral, store, text}};
}

/** An enum kind: names map through Parse/Name; `name` labels errors. */
template <auto Name, auto Parse,
          typename E = typename decltype(Parse(""))::value_type>
constexpr KindOf<E>
enumKind(const char* name)
{
    return {{Value::Kind::String, "a string", name, -kInf, kInf, false,
             [](void* m, const Value& v) {
                 std::optional<E> e = Parse(v.str);
                 if (e.has_value())
                     *static_cast<E*>(m) = *e;
                 return e.has_value();
             },
             [](const void* m) -> std::string {
                 return quote(Name(*static_cast<const E*>(m)));
             }}};
}

// Seeds and sizes ride the number grammar, so they are exact to 2^53.
const auto kNumber = scalar<double>();
const auto kNonNeg = scalar<double>("non-negative", 0.0);
const auto kPositive = scalar<double>("positive", 0x1p-1074);  // > 0
const auto kAtLeast1 = scalar<double>(">= 1", 1.0);
const auto kUnit = scalar<double>("in [0, 1]", 0.0, 1.0);
const auto kInt = scalar<int>(nullptr, -0x1p31, 0x1p31 - 1);
const auto kU64 = scalar<uint64_t>(nullptr, 0.0, 0x1p53);
const auto kSize = scalar<size_t>(nullptr, 0.0, 0x1p53);
const auto kString = scalar<std::string>();
const auto kBool = scalar<bool>();
const KindOf<void> kObject{{Value::Kind::Object, "an object"}};
const KindOf<void> kArray{{Value::Kind::Array, "an array"}};

const auto kServerType =
    enumKind<hw::serverTypeName, hw::parseServerType>("server type");
const auto kModel = enumKind<model::modelName, model::parseModel>("model");
const auto kHealth =
    enumKind<fault::healthStateName, fault::parseHealthState>(
        "health state");
const auto kTier = enumKind<qos::tierName, qos::parseTier>("tier");
const auto kProvisioner =
    enumKind<provisionerKindName, parseProvisionerKind>("provisioner");
const auto kRouter = enumKind<sim::routerPolicyName, sim::parseRouterPolicy>(
    "router policy");
const auto kAdmissionPolicy =
    enumKind<qos::admissionPolicyName, qos::parseAdmissionPolicy>(
        "admission policy");

constexpr uint8_t kRequired = 1;  ///< binding fails when it is absent
constexpr uint8_t kAlways = 2;    ///< emitted even when at its default

struct Table;

/** One spec key: its name, kind, and where it lives in the object. */
struct Row
{
    const char* key;
    const Kind* kind;
    void* (*at)(void* obj);  ///< the member inside `obj`
    uint8_t flags = 0;
    const Table* table = nullptr;  ///< Object/Array rows
};

/** The rows of one spec object type, in schema (= output) order. */
struct Table
{
    const Row* rows;
    size_t size;
    bool multiline;   ///< one key per line even without a nested array
    const void* def;  ///< a default-constructed object
    // std::vector access for Array rows whose elements use this table.
    size_t (*count)(const void* vec);
    void* (*item)(void* vec, size_t i);  ///< i == count appends

    const Row* begin() const { return rows; }
    const Row* end() const { return rows + size; }
};

template <typename T>
const T kDefault{};

template <typename T, size_t N>
constexpr Table
table(const Row (&rows)[N], bool multiline = false)
{
    using Vec = std::vector<T>;
    return {rows, N, multiline, &kDefault<T>,
            [](const void* v) { return static_cast<const Vec*>(v)->size(); },
            [](void* v, size_t i) -> void* {
                Vec& vec = *static_cast<Vec*>(v);
                return i < vec.size() ? &vec[i] : &vec.emplace_back();
            }};
}

/**
 * Row over objects of type T: key, kind, member[, flags[, table]]. The
 * cast rejects a member whose type does not fit the kind.
 */
#define SPEC_ROW(T, key, kind, member, ...)                              \
    Row{key, &kind,                                                      \
        [](void* o) -> void* {                                           \
            return static_cast<std::remove_cv_t<decltype(kind)>::Member*>( \
                &static_cast<T*>(o)->member);                            \
        },                                                               \
        __VA_ARGS__}

using Svc = ServiceScenario;
using Spec = ScenarioSpec;
using Event = fault::FaultEvent;
using Faults = fault::FaultSpec;
using Trace = workload::TraceOptions;

const Row kFleetRows[] = {
    SPEC_ROW(FleetEntry, "type", kServerType, type, kRequired | kAlways),
    SPEC_ROW(FleetEntry, "slots", kInt, shard_slots),
};
const Row kServiceRows[] = {
    SPEC_ROW(Svc, "name", kString, name),
    SPEC_ROW(Svc, "model", kModel, spec.model, kRequired | kAlways),
    SPEC_ROW(Svc, "peak_qps_frac", kNonNeg, peak_qps_frac),
    SPEC_ROW(Svc, "peak_qps", kNonNeg, spec.load.peak_qps),
    SPEC_ROW(Svc, "trough_frac", kNumber, spec.load.trough_frac),
    SPEC_ROW(Svc, "peak_hour", kNumber, spec.load.peak_hour),
    SPEC_ROW(Svc, "noise_frac", kNumber, spec.load.noise_frac),
    SPEC_ROW(Svc, "load_seed", kU64, spec.load.seed),
    SPEC_ROW(Svc, "surge_hour", kNumber, spec.load.surge_hour),
    SPEC_ROW(Svc, "surge_hours", kNonNeg, spec.load.surge_hours),
    SPEC_ROW(Svc, "surge_factor", kNonNeg, spec.load.surge_factor),
    SPEC_ROW(Svc, "sla_ms", kNonNeg, spec.sla_ms),
    SPEC_ROW(Svc, "priority", kInt, spec.qos.priority),
    SPEC_ROW(Svc, "tier", kTier, spec.qos.tier),
    SPEC_ROW(Svc, "qos_sla_ms", kNonNeg, spec.qos.sla_ms),
    SPEC_ROW(Svc, "size_median", kNumber, spec.sizes.median),
    SPEC_ROW(Svc, "size_sigma", kNumber, spec.sizes.sigma),
    SPEC_ROW(Svc, "size_min", kInt, spec.sizes.min_size),
    SPEC_ROW(Svc, "size_max", kInt, spec.sizes.max_size),
    SPEC_ROW(Svc, "pooling_sigma", kNumber, spec.pooling.sigma),
};
const Row kFeedbackRows[] = {
    SPEC_ROW(qos::FeedbackConfig, "gain", kNumber, gain),
    SPEC_ROW(qos::FeedbackConfig, "floor_frac", kNumber, floor_frac),
};
const Row kAdmissionRows[] = {
    SPEC_ROW(qos::AdmissionConfig, "policy", kAdmissionPolicy, policy),
    SPEC_ROW(qos::AdmissionConfig, "queue_cap", kSize, queue_cap),
    SPEC_ROW(qos::AdmissionConfig, "deadline_slack", kNumber, deadline_slack),
    SPEC_ROW(qos::AdmissionConfig, "cross_shard_retry", kBool,
             cross_shard_retry),
};
const Row kCapRows[] = {
    SPEC_ROW(cluster::PowerCapPoint, "from_hour", kNonNeg, from_hour, kAlways),
    SPEC_ROW(cluster::PowerCapPoint, "cap_w", kNonNeg, cap_w, kAlways),
};
// The state is always written: it IS the event, even when it is the
// (default) recovery back to healthy.
const Row kEventRows[] = {
    SPEC_ROW(Event, "at_hour", kNonNeg, t_hours, kAlways),
    SPEC_ROW(Event, "fleet", kInt, fleet_index),
    SPEC_ROW(Event, "slot", kInt, slot),
    SPEC_ROW(Event, "state", kHealth, state, kAlways),
    SPEC_ROW(Event, "slowdown", kAtLeast1, slowdown),
};
const Table kEvent = table<Event>(kEventRows);
const Row kFaultRows[] = {
    SPEC_ROW(Faults, "seed", kU64, seed),
    SPEC_ROW(Faults, "crash_mtbf_hours", kNonNeg, crash_mtbf_hours),
    SPEC_ROW(Faults, "crash_mttr_hours", kNonNeg, crash_mttr_hours),
    SPEC_ROW(Faults, "degrade_mtbf_hours", kNonNeg, degrade_mtbf_hours),
    SPEC_ROW(Faults, "degrade_mttr_hours", kNonNeg, degrade_mttr_hours),
    SPEC_ROW(Faults, "degrade_slowdown", kAtLeast1, degrade_slowdown),
    SPEC_ROW(Faults, "events", kArray, events, 0, &kEvent),
};
const Row kTraceRows[] = {
    SPEC_ROW(Trace, "bucket_seconds", kNumber, bucket_seconds),
    SPEC_ROW(Trace, "time_compression", kNumber, time_compression),
    SPEC_ROW(Trace, "seed", kU64, seed),
};
const Row kProfileRows[] = {
    SPEC_ROW(ProfileSpec, "table_cache", kString, table_cache),
    SPEC_ROW(ProfileSpec, "eval_memo", kString, eval_memo),
    SPEC_ROW(ProfileSpec, "num_queries", kInt, num_queries),
    SPEC_ROW(ProfileSpec, "warmup_queries", kInt, warmup_queries),
    SPEC_ROW(ProfileSpec, "bisect_iters", kInt, bisect_iters),
    SPEC_ROW(ProfileSpec, "seed", kU64, seed),
};
const Row kObsRows[] = {
    SPEC_ROW(obs::ObsSpec, "trace_file", kString, trace_file),
    SPEC_ROW(obs::ObsSpec, "metrics_file", kString, metrics_file),
    SPEC_ROW(obs::ObsSpec, "sample_rate", kUnit, sample_rate),
};
const Table kFleet = table<FleetEntry>(kFleetRows);
const Table kService = table<Svc>(kServiceRows, /*multiline=*/true);
const Table kFeedback = table<qos::FeedbackConfig>(kFeedbackRows);
const Table kAdmission = table<qos::AdmissionConfig>(kAdmissionRows);
const Table kCap = table<cluster::PowerCapPoint>(kCapRows);
const Table kFaults = table<Faults>(kFaultRows);
const Table kTrace = table<Trace>(kTraceRows);
const Table kProfile = table<ProfileSpec>(kProfileRows);
const Table kObs = table<obs::ObsSpec>(kObsRows);

// A negative overprovision_rate means "estimate from the curve", so it
// stays a plain number.
const Row kSpecRows[] = {
    SPEC_ROW(Spec, "name", kString, name, kAlways),
    SPEC_ROW(Spec, "description", kString, description),
    SPEC_ROW(Spec, "fleet", kArray, fleet, 0, &kFleet),
    SPEC_ROW(Spec, "services", kArray, services, 0, &kService),
    SPEC_ROW(Spec, "provisioner", kProvisioner, provisioner),
    SPEC_ROW(Spec, "nh_seed", kU64, nh_seed),
    SPEC_ROW(Spec, "router", kRouter, serve.router),
    SPEC_ROW(Spec, "router_seed", kU64, serve.router_seed),
    SPEC_ROW(Spec, "feedback", kObject, serve.feedback, 0, &kFeedback),
    SPEC_ROW(Spec, "admission", kObject, serve.admission, 0, &kAdmission),
    SPEC_ROW(Spec, "horizon_hours", kPositive, serve.horizon_hours),
    SPEC_ROW(Spec, "interval_hours", kPositive, serve.interval_hours),
    SPEC_ROW(Spec, "sla_ms", kNonNeg, serve.sla_ms),
    SPEC_ROW(Spec, "overprovision_rate", kNumber, serve.overprovision_rate),
    SPEC_ROW(Spec, "power_cap_w", kNonNeg, serve.power_cap_w),
    SPEC_ROW(Spec, "power_cap_schedule", kArray, serve.power_cap_schedule,
             0, &kCap),
    SPEC_ROW(Spec, "faults", kObject, serve.faults, 0, &kFaults),
    SPEC_ROW(Spec, "trace", kObject, serve.trace, 0, &kTrace),
    SPEC_ROW(Spec, "profile", kObject, profile, 0, &kProfile),
    SPEC_ROW(Spec, "observability", kObject, observability, 0, &kObs),
};
const Table kSpec = table<Spec>(kSpecRows, /*multiline=*/true);

#undef SPEC_ROW

// ---- binder --------------------------------------------------------------

/** Where a value sits; formatted only when an error names it. */
struct Ctx
{
    const Ctx* parent;  ///< null at the top level
    const char* key;
    long index;  ///< array position, or -1
};

/** "scenario", "services[2]", "faults.events[0]", ... */
std::string
ctxName(const Ctx& c)
{
    if (c.parent == nullptr)
        return "scenario";
    std::string s = c.parent->parent ? ctxName(*c.parent) + "." : "";
    return s + c.key + (c.index >= 0 ? fmt("[%ld]", c.index) : "");
}

const Field*
find(const Value& v, const char* key)
{
    for (const Field& f : v.fields)
        if (f.key == key)
            return &f;
    return nullptr;
}

/**
 * Binds a value tree onto a spec by walking the tables: required keys
 * first, then every row in table order, then leftover keys are
 * rejected in source order. Absent keys keep the member's default.
 */
class Binder
{
  public:
    explicit Binder(std::string* err) : err_(err) {}

    bool
    object(const Table& t, const Value& v, void* obj, const Ctx& ctx)
    {
        for (const Row& r : t)
            if ((r.flags & kRequired) != 0 && find(v, r.key) == nullptr)
                return fail(fmt("line %d: missing key '%s' in %s", v.line,
                                r.key, ctxName(ctx).c_str()));
        size_t bound = 0;
        for (const Row& r : t) {
            const Field* f = find(v, r.key);
            if (f != nullptr && !value(r, f->value, r.at(obj), ctx))
                return false;
            bound += f != nullptr;
        }
        if (bound == v.fields.size())  // keys are unique: none left
            return true;
        for (const Field& f : v.fields)
            if (std::none_of(t.begin(), t.end(), [&](const Row& r) {
                    return f.key == r.key;
                }))
                return fail(fmt("line %d: unknown key '%s' in %s", f.line,
                                f.key.c_str(), ctxName(ctx).c_str()));
        return true;
    }

  private:
    bool
    fail(std::string msg)
    {
        *err_ = std::move(msg);
        return false;
    }

    bool
    value(const Row& r, const Value& v, void* m, const Ctx& ctx)
    {
        const Kind& k = *r.kind;
        if (v.kind != k.accepts || (k.integral && v.num != std::floor(v.num)))
            return fail(fmt("line %d: key '%s' in %s expects %s (got %s)",
                            v.line, r.key, ctxName(ctx).c_str(), k.what,
                            kindName(v.kind)));
        if (!(v.num >= k.lo && v.num <= k.hi))  // NaN fails too
            return fail(
                k.integral
                    ? fmt("line %d: key '%s' in %s is out of range", v.line,
                          r.key, ctxName(ctx).c_str())
                    : fmt("line %d: key '%s' in %s must be %s (got %g)",
                          v.line, r.key, ctxName(ctx).c_str(), k.name,
                          v.num));
        if (v.kind == Value::Kind::Object)
            return object(*r.table, v, m, Ctx{&ctx, r.key, -1});
        if (v.kind != Value::Kind::Array)
            return k.store(m, v) ||
                   fail(fmt("line %d: unknown %s '%s' in %s", v.line,
                            k.name, v.str.c_str(), ctxName(ctx).c_str()));
        for (size_t i = 0; i < v.items.size(); ++i) {
            Ctx item{&ctx, r.key, static_cast<long>(i)};
            if (v.items[i].kind != Value::Kind::Object)
                return fail(fmt("line %d: %s expects an object",
                                v.items[i].line, ctxName(item).c_str()));
            if (!object(*r.table, v.items[i], r.table->item(m, i), item))
                return false;
        }
        return true;
    }

    std::string* err_;
};

// ---- emitter -------------------------------------------------------------

std::string emitObject(const Table& t, const void* obj, const void* def,
                       int indent);

/**
 * Member `m` (default `d`) as value text, its key at `indent`; ""
 * omits it: a value equal to its default (unless kAlways), an empty
 * array or all-default block, and a non-finite number, which has no
 * literal (an uncapped power_cap_w is spelled by leaving the key out).
 */
std::string
emitValue(const Row& r, const void* m, const void* d, int indent)
{
    if (r.kind == &kObject)
        return emitObject(*r.table, m, d, indent);
    if (r.kind != &kArray) {  // equal text = equal value
        std::string text = r.kind->text(m);
        bool omit = (r.flags & kAlways) == 0 && text == r.kind->text(d);
        return omit ? "" : text;
    }
    const Table& t = *r.table;
    std::string pad(static_cast<size_t>(indent), ' '), out;
    for (size_t i = 0, n = t.count(m); i < n; ++i)
        out += (i == 0 ? "[\n" : ",\n") + pad + "  " +
               emitObject(t, t.item(const_cast<void*>(m), i), t.def,
                          indent + 2);
    return out.empty() ? out : out + "\n" + pad + "]";
}

/**
 * An object's emitted keys, closing brace at `indent`; "" when every
 * key is omitted. Multiline tables, and objects holding a non-empty
 * array, put one key per line; the rest are written inline.
 */
std::string
emitObject(const Table& t, const void* obj, const void* def, int indent)
{
    // at() only computes an address.
    auto member = [](const Row& r, const void* o) -> const void* {
        return r.at(const_cast<void*>(o));
    };
    bool multi = t.multiline;
    for (const Row& r : t)
        multi = multi ||
                (r.kind == &kArray && r.table->count(member(r, obj)) > 0);
    std::string pad(static_cast<size_t>(indent), ' '), out;
    for (const Row& r : t) {
        std::string v =
            emitValue(r, member(r, obj), member(r, def), indent + 2);
        if (v.empty())
            continue;
        if (!out.empty())
            out += multi ? ",\n" : ", ";
        out += (multi ? pad + "  \"" : "\"") + r.key + "\": " + v;
    }
    if (out.empty())
        return out;
    return multi ? "{\n" + out + "\n" + pad + "}" : "{" + out + "}";
}

}  // namespace

std::optional<ScenarioSpec>
parseSpec(const std::string& text, std::string* error)
{
    Value root;
    Parser p(text);
    ScenarioSpec spec;
    std::string err;
    if (!p.parse(root))
        err = p.error;
    else if (Binder(&err).object(kSpec, root, &spec, {nullptr, "", -1}))
        return spec;
    if (error != nullptr)
        *error = err;
    return std::nullopt;
}

std::optional<ScenarioSpec>
loadSpecFile(const std::string& path, std::string* error)
{
    std::ifstream in(path);
    if (!in) {
        if (error != nullptr)
            *error = path + ": cannot open";
        return std::nullopt;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    std::string err;
    auto spec = parseSpec(ss.str(), &err);
    if (!spec.has_value() && error != nullptr)
        *error = path + ": " + err;
    return spec;
}

std::string
toText(const ScenarioSpec& spec)
{
    return emitObject(kSpec, &spec, kSpec.def, 0) + "\n";
}

bool
saveSpecFile(const std::string& path, const ScenarioSpec& spec)
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << toText(spec);
    return static_cast<bool>(out);
}

}  // namespace hercules::scenario
