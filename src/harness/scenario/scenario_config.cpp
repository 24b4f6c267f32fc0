#include "harness/scenario/scenario_config.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>

#include "platform/system_profile.hpp"
#include "sim/dag_generators.hpp"
#include "util/json.hpp"
#include "workloads/registry.hpp"

namespace hermes::harness::scenario {

const char *
toString(ScenarioKind kind)
{
    switch (kind) {
    case ScenarioKind::kForkJoin: return "fork_join";
    case ScenarioKind::kDag: return "dag";
    case ScenarioKind::kServe: return "serve";
    }
    return "unknown";
}

namespace {

using util::JsonValue;

/** `v` as a number in [min, max], integral when `integer`; otherwise
 * a diagnostic at `pointer` and nullopt. */
std::optional<double>
checkNumber(const JsonValue &v, const std::string &pointer, double min,
            double max, bool integer, std::vector<ScenarioDiag> &diags)
{
    if (!v.isNumber()) {
        diags.push_back({pointer, std::string("expected ")
                                      + (integer ? "integer" : "number")
                                      + ", got "
                                      + JsonValue::kindName(v.kind())});
        return std::nullopt;
    }
    const double n = v.number();
    if (integer && n != std::floor(n)) {
        diags.push_back({pointer, "expected integer, got fractional number "
                                      + util::jsonNumber(n)});
        return std::nullopt;
    }
    if (n < min || n > max) {
        diags.push_back({pointer, "value " + util::jsonNumber(n)
                                      + " outside [" + util::jsonNumber(min)
                                      + ", " + util::jsonNumber(max) + "]"});
        return std::nullopt;
    }
    return n;
}

/**
 * Schema walker over one object: typed getters mark keys consumed,
 * finish() reports duplicates and anything left unconsumed as an
 * unknown key. All findings land in the shared diagnostics list
 * with this object's pointer prefix, so validation keeps going
 * after the first problem and a bad file reports every issue at
 * once.
 */
class ObjectReader
{
  public:
    ObjectReader(const JsonValue &object, std::string pointer,
                 std::vector<ScenarioDiag> &diags)
        : object_(object), pointer_(std::move(pointer)),
          diags_(diags)
    {}

    std::string
    keyPointer(const std::string &key) const
    {
        return pointer_ + "/" + util::jsonPointerEscape(key);
    }

    /** The raw member, marked consumed; nullptr when absent. */
    const JsonValue *
    take(const std::string &key)
    {
        consumed_.insert(key);
        return object_.find(key);
    }

    bool
    getString(const std::string &key, std::string &out,
              bool required = false)
    {
        const JsonValue *v = take(key);
        if (!v)
            return reportMissing(key, required, "string");
        if (!v->isString()) {
            typeError(key, "string", *v);
            return false;
        }
        out = v->string();
        return true;
    }

    bool
    getBool(const std::string &key, bool &out)
    {
        const JsonValue *v = take(key);
        if (!v)
            return false;
        if (!v->isBool()) {
            typeError(key, "boolean", *v);
            return false;
        }
        out = v->boolean();
        return true;
    }

    bool
    getDouble(const std::string &key, double &out, double min,
              double max)
    {
        return getNumber(key, out, min, max, false);
    }

    template <typename Int>
    bool
    getInt(const std::string &key, Int &out, double min, double max)
    {
        return getNumber(key, out, min, max, true);
    }

    /** String constrained to an allowed set. */
    bool
    getEnum(const std::string &key, std::string &out,
            const std::vector<std::string> &allowed,
            bool required = false)
    {
        std::string s;
        if (!getString(key, s, required))
            return false;
        for (const std::string &a : allowed) {
            if (s == a) {
                out = s;
                return true;
            }
        }
        std::string list;
        for (size_t i = 0; i < allowed.size(); ++i)
            list += (i ? "|" : "") + allowed[i];
        diag(keyPointer(key), "\"" + s + "\" is not one of " + list);
        return false;
    }

    /** Array member of `min`..`max` items, marked consumed; calls
     * `item(value, pointer)` on each. False when absent or not an
     * array (a diagnostic is emitted when required or mistyped). */
    template <typename Item>
    bool
    getArray(const std::string &key, size_t min, size_t max, Item item,
             bool required = false)
    {
        const JsonValue *v = take(key);
        if (!v)
            return reportMissing(key, required, "array");
        if (!v->isArray()) {
            typeError(key, "array", *v);
            return false;
        }
        const auto &items = v->array();
        if (items.size() < min || items.size() > max)
            diag(keyPointer(key),
                 "expected " + std::to_string(min) + ".."
                     + std::to_string(max) + " entries, got "
                     + std::to_string(items.size()));
        for (size_t i = 0; i < items.size(); ++i)
            item(items[i], keyPointer(key) + "/" + std::to_string(i));
        return true;
    }

    /** Mark `key` consumed and diagnose it when present: it is valid
     * elsewhere, but not here (`why`). */
    void
    refuse(const std::string &key, const std::string &why)
    {
        if (take(key))
            diag(keyPointer(key), why);
    }

    /** Nested object member, marked consumed; nullptr when absent
     * (a diagnostic is emitted when present but not an object). */
    const JsonValue *
    getObject(const std::string &key)
    {
        const JsonValue *v = take(key);
        if (!v)
            return nullptr;
        if (!v->isObject()) {
            typeError(key, "object", *v);
            return nullptr;
        }
        return v;
    }

    /** Report duplicates and unconsumed (unknown) keys. */
    void
    finish()
    {
        std::set<std::string> seen;
        for (const auto &[key, value] : object_.members()) {
            if (!seen.insert(key).second)
                diag(keyPointer(key), "duplicate key");
            else if (consumed_.find(key) == consumed_.end())
                diag(keyPointer(key), "unknown key");
        }
    }

    void
    diag(std::string pointer, std::string message)
    {
        diags_.push_back(
            {std::move(pointer), std::move(message)});
    }

  private:
    template <typename Number>
    bool
    getNumber(const std::string &key, Number &out, double min,
              double max, bool integer)
    {
        const JsonValue *v = take(key);
        if (!v)
            return false;
        const std::optional<double> n =
            checkNumber(*v, keyPointer(key), min, max, integer, diags_);
        if (n)
            out = static_cast<Number>(*n);
        return n.has_value();
    }

    bool
    reportMissing(const std::string &key, bool required,
                  const char *expected)
    {
        if (required)
            diag(keyPointer(key),
                 std::string("missing required ") + expected);
        return false;
    }

    void
    typeError(const std::string &key, const char *expected,
              const JsonValue &got)
    {
        diag(keyPointer(key),
             std::string("expected ") + expected + ", got "
                 + JsonValue::kindName(got.kind()));
    }

    const JsonValue &object_;
    std::string pointer_;
    std::vector<ScenarioDiag> &diags_;
    std::set<std::string> consumed_;
};

void
readRuntime(const JsonValue &v, const std::string &pointer,
            RuntimePolicy &out, std::vector<ScenarioDiag> &diags)
{
    ObjectReader r(v, pointer, diags);
    r.getInt("workers", out.workers, 1, 256);
    r.getBool("parking", out.parking);
    r.getInt("park_threshold", out.parkThreshold, 1, 1024);
    r.finish();
}

const char *const kSimOnly = "valid only on dag substrate \"sim\"";

/** A dvfs block into `out`, which holds the inherited values.
 * `rungs` is the profile's ladder; `call_cost_us` is read only when
 * `sim`. */
void
readDvfs(const JsonValue &v, const std::string &pointer,
         const platform::FrequencyLadder &rungs, bool sim,
         DvfsPolicy &out, std::vector<ScenarioDiag> &diags)
{
    ObjectReader r(v, pointer, diags);
    r.getBool("tempo", out.tempo);
    r.getEnum("policy", out.policy, {"workpath", "workload", "unified"});
    std::vector<unsigned> ladder;
    const auto rung = [&](const JsonValue &item, const std::string &ptr) {
        const std::optional<double> f =
            checkNumber(item, ptr, 1, 1e6, true, diags);
        if (!f)
            return;
        if (!rungs.contains(static_cast<unsigned>(*f)))
            r.diag(ptr, "not a rung of the profile (" + rungs.describe()
                            + ")");
        else if (!ladder.empty() && *f >= ladder.back())
            r.diag(ptr, "rungs must be strictly decreasing (fastest "
                        "first)");
        else
            ladder.push_back(static_cast<unsigned>(*f));
    };
    if (r.getArray("ladder", 1, rungs.size(), rung))
        out.ladder = ladder;
    r.getInt("thresholds", out.thresholds, 1, 16);
    r.getInt("window", out.window, 1, 1e6);
    if (sim)
        r.getDouble("call_cost_us", out.callCostUs, 0.0, 1e6);
    else
        r.refuse("call_cost_us", kSimOnly);
    r.finish();
}

void
readForkJoin(const JsonValue &v, const std::string &pointer,
             ForkJoinParams &out, std::vector<ScenarioDiag> &diags)
{
    ObjectReader r(v, pointer, diags);
    r.getInt("tasks", out.tasks, 1, 1e9);
    r.getInt("spin_nanos", out.spinNanos, 0, 1e9);
    r.getInt("repeats", out.repeats, 1, 1e6);
    r.finish();
}

void
readDag(const JsonValue &v, const std::string &pointer,
        DagParams &out, std::vector<ScenarioDiag> &diags)
{
    ObjectReader r(v, pointer, diags);
    r.getEnum("benchmark", out.benchmark, sim::benchmarkNames());
    r.getDouble("scale", out.scale, 1e-6, 1e3);
    r.getEnum("substrate", out.substrate, {"runtime", "sim"});
    if (out.substrate == "sim")
        r.getEnum("scheduling", out.scheduling, {"static", "dynamic"});
    else
        r.refuse("scheduling", kSimOnly);
    r.finish();
}

void
readServe(const JsonValue &v, const std::string &pointer,
          ServeParams &out, std::vector<ScenarioDiag> &diags)
{
    ObjectReader r(v, pointer, diags);
    r.getDouble("rate_per_sec", out.ratePerSec, 1e-3, 1e9);
    r.getDouble("duration_sec", out.durationSec, 1e-3, 3600.0);
    r.getEnum("arrivals", out.arrivals, {"poisson", "mmpp"});
    r.getDouble("mmpp_burst_factor", out.mmppBurstFactor, 1.0, 1e3);
    r.getDouble("mmpp_base_dwell_sec", out.mmppBaseDwellSec, 1e-4,
                3600.0);
    r.getDouble("mmpp_burst_dwell_sec", out.mmppBurstDwellSec, 1e-4,
                3600.0);
    r.getInt("producers", out.producers, 1, 256);
    r.getInt("spin_nanos", out.spinNanos, 0, 1e9);
    std::vector<std::string> workloads = {""};
    for (const std::string &n : workloads::workloadNames())
        workloads.push_back(n);
    r.getEnum("workload", out.workload, workloads);
    r.getInt("scale", out.scale, 1, 1e9);
    r.getBool("admission", out.admission);
    r.getInt("admit_high", out.admitHigh, 1, 1e9);
    r.getInt("admit_low", out.admitLow, 0, 1e9);
    r.finish();
    if (out.admitLow >= out.admitHigh)
        diags.push_back(
            {pointer + "/admit_low",
             "must be below admit_high ("
                 + std::to_string(out.admitHigh) + ")"});
}

/**
 * Walk a gates object (counter name -> spec object), calling
 * `readSpec(name, spec, pointer)` once per well-formed entry.
 * Duplicate names and non-object specs are diagnosed here.
 */
template <typename ReadSpec>
void
forEachGate(const JsonValue &v, const std::string &pointer,
            std::vector<ScenarioDiag> &diags, ReadSpec readSpec)
{
    std::set<std::string> seen;
    for (const auto &[name, spec] : v.members()) {
        const std::string spec_ptr =
            pointer + "/" + util::jsonPointerEscape(name);
        if (!seen.insert(name).second) {
            diags.push_back({spec_ptr, "duplicate key"});
            continue;
        }
        if (!spec.isObject()) {
            diags.push_back(
                {spec_ptr, std::string("expected object, got ")
                               + JsonValue::kindName(spec.kind())});
            continue;
        }
        readSpec(name, spec, spec_ptr);
    }
}

/** Top-level gates: `{"<counter>": {"min": x, "max": y}}`, at least
 * one bound per counter, min not above max. */
void
readCounterGates(const JsonValue &v, const std::string &pointer,
                 std::vector<CounterGate> &out,
                 std::vector<ScenarioDiag> &diags)
{
    constexpr double kAny = std::numeric_limits<double>::max();
    forEachGate(v, pointer, diags,
                [&](const std::string &counter, const JsonValue &spec,
                    const std::string &spec_ptr) {
                    CounterGate g;
                    g.counter = counter;
                    ObjectReader r(spec, spec_ptr, diags);
                    double bound = 0.0;
                    if (r.getDouble("min", bound, -kAny, kAny))
                        g.min = bound;
                    if (r.getDouble("max", bound, -kAny, kAny))
                        g.max = bound;
                    r.finish();
                    if (spec.find("min") == nullptr
                        && spec.find("max") == nullptr)
                        r.diag(spec_ptr, "needs \"min\", \"max\" or both");
                    else if (g.min && g.max && *g.min > *g.max)
                        r.diag(spec_ptr,
                               "min " + util::jsonNumber(*g.min)
                                   + " is above max "
                                   + util::jsonNumber(*g.max));
                    out.push_back(std::move(g));
                });
}

/** Sweep gates: `{"<metric>": {"direction": ..., "max_regression":
 * ...}}`, each a variant-vs-variants[0] relative bound. */
void
readVariantGates(const JsonValue &v, const std::string &pointer,
                 std::vector<VariantGate> &out,
                 std::vector<ScenarioDiag> &diags)
{
    forEachGate(v, pointer, diags,
                [&](const std::string &metric, const JsonValue &spec,
                    const std::string &spec_ptr) {
                    VariantGate g;
                    g.metric = metric;
                    ObjectReader r(spec, spec_ptr, diags);
                    std::string direction = "higher";
                    r.getEnum("direction", direction,
                              {"higher", "lower"});
                    g.lowerBetter = direction == "lower";
                    r.getDouble("max_regression", g.maxRegression, 0.0,
                                10.0);
                    r.finish();
                    out.push_back(std::move(g));
                });
}

/** True iff `name` is non-empty [A-Za-z0-9_-]+ (file-system safe). */
bool
validName(const std::string &name)
{
    if (name.empty())
        return false;
    for (char c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_'
            && c != '-')
            return false;
    }
    return true;
}

void
readSweep(const JsonValue &v, const std::string &pointer,
          const ScenarioConfig &base, SweepParams &out,
          std::vector<ScenarioDiag> &diags)
{
    out.enabled = true;
    ObjectReader r(v, pointer, diags);
    const bool dag = base.kind == ScenarioKind::kDag;
    const platform::SystemProfile profile =
        platform::profileByName(base.profile);

    if (dag) {
        const auto &names = sim::benchmarkNames();
        r.getArray(
            "benchmarks", 1, names.size(),
            [&](const JsonValue &item, const std::string &ptr) {
                const std::string name =
                    item.isString() ? item.string() : "";
                if (std::find(names.begin(), names.end(), name)
                    == names.end())
                    r.diag(ptr, "expected a generator name (knn|ray|"
                                "sort|compare|hull)");
                else if (std::find(out.benchmarks.begin(),
                                   out.benchmarks.end(), name)
                         != out.benchmarks.end())
                    r.diag(ptr, "duplicate benchmark \"" + name + "\"");
                else
                    out.benchmarks.push_back(name);
            },
            /*required=*/true);
        // The simulator places one worker per clock domain.
        const double most = base.onSim() ? profile.maxWorkers() : 256;
        r.getArray(
            "workers", 1, 64,
            [&](const JsonValue &item, const std::string &ptr) {
                const std::optional<double> w =
                    checkNumber(item, ptr, 1, most, true, diags);
                if (w && !out.workers.empty() && *w <= out.workers.back())
                    r.diag(ptr, "workers must be strictly increasing");
                else if (w)
                    out.workers.push_back(static_cast<unsigned>(*w));
            },
            /*required=*/true);
    } else {
        r.getArray(
            "rates_per_sec", 1, 64,
            [&](const JsonValue &item, const std::string &ptr) {
                const std::optional<double> rate =
                    checkNumber(item, ptr, 1e-3, 1e9, false, diags);
                if (rate && !out.ratesPerSec.empty()
                    && *rate <= out.ratesPerSec.back())
                    r.diag(ptr, "rates must be strictly increasing");
                else if (rate)
                    out.ratesPerSec.push_back(*rate);
            },
            /*required=*/true);
        r.getDouble("knee_p99_ns", out.kneeP99Ns, 0.0, 1e12);
    }

    std::set<std::string> names;
    const auto variant = [&](const JsonValue &item,
                             const std::string &ptr) {
        if (!item.isObject()) {
            r.diag(ptr, std::string("expected object, got ")
                            + JsonValue::kindName(item.kind()));
            return;
        }
        SweepVariant var;
        var.runtime = base.runtime;
        var.dvfs = base.dvfs;
        ObjectReader vr(item, ptr, diags);
        vr.getString("name", var.name, /*required=*/true);
        if (!var.name.empty() && !validName(var.name))
            vr.diag(ptr + "/name",
                    "must match [A-Za-z0-9_-]+ (it names "
                    "curves and point directories)");
        else if (!var.name.empty() && !names.insert(var.name).second)
            vr.diag(ptr + "/name",
                    "duplicate variant name \"" + var.name + "\"");
        if (const JsonValue *rt = vr.getObject("runtime"))
            readRuntime(*rt, ptr + "/runtime", var.runtime, diags);
        if (const JsonValue *dv = vr.getObject("dvfs"))
            readDvfs(*dv, ptr + "/dvfs", profile.ladder, base.onSim(),
                     var.dvfs, diags);
        vr.finish();
        out.variants.push_back(std::move(var));
    };
    r.getArray("variants", 1, 8, variant, /*required=*/true);

    if (const JsonValue *g = r.getObject("gates"))
        readVariantGates(*g, r.keyPointer("gates"), out.gates, diags);
    if (!out.gates.empty() && out.variants.size() < 2)
        r.diag(r.keyPointer("gates"),
               "gates compare variants against variants[0]; need at "
               "least 2 variants");

    r.finish();
}

void
readFaults(const JsonValue &v, const std::string &pointer,
           const ScenarioConfig &base, FaultParams &out,
           std::vector<ScenarioDiag> &diags)
{
    out.enabled = true;
    ObjectReader r(v, pointer, diags);
    r.getDouble("fail_prob", out.failProb, 0.0, 1.0);
    r.getDouble("straggler_prob", out.stragglerProb, 0.0, 1.0);
    r.getDouble("straggler_factor", out.stragglerFactor, 1.0, 1e3);
    // -1 = no stall; the canonical echo re-emits it, so the range
    // must admit the sentinel for the reparse fixpoint to hold.
    r.getInt("stall_worker", out.stallWorker, -1, 255);
    r.getDouble("stall_at_sec", out.stallAtSec, 0.0, 3600.0);
    r.getDouble("stall_ms", out.stallMs, 0.0, 60000.0);
    r.getBool("force_spill", out.forceSpill);
    r.getDouble("deadline_ms", out.deadlineMs, 0.0, 60000.0);
    r.getInt("max_retries", out.maxRetries, 0, 16);
    r.getDouble("retry_backoff_ms", out.retryBackoffMs, 0.0, 1e4);
    r.finish();
    if (out.stallWorker >= 0
        && static_cast<unsigned>(out.stallWorker)
               >= base.runtime.workers)
        diags.push_back(
            {pointer + "/stall_worker",
             "must name a worker below runtime.workers ("
                 + std::to_string(base.runtime.workers) + ")"});
}

void
readSoak(const JsonValue &v, const std::string &pointer,
         SoakParams &out, std::vector<ScenarioDiag> &diags)
{
    ObjectReader r(v, pointer, diags);
    r.getDouble("duration_sec", out.durationSec, 0.1, 86400.0);
    r.getDouble("checkpoint_sec", out.checkpointSec, 0.05, 3600.0);
    r.getDouble("drift_factor", out.driftFactor, 1.0, 1e3);
    r.finish();
    if (out.checkpointSec > out.durationSec)
        diags.push_back({pointer + "/checkpoint_sec",
                         "must not exceed duration_sec"});
}

} // namespace

ScenarioLoadResult
parseScenario(const std::string &text)
{
    ScenarioLoadResult result;
    const util::JsonParseResult parsed = util::parseJson(text);
    if (!parsed.ok) {
        result.diags.push_back({"", parsed.error.toString()});
        return result;
    }
    const JsonValue &root = parsed.value;
    if (!root.isObject()) {
        result.diags.push_back(
            {"", std::string("scenario must be an object, got ")
                     + JsonValue::kindName(root.kind())});
        return result;
    }

    ScenarioConfig &config = result.config;
    std::vector<ScenarioDiag> &diags = result.diags;
    ObjectReader r(root, "", diags);

    r.getString("name", config.name, /*required=*/true);
    if (!config.name.empty()) {
        for (char c : config.name) {
            if (!std::isalnum(static_cast<unsigned char>(c))
                && c != '_' && c != '-') {
                r.diag("/name",
                       "must match [A-Za-z0-9_-]+ (it names "
                       "bundle directories)");
                break;
            }
        }
    }

    std::string kind;
    const bool have_kind = r.getEnum(
        "kind", kind, {"fork_join", "dag", "serve"},
        /*required=*/true);
    if (have_kind) {
        if (kind == "fork_join")
            config.kind = ScenarioKind::kForkJoin;
        else if (kind == "dag")
            config.kind = ScenarioKind::kDag;
        else
            config.kind = ScenarioKind::kServe;
    }

    r.getInt("seed", config.seed, 0, 9.007199254740992e15);
    r.getEnum("profile", config.profile, {"A", "B", "host"});
    r.getDouble("sample_hz", config.sampleHz, 1.0, 100000.0);

    if (const JsonValue *v = r.getObject("runtime"))
        readRuntime(*v, "/runtime", config.runtime, diags);
    if (const JsonValue *v = r.getObject("gates"))
        readCounterGates(*v, "/gates", config.gates, diags);
    if (const JsonValue *v = r.getObject("soak"))
        readSoak(*v, "/soak", config.soak, diags);

    // Exactly the param block matching `kind` may be present; a
    // mismatched block is a whole-object error (the file describes
    // a different experiment than its kind claims).
    const struct
    {
        const char *key;
        ScenarioKind kind;
    } blocks[] = {{"fork_join", ScenarioKind::kForkJoin},
                  {"dag", ScenarioKind::kDag},
                  {"serve", ScenarioKind::kServe}};
    for (const auto &block : blocks) {
        const JsonValue *v = r.getObject(block.key);
        if (!v)
            continue;
        if (have_kind && block.kind != config.kind) {
            r.diag(std::string("/") + block.key,
                   std::string("param block for kind '") + block.key
                       + "' but scenario kind is '" + kind + "'");
            continue;
        }
        const std::string ptr = std::string("/") + block.key;
        if (block.kind == ScenarioKind::kForkJoin)
            readForkJoin(*v, ptr, config.forkJoin, diags);
        else if (block.kind == ScenarioKind::kDag)
            readDag(*v, ptr, config.dag, diags);
        else
            readServe(*v, ptr, config.serve, diags);
    }

    // The dvfs block is read after the param blocks, so a sim-only
    // key can check the substrate, and before the sweep, whose
    // variants start from it.
    const platform::SystemProfile profile =
        platform::profileByName(config.profile);
    config.dvfs.ladder = platform::defaultTempoLadder(profile).rungs();
    if (const JsonValue *v = r.getObject("dvfs"))
        readDvfs(*v, "/dvfs", profile.ladder, config.onSim(),
                 config.dvfs, diags);
    if (config.onSim() && config.runtime.workers > profile.maxWorkers())
        r.diag("/runtime/workers",
               "the simulator places one worker per clock domain; "
               "profile " + config.profile + " has "
                   + std::to_string(profile.maxWorkers())
                   + " clock domains");

    // The faults block is read after runtime so its stall spec can
    // validate against the final worker count.
    if (const JsonValue *v = r.getObject("faults")) {
        if (have_kind && config.kind != ScenarioKind::kServe)
            r.diag("/faults",
                   std::string("faults block requires kind 'serve', "
                               "scenario kind is '")
                       + kind + "'");
        else
            readFaults(*v, "/faults", config, config.faults, diags);
    }

    // The sweep block is read after runtime/dvfs/serve so variants
    // can resolve against the final base policies.
    if (const JsonValue *v = r.getObject("sweep")) {
        if (have_kind && config.kind == ScenarioKind::kForkJoin)
            r.diag("/sweep", "sweep block requires kind 'serve' or "
                             "'dag', scenario kind is 'fork_join'");
        else
            readSweep(*v, "/sweep", config, config.sweep, diags);
    }

    r.finish();
    result.ok = diags.empty();
    return result;
}

ScenarioLoadResult
loadScenarioFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        ScenarioLoadResult result;
        result.diags.push_back({"", "cannot read " + path});
        return result;
    }
    std::ostringstream text;
    text << in.rdbuf();
    return parseScenario(text.str());
}

namespace {

/** Runtime policy as a JSON object body; `ind` is the indentation
 * of the line the opening brace sits on. Shared by the top-level
 * echo and sweep-variant echoes so the two can never drift. */
std::string
runtimeBodyJson(const RuntimePolicy &r, const std::string &ind)
{
    const std::string in2 = ind + "  ";
    std::ostringstream out;
    out << "{\n"
        << in2 << "\"workers\": " << r.workers << ",\n"
        << in2 << "\"parking\": " << (r.parking ? "true" : "false")
        << ",\n"
        << in2 << "\"park_threshold\": " << r.parkThreshold << "\n"
        << ind << "}";
    return out.str();
}

/** `[a, b, c]` */
template <typename T, typename Format>
std::string
arrayJson(const std::vector<T> &items, Format format)
{
    std::string out = "[";
    for (size_t i = 0; i < items.size(); ++i)
        out += (i ? ", " : "") + format(items[i]);
    return out + "]";
}

std::string
uintJson(unsigned v)
{
    return std::to_string(v);
}

/** DVFS policy as a JSON object body (see runtimeBodyJson);
 * `call_cost_us` only on the sim substrate, where it is valid. */
std::string
dvfsBodyJson(const DvfsPolicy &d, const std::string &ind, bool sim)
{
    const std::string in2 = ind + "  ";
    std::ostringstream out;
    out << "{\n"
        << in2 << "\"tempo\": " << (d.tempo ? "true" : "false")
        << ",\n"
        << in2 << "\"policy\": \"" << d.policy << "\",\n"
        << in2 << "\"ladder\": " << arrayJson(d.ladder, uintJson)
        << ",\n"
        << in2 << "\"thresholds\": " << d.thresholds << ",\n"
        << in2 << "\"window\": " << d.window;
    if (sim)
        out << ",\n"
            << in2 << "\"call_cost_us\": "
            << util::jsonNumber(d.callCostUs);
    out << "\n" << ind << "}";
    return out.str();
}

/** A gates object body (see runtimeBodyJson): one member per
 * gate, each rendered by `member`. */
template <typename Gate, typename Member>
std::string
gatesBodyJson(const std::vector<Gate> &list, const std::string &ind,
              Member member)
{
    std::ostringstream out;
    out << "{";
    for (size_t i = 0; i < list.size(); ++i)
        out << (i ? "," : "") << "\n" << ind << "  " << member(list[i]);
    out << (list.empty() ? "" : "\n" + ind) << "}";
    return out.str();
}

/** `"<counter>": {"min": x, "max": y}`, each bound only when set. */
std::string
counterGateJson(const CounterGate &g)
{
    std::string out = util::jsonQuote(g.counter) + ": {";
    if (g.min)
        out += "\"min\": " + util::jsonNumber(*g.min);
    if (g.max)
        out += std::string(g.min ? ", " : "") + "\"max\": "
            + util::jsonNumber(*g.max);
    return out + "}";
}

/** `"<metric>": {"direction": ..., "max_regression": ...}` */
std::string
variantGateJson(const VariantGate &g)
{
    return util::jsonQuote(g.metric) + ": {\"direction\": \""
        + (g.lowerBetter ? "lower" : "higher")
        + "\", \"max_regression\": " + util::jsonNumber(g.maxRegression)
        + "}";
}

} // namespace

std::string
writeConfigJson(const ScenarioConfig &c)
{
    std::ostringstream out;
    out << "{\n"
        << "  \"name\": " << util::jsonQuote(c.name) << ",\n"
        << "  \"kind\": \"" << toString(c.kind) << "\",\n"
        << "  \"seed\": " << c.seed << ",\n"
        << "  \"profile\": " << util::jsonQuote(c.profile) << ",\n"
        << "  \"sample_hz\": " << util::jsonNumber(c.sampleHz)
        << ",\n"
        << "  \"runtime\": " << runtimeBodyJson(c.runtime, "  ")
        << ",\n"
        << "  \"dvfs\": " << dvfsBodyJson(c.dvfs, "  ", c.onSim())
        << ",\n";

    switch (c.kind) {
    case ScenarioKind::kForkJoin:
        out << "  \"fork_join\": {\n"
            << "    \"tasks\": " << c.forkJoin.tasks << ",\n"
            << "    \"spin_nanos\": " << c.forkJoin.spinNanos
            << ",\n"
            << "    \"repeats\": " << c.forkJoin.repeats << "\n"
            << "  },\n";
        break;
    case ScenarioKind::kDag:
        out << "  \"dag\": {\n"
            << "    \"benchmark\": \"" << c.dag.benchmark << "\",\n"
            << "    \"scale\": " << util::jsonNumber(c.dag.scale)
            << ",\n"
            << "    \"substrate\": \"" << c.dag.substrate << "\"";
        if (c.onSim())
            out << ",\n"
                << "    \"scheduling\": \"" << c.dag.scheduling << "\"";
        out << "\n  },\n";
        break;
    case ScenarioKind::kServe:
        out << "  \"serve\": {\n"
            << "    \"rate_per_sec\": "
            << util::jsonNumber(c.serve.ratePerSec) << ",\n"
            << "    \"duration_sec\": "
            << util::jsonNumber(c.serve.durationSec) << ",\n"
            << "    \"arrivals\": "
            << util::jsonQuote(c.serve.arrivals) << ",\n"
            << "    \"mmpp_burst_factor\": "
            << util::jsonNumber(c.serve.mmppBurstFactor) << ",\n"
            << "    \"mmpp_base_dwell_sec\": "
            << util::jsonNumber(c.serve.mmppBaseDwellSec) << ",\n"
            << "    \"mmpp_burst_dwell_sec\": "
            << util::jsonNumber(c.serve.mmppBurstDwellSec) << ",\n"
            << "    \"producers\": " << c.serve.producers << ",\n"
            << "    \"spin_nanos\": " << c.serve.spinNanos << ",\n"
            << "    \"workload\": "
            << util::jsonQuote(c.serve.workload) << ",\n"
            << "    \"scale\": " << c.serve.scale << ",\n"
            << "    \"admission\": "
            << (c.serve.admission ? "true" : "false") << ",\n"
            << "    \"admit_high\": " << c.serve.admitHigh << ",\n"
            << "    \"admit_low\": " << c.serve.admitLow << "\n"
            << "  },\n";
        break;
    }

    if (c.faults.enabled) {
        out << "  \"faults\": {\n"
            << "    \"fail_prob\": "
            << util::jsonNumber(c.faults.failProb) << ",\n"
            << "    \"straggler_prob\": "
            << util::jsonNumber(c.faults.stragglerProb) << ",\n"
            << "    \"straggler_factor\": "
            << util::jsonNumber(c.faults.stragglerFactor) << ",\n"
            << "    \"stall_worker\": " << c.faults.stallWorker
            << ",\n"
            << "    \"stall_at_sec\": "
            << util::jsonNumber(c.faults.stallAtSec) << ",\n"
            << "    \"stall_ms\": "
            << util::jsonNumber(c.faults.stallMs) << ",\n"
            << "    \"force_spill\": "
            << (c.faults.forceSpill ? "true" : "false") << ",\n"
            << "    \"deadline_ms\": "
            << util::jsonNumber(c.faults.deadlineMs) << ",\n"
            << "    \"max_retries\": " << c.faults.maxRetries
            << ",\n"
            << "    \"retry_backoff_ms\": "
            << util::jsonNumber(c.faults.retryBackoffMs) << "\n"
            << "  },\n";
    }

    if (c.sweep.enabled) {
        out << "  \"sweep\": {\n";
        if (c.kind == ScenarioKind::kDag)
            out << "    \"benchmarks\": "
                << arrayJson(c.sweep.benchmarks, util::jsonQuote) << ",\n"
                << "    \"workers\": "
                << arrayJson(c.sweep.workers, uintJson) << ",\n";
        else
            out << "    \"rates_per_sec\": "
                << arrayJson(c.sweep.ratesPerSec, util::jsonNumber)
                << ",\n"
                << "    \"knee_p99_ns\": "
                << util::jsonNumber(c.sweep.kneeP99Ns) << ",\n";
        out << "    \"variants\": [\n";
        for (size_t i = 0; i < c.sweep.variants.size(); ++i) {
            const SweepVariant &v = c.sweep.variants[i];
            out << "      {\n"
                << "        \"name\": " << util::jsonQuote(v.name)
                << ",\n"
                << "        \"runtime\": "
                << runtimeBodyJson(v.runtime, "        ") << ",\n"
                << "        \"dvfs\": "
                << dvfsBodyJson(v.dvfs, "        ", c.onSim()) << "\n"
                << "      }"
                << (i + 1 < c.sweep.variants.size() ? "," : "")
                << "\n";
        }
        out << "    ],\n"
            << "    \"gates\": "
            << gatesBodyJson(c.sweep.gates, "    ", variantGateJson)
            << "\n"
            << "  },\n";
    }

    out << "  \"gates\": " << gatesBodyJson(c.gates, "  ", counterGateJson)
        << ",\n"
        << "  \"soak\": {\n"
        << "    \"duration_sec\": "
        << util::jsonNumber(c.soak.durationSec) << ",\n"
        << "    \"checkpoint_sec\": "
        << util::jsonNumber(c.soak.checkpointSec) << ",\n"
        << "    \"drift_factor\": "
        << util::jsonNumber(c.soak.driftFactor) << "\n"
        << "  }\n"
        << "}\n";
    return out.str();
}

} // namespace hermes::harness::scenario
