#include "harness/scenario/scenario_config.hpp"

#include <cctype>
#include <cmath>
#include <fstream>
#include <set>
#include <sstream>

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
        const JsonValue *v = take(key);
        if (!v)
            return false;
        if (!v->isNumber()) {
            typeError(key, "number", *v);
            return false;
        }
        const double n = v->number();
        if (n < min || n > max) {
            diag(keyPointer(key),
                 "value " + util::jsonNumber(n) + " outside ["
                     + util::jsonNumber(min) + ", "
                     + util::jsonNumber(max) + "]");
            return false;
        }
        out = n;
        return true;
    }

    template <typename Int>
    bool
    getInt(const std::string &key, Int &out, double min, double max)
    {
        const JsonValue *v = take(key);
        if (!v)
            return false;
        if (!v->isNumber()) {
            typeError(key, "integer", *v);
            return false;
        }
        const double n = v->number();
        if (n != std::floor(n)) {
            diag(keyPointer(key),
                 "expected integer, got fractional number "
                     + util::jsonNumber(n));
            return false;
        }
        if (n < min || n > max) {
            diag(keyPointer(key),
                 "value " + util::jsonNumber(n) + " outside ["
                     + util::jsonNumber(min) + ", "
                     + util::jsonNumber(max) + "]");
            return false;
        }
        out = static_cast<Int>(n);
        return true;
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
    r.getEnum("deque", out.dequeImpl, {"chaselev", "the"});
    r.getInt("locality_rounds", out.localityRounds, 0, 16);
    r.getBool("parking", out.parking);
    r.getInt("park_threshold", out.parkThreshold, 1, 1024);
    r.finish();
}

void
readDvfs(const JsonValue &v, const std::string &pointer,
         DvfsPolicy &out, std::vector<ScenarioDiag> &diags)
{
    ObjectReader r(v, pointer, diags);
    r.getBool("tempo", out.tempo);
    r.getEnum("policy", out.policy,
              {"baseline", "workpath", "workload", "unified"});
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
    std::vector<std::string> names;
    for (const std::string &n : sim::benchmarkNames())
        names.push_back(n);
    r.getEnum("benchmark", out.benchmark, names);
    r.getDouble("scale", out.scale, 1e-6, 1e3);
    r.getDouble("gigacycles_per_sec", out.gigacyclesPerSec, 1e-3,
                1e3);
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

void
readThresholds(const JsonValue &v, const std::string &pointer,
               std::vector<ThresholdSpec> &out,
               std::vector<ScenarioDiag> &diags)
{
    // thresholds is an object: metric name -> spec object.
    std::set<std::string> seen;
    for (const auto &[metric, spec] : v.members()) {
        const std::string metric_ptr =
            pointer + "/" + util::jsonPointerEscape(metric);
        if (!seen.insert(metric).second) {
            diags.push_back({metric_ptr, "duplicate key"});
            continue;
        }
        if (!spec.isObject()) {
            diags.push_back(
                {metric_ptr,
                 std::string("expected object, got ")
                     + JsonValue::kindName(spec.kind())});
            continue;
        }
        ThresholdSpec t;
        t.metric = metric;
        ObjectReader r(spec, metric_ptr, diags);
        std::string direction = "higher";
        r.getEnum("direction", direction, {"higher", "lower"});
        t.lowerBetter = direction == "lower";
        r.getDouble("max_regression", t.maxRegression, 0.0, 10.0);
        r.finish();
        out.push_back(std::move(t));
    }
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

    if (const JsonValue *rates = r.take("rates_per_sec")) {
        if (!rates->isArray()) {
            r.diag(r.keyPointer("rates_per_sec"),
                   std::string("expected array, got ")
                       + JsonValue::kindName(rates->kind()));
        } else {
            const auto &items = rates->array();
            if (items.empty() || items.size() > 64)
                r.diag(r.keyPointer("rates_per_sec"),
                       "expected 1..64 rates, got "
                           + std::to_string(items.size()));
            for (size_t i = 0; i < items.size(); ++i) {
                const std::string ptr = r.keyPointer("rates_per_sec")
                                        + "/" + std::to_string(i);
                if (!items[i].isNumber()) {
                    r.diag(ptr,
                           std::string("expected number, got ")
                               + JsonValue::kindName(
                                   items[i].kind()));
                    continue;
                }
                const double rate = items[i].number();
                if (rate < 1e-3 || rate > 1e9) {
                    r.diag(ptr, "value " + util::jsonNumber(rate)
                                    + " outside [0.001, 1e+09]");
                    continue;
                }
                if (!out.ratesPerSec.empty()
                    && rate <= out.ratesPerSec.back()) {
                    r.diag(ptr, "rates must be strictly increasing");
                    continue;
                }
                out.ratesPerSec.push_back(rate);
            }
        }
    } else {
        r.diag(r.keyPointer("rates_per_sec"),
               "missing required array");
    }

    r.getDouble("knee_p99_ns", out.kneeP99Ns, 0.0, 1e12);

    if (const JsonValue *vars = r.take("variants")) {
        if (!vars->isArray()) {
            r.diag(r.keyPointer("variants"),
                   std::string("expected array, got ")
                       + JsonValue::kindName(vars->kind()));
        } else {
            const auto &items = vars->array();
            if (items.empty() || items.size() > 8)
                r.diag(r.keyPointer("variants"),
                       "expected 1..8 variants, got "
                           + std::to_string(items.size()));
            std::set<std::string> names;
            for (size_t i = 0;
                 i < items.size() && i < size_t(8); ++i) {
                const std::string ptr = r.keyPointer("variants")
                                        + "/" + std::to_string(i);
                if (!items[i].isObject()) {
                    r.diag(ptr,
                           std::string("expected object, got ")
                               + JsonValue::kindName(
                                   items[i].kind()));
                    continue;
                }
                SweepVariant var;
                var.runtime = base.runtime;
                var.dvfs = base.dvfs;
                ObjectReader vr(items[i], ptr, diags);
                vr.getString("name", var.name, /*required=*/true);
                if (!var.name.empty() && !validName(var.name))
                    vr.diag(ptr + "/name",
                            "must match [A-Za-z0-9_-]+ (it names "
                            "curves and point directories)");
                else if (!var.name.empty()
                         && !names.insert(var.name).second)
                    vr.diag(ptr + "/name",
                            "duplicate variant name \"" + var.name
                                + "\"");
                if (const JsonValue *rt = vr.getObject("runtime"))
                    readRuntime(*rt, ptr + "/runtime", var.runtime,
                                diags);
                if (const JsonValue *dv = vr.getObject("dvfs"))
                    readDvfs(*dv, ptr + "/dvfs", var.dvfs, diags);
                vr.finish();
                out.variants.push_back(std::move(var));
            }
        }
    } else {
        r.diag(r.keyPointer("variants"), "missing required array");
    }

    if (const JsonValue *g = r.getObject("gates"))
        readThresholds(*g, r.keyPointer("gates"), out.gates, diags);
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
    if (const JsonValue *g = r.getObject("gates")) {
        ObjectReader gr(*g, r.keyPointer("gates"), diags);
        gr.getDouble("max_failed_frac", out.maxFailedFrac, 0.0, 1.0);
        gr.getDouble("max_deadline_expired_frac",
                     out.maxDeadlineExpiredFrac, 0.0, 1.0);
        gr.getDouble("min_goodput_frac", out.minGoodputFrac, 0.0,
                     1.0);
        gr.finish();
    }
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
                       "baseline and bundle files)");
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
    if (const JsonValue *v = r.getObject("dvfs"))
        readDvfs(*v, "/dvfs", config.dvfs, diags);
    if (const JsonValue *v = r.getObject("thresholds"))
        readThresholds(*v, "/thresholds", config.thresholds, diags);
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
        if (have_kind && config.kind != ScenarioKind::kServe)
            r.diag("/sweep",
                   std::string("sweep block requires kind 'serve', "
                               "scenario kind is '")
                       + kind + "'");
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
        << in2 << "\"deque\": \"" << r.dequeImpl << "\",\n"
        << in2 << "\"locality_rounds\": " << r.localityRounds
        << ",\n"
        << in2 << "\"parking\": " << (r.parking ? "true" : "false")
        << ",\n"
        << in2 << "\"park_threshold\": " << r.parkThreshold << "\n"
        << ind << "}";
    return out.str();
}

/** DVFS policy as a JSON object body (see runtimeBodyJson). */
std::string
dvfsBodyJson(const DvfsPolicy &d, const std::string &ind)
{
    const std::string in2 = ind + "  ";
    std::ostringstream out;
    out << "{\n"
        << in2 << "\"tempo\": " << (d.tempo ? "true" : "false")
        << ",\n"
        << in2 << "\"policy\": \"" << d.policy << "\"\n"
        << ind << "}";
    return out.str();
}

/** Threshold map as a JSON object body (see runtimeBodyJson).
 * Shared by the thresholds echo and the sweep gates echo. */
std::string
thresholdBodyJson(const std::vector<ThresholdSpec> &list,
                  const std::string &ind)
{
    std::ostringstream out;
    out << "{";
    for (size_t i = 0; i < list.size(); ++i) {
        const ThresholdSpec &t = list[i];
        out << (i ? "," : "") << "\n" << ind << "  "
            << util::jsonQuote(t.metric) << ": {\"direction\": \""
            << (t.lowerBetter ? "lower" : "higher")
            << "\", \"max_regression\": "
            << util::jsonNumber(t.maxRegression) << "}";
    }
    out << (list.empty() ? "" : "\n" + ind) << "}";
    return out.str();
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
        << "  \"dvfs\": " << dvfsBodyJson(c.dvfs, "  ") << ",\n";

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
            << "    \"gigacycles_per_sec\": "
            << util::jsonNumber(c.dag.gigacyclesPerSec) << "\n"
            << "  },\n";
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
            << util::jsonNumber(c.faults.retryBackoffMs) << ",\n"
            << "    \"gates\": {";
        // Only gates that are set are echoed (negative = disabled
        // sentinel, which the [0, 1] parse range would reject).
        bool first = true;
        const auto gate = [&](const char *key, double value) {
            if (value < 0.0)
                return;
            out << (first ? "" : ",") << "\n      \"" << key
                << "\": " << util::jsonNumber(value);
            first = false;
        };
        gate("max_failed_frac", c.faults.maxFailedFrac);
        gate("max_deadline_expired_frac",
             c.faults.maxDeadlineExpiredFrac);
        gate("min_goodput_frac", c.faults.minGoodputFrac);
        out << (first ? "" : "\n    ") << "}\n"
            << "  },\n";
    }

    if (c.sweep.enabled) {
        out << "  \"sweep\": {\n"
            << "    \"rates_per_sec\": [";
        for (size_t i = 0; i < c.sweep.ratesPerSec.size(); ++i)
            out << (i ? ", " : "")
                << util::jsonNumber(c.sweep.ratesPerSec[i]);
        out << "],\n"
            << "    \"knee_p99_ns\": "
            << util::jsonNumber(c.sweep.kneeP99Ns) << ",\n"
            << "    \"variants\": [\n";
        for (size_t i = 0; i < c.sweep.variants.size(); ++i) {
            const SweepVariant &v = c.sweep.variants[i];
            out << "      {\n"
                << "        \"name\": " << util::jsonQuote(v.name)
                << ",\n"
                << "        \"runtime\": "
                << runtimeBodyJson(v.runtime, "        ") << ",\n"
                << "        \"dvfs\": "
                << dvfsBodyJson(v.dvfs, "        ") << "\n"
                << "      }"
                << (i + 1 < c.sweep.variants.size() ? "," : "")
                << "\n";
        }
        out << "    ],\n"
            << "    \"gates\": "
            << thresholdBodyJson(c.sweep.gates, "    ") << "\n"
            << "  },\n";
    }

    out << "  \"thresholds\": "
        << thresholdBodyJson(c.thresholds, "  ") << ",\n"
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
