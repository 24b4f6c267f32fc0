#include "harness/sweep/sweep_runner.hpp"

#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "harness/scenario/scenario_runner.hpp"
#include "util/atomic_file.hpp"
#include "util/json.hpp"
#include "util/log.hpp"

namespace hermes::harness::sweep {

namespace {

bool
slurp(const std::string &path, std::string &out)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::ostringstream text;
    text << in.rdbuf();
    out = text.str();
    return true;
}

/** Re-read a 64-bit deterministic counter from the source text at
 * the number's own offset. run.json's deterministic values are
 * uint64 (schedule hashes use all 64 bits), so going through the
 * parser's double would lose precision above 2^53. */
uint64_t
exactUint64At(const std::string &text, size_t offset)
{
    uint64_t v = 0;
    for (size_t i = offset;
         i < text.size()
         && std::isdigit(static_cast<unsigned char>(text[i]));
         ++i)
        v = v * 10 + static_cast<uint64_t>(text[i] - '0');
    return v;
}

/** Reload one stored point bundle into a SweepPoint. Returns false
 * (with a message) on unreadable or malformed artifacts. */
bool
loadPoint(const std::string &dir, const std::string &variant,
          double ratePerSec, SweepPoint &out, std::string &error)
{
    out.variant = variant;
    out.ratePerSec = ratePerSec;

    std::string config_text;
    if (!slurp(dir + "/config.json", config_text)) {
        error = "cannot read " + dir + "/config.json";
        return false;
    }
    const util::JsonParseResult config =
        util::parseJson(config_text);
    if (!config.ok || !config.value.isObject()) {
        error = dir + "/config.json: not a JSON object";
        return false;
    }
    const util::JsonValue *serve = config.value.find("serve");
    const util::JsonValue *rate =
        serve && serve->isObject() ? serve->find("rate_per_sec")
                                   : nullptr;
    if (!rate || !rate->isNumber()) {
        error = dir + "/config.json: missing /serve/rate_per_sec";
        return false;
    }
    if (rate->number() != ratePerSec) {
        error = dir + "/config.json: rate_per_sec "
                + util::jsonNumber(rate->number())
                + " does not match grid rate "
                + util::jsonNumber(ratePerSec);
        return false;
    }

    std::string run_text;
    if (!slurp(dir + "/run.json", run_text)) {
        error = "cannot read " + dir + "/run.json";
        return false;
    }
    const util::JsonParseResult run = util::parseJson(run_text);
    if (!run.ok || !run.value.isObject()) {
        error = dir + "/run.json: not a JSON object";
        return false;
    }

    const util::JsonValue *det = run.value.find("deterministic");
    if (!det || !det->isObject()) {
        error = dir + "/run.json: missing deterministic object";
        return false;
    }
    for (const auto &[name, value] : det->members()) {
        if (!value.isNumber()) {
            error = dir + "/run.json: non-numeric deterministic "
                    + name;
            return false;
        }
        out.deterministic.emplace_back(
            name, exactUint64At(run_text, value.offset()));
    }

    const util::JsonValue *benchmarks = run.value.find("benchmarks");
    if (!benchmarks || !benchmarks->isArray()
        || benchmarks->array().empty()) {
        error = dir + "/run.json: missing benchmarks array";
        return false;
    }
    const util::JsonValue &bench = benchmarks->array().front();
    const util::JsonValue *real_time =
        bench.isObject() ? bench.find("real_time") : nullptr;
    if (real_time && real_time->isNumber())
        out.wallSeconds = real_time->number() / 1e9;
    const util::JsonValue *counters =
        bench.isObject() ? bench.find("counters") : nullptr;
    if (!counters || !counters->isObject()) {
        error = dir + "/run.json: missing counters object";
        return false;
    }
    for (const auto &[name, value] : counters->members()) {
        if (value.isNumber())
            out.metrics[name] = value.number();
    }
    return true;
}

void
writeFile(const std::string &path, const std::string &content,
          std::vector<std::string> &errors)
{
    // Atomic (temp + rename): a killed sweep must never leave a
    // truncated curves.json/point artifact for --reduce-only.
    std::string error;
    if (!util::tryWriteFileAtomic(path, content, error))
        errors.push_back(error);
}

} // namespace

std::string
pointDir(const std::string &outDir, const std::string &variant,
         double ratePerSec)
{
    return outDir + "/points/" + variant + "/rate_"
           + util::jsonNumber(ratePerSec);
}

scenario::ScenarioConfig
pointConfig(const scenario::ScenarioConfig &base,
            const scenario::SweepVariant &variant, double ratePerSec,
            size_t rateIndex)
{
    scenario::ScenarioConfig derived = base;
    derived.name = base.name + "_" + variant.name + "_p"
                   + std::to_string(rateIndex);
    derived.runtime = variant.runtime;
    derived.dvfs = variant.dvfs;
    derived.serve.ratePerSec = ratePerSec;
    derived.sweep = scenario::SweepParams{};
    return derived;
}

SweepOutcome
runSweep(const scenario::ScenarioConfig &config,
         const std::string &outDir, bool reduceOnly)
{
    const scenario::SweepParams &sweep = config.sweep;
    SweepOutcome outcome;

    std::vector<SweepPoint> points;
    for (const scenario::SweepVariant &variant : sweep.variants) {
        for (size_t ri = 0; ri < sweep.ratesPerSec.size(); ++ri) {
            const double rate = sweep.ratesPerSec[ri];
            const std::string dir =
                pointDir(outDir, variant.name, rate);
            if (reduceOnly) {
                SweepPoint point;
                std::string error;
                if (!loadPoint(dir, variant.name, rate, point,
                               error)) {
                    outcome.errors.push_back(error);
                    continue;
                }
                points.push_back(std::move(point));
            } else {
                util::inform("sweep: variant " + variant.name
                             + ", rate " + util::jsonNumber(rate)
                             + " req/s");
                const scenario::ScenarioResult result =
                    scenario::runScenario(
                        pointConfig(config, variant, rate, ri));
                scenario::writeScenarioBundle(dir, result);
                SweepPoint point;
                point.variant = variant.name;
                point.ratePerSec = rate;
                point.wallSeconds = result.wallSeconds;
                point.metrics = result.metrics;
                point.deterministic = result.deterministic;
                points.push_back(std::move(point));
            }
        }
    }

    outcome.curves = reduceSweep(config, points);
    outcome.gateFailure = outcome.curves.gateFailure;

    std::filesystem::create_directories(outDir);
    writeFile(outDir + "/curves.json",
              writeCurvesJson(config, outcome.curves),
              outcome.errors);
    writeFile(outDir + "/curves.md",
              writeCurvesMd(config, outcome.curves), outcome.errors);

    outcome.ok = outcome.errors.empty() && !outcome.gateFailure
        && outcome.curves.pointGateFailures.empty();
    return outcome;
}

} // namespace hermes::harness::sweep
