/**
 * @file
 * hermes-scenario: the declarative scenario driver (docs/SCENARIOS.md).
 *
 *   hermes-scenario validate <scenario.json>
 *   hermes-scenario run      <scenario.json> [--out DIR]
 *   hermes-scenario soak     <scenario.json> [--out DIR] [--duration SEC]
 *   hermes-scenario sweep    <scenario.json> [--out DIR] [--reduce-only]
 *
 * Exit codes are a stable contract (tests/test_scenario_cli.cpp
 * subprocesses this binary and asserts them):
 *
 *   0  success / gates passed / soak healthy / sweep gates passed
 *   1  internal or I/O error
 *   2  usage error (bad subcommand, missing argument, unknown flag)
 *   3  invalid scenario (validation diagnostics on stderr), or one
 *      the subcommand cannot run: `sweep` without a sweep block,
 *      `soak` on the sim substrate
 *   6  soak: monotone-counter regression or latency drift
 *   7  sweep: a variant gate failed (curves.md has the verdicts)
 *   8  run, or any point of a sweep: a counter gate failed (one
 *      stderr line per failed bound; a sweep's names the variant
 *      and the rate, and takes precedence over 7)
 *
 * Codes 4 and 5 are retired and must not be reused.
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "harness/scenario/scenario_config.hpp"
#include "harness/scenario/scenario_runner.hpp"
#include "harness/scenario/soak.hpp"
#include "harness/sweep/sweep_runner.hpp"

namespace {

namespace scenario = hermes::harness::scenario;

constexpr int kExitOk = 0;
constexpr int kExitInternal = 1;
constexpr int kExitUsage = 2;
constexpr int kExitInvalidScenario = 3;
constexpr int kExitSoakFailure = 6;
constexpr int kExitSweepGate = 7;
constexpr int kExitGate = 8;

const char *const kUsage =
    "usage: hermes-scenario <subcommand> <scenario.json> [flags]\n"
    "\n"
    "subcommands:\n"
    "  validate   parse + validate only; diagnostics on stderr\n"
    "  run        execute, write the evidence bundle, check gates\n"
    "  soak       loop the workload, checkpointing scheduler stats\n"
    "  sweep      run the points x variants grid, reduce to curves\n"
    "\n"
    "flags:\n"
    "  --out DIR        evidence/soak/sweep output directory\n"
    "                   (default scenario-out/<name>)\n"
    "  --duration SEC   soak duration override (default: scenario's)\n"
    "  --reduce-only    sweep: re-reduce stored point bundles\n"
    "                   without running anything\n"
    "\n"
    "exit codes: 0 ok/pass, 1 internal error, 2 usage,\n"
    "  3 invalid scenario, 6 soak failure, 7 sweep gate failure,\n"
    "  8 gate failure\n";

struct Options
{
    std::string subcommand;
    std::string scenarioPath;
    std::string outDir;              // empty = scenario-out/<name>
    double durationSec = 0.0;        // <= 0 = scenario's own
    bool reduceOnly = false;         // sweep: reload, don't run
};

/** Parse argv into Options; returns false (after printing to
 * stderr) on any usage error. */
bool
parseArgs(int argc, char **argv, Options &opts)
{
    if (argc < 3) {
        std::fputs(kUsage, stderr);
        return false;
    }
    opts.subcommand = argv[1];
    opts.scenarioPath = argv[2];
    for (int i = 3; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "hermes-scenario: %s needs a value\n",
                             flag);
                return nullptr;
            }
            return argv[++i];
        };
        if (arg == "--out") {
            const char *v = value("--out");
            if (v == nullptr)
                return false;
            opts.outDir = v;
        } else if (arg == "--duration") {
            const char *v = value("--duration");
            if (v == nullptr)
                return false;
            char *end = nullptr;
            opts.durationSec = std::strtod(v, &end);
            if (end == v || *end != '\0') {
                std::fprintf(stderr,
                             "hermes-scenario: --duration wants a "
                             "number, got '%s'\n",
                             v);
                return false;
            }
        } else if (arg == "--reduce-only") {
            opts.reduceOnly = true;
        } else {
            std::fprintf(stderr,
                         "hermes-scenario: unknown flag '%s'\n%s",
                         arg.c_str(), kUsage);
            return false;
        }
    }
    return true;
}

/** Load + validate, printing every diagnostic on failure. */
bool
loadOrDiagnose(const std::string &path,
               scenario::ScenarioConfig &config)
{
    const scenario::ScenarioLoadResult loaded =
        scenario::loadScenarioFile(path);
    if (!loaded.ok) {
        std::fprintf(stderr,
                     "hermes-scenario: %s is not a valid scenario "
                     "(%zu diagnostic(s)):\n",
                     path.c_str(), loaded.diags.size());
        for (const scenario::ScenarioDiag &diag : loaded.diags)
            std::fprintf(stderr, "  %s\n",
                         diag.toString().c_str());
        return false;
    }
    config = loaded.config;
    return true;
}

std::string
outDirFor(const Options &opts, const scenario::ScenarioConfig &c)
{
    return opts.outDir.empty() ? "scenario-out/" + c.name
                               : opts.outDir;
}

int
cmdValidate(const Options &opts)
{
    scenario::ScenarioConfig config;
    if (!loadOrDiagnose(opts.scenarioPath, config))
        return kExitInvalidScenario;
    // Echo the canonical defaults-resolved form so `validate` doubles
    // as a normalizer.
    std::fputs(scenario::writeConfigJson(config).c_str(), stdout);
    return kExitOk;
}

int
cmdRun(const Options &opts)
{
    scenario::ScenarioConfig config;
    if (!loadOrDiagnose(opts.scenarioPath, config))
        return kExitInvalidScenario;
    const scenario::ScenarioResult result =
        scenario::runScenario(config);
    scenario::writeScenarioBundle(outDirFor(opts, config), result);
    // Gates are checked after the bundle lands, so a failed run
    // still leaves its full evidence on disk.
    const std::vector<std::string> gate_failures =
        scenario::checkGates(result);
    for (const std::string &failure : gate_failures)
        std::fprintf(stderr, "hermes-scenario: %s\n",
                     failure.c_str());
    return gate_failures.empty() ? kExitOk : kExitGate;
}

int
cmdSoak(const Options &opts)
{
    scenario::ScenarioConfig config;
    if (!loadOrDiagnose(opts.scenarioPath, config))
        return kExitInvalidScenario;
    if (config.onSim()) {
        std::fprintf(stderr,
                     "hermes-scenario: %s runs on the simulator — "
                     "`soak` needs the runtime substrate "
                     "(docs/SCENARIOS.md)\n",
                     opts.scenarioPath.c_str());
        return kExitInvalidScenario;
    }
    const scenario::SoakOutcome outcome = scenario::runSoak(
        config, outDirFor(opts, config), opts.durationSec);
    for (const std::string &failure : outcome.failures)
        std::fprintf(stderr, "hermes-scenario: soak: %s\n",
                     failure.c_str());
    return outcome.ok ? kExitOk : kExitSoakFailure;
}

int
cmdSweep(const Options &opts)
{
    scenario::ScenarioConfig config;
    if (!loadOrDiagnose(opts.scenarioPath, config))
        return kExitInvalidScenario;
    if (!config.sweep.enabled) {
        std::fprintf(stderr,
                     "hermes-scenario: %s has no sweep block — "
                     "`sweep` needs one (docs/SCENARIOS.md)\n",
                     opts.scenarioPath.c_str());
        return kExitInvalidScenario;
    }

    namespace sweep = hermes::harness::sweep;
    const std::string dir = outDirFor(opts, config);
    const sweep::SweepOutcome outcome =
        sweep::runSweep(config, dir, opts.reduceOnly);

    for (const std::string &error : outcome.errors)
        std::fprintf(stderr, "hermes-scenario: sweep: %s\n",
                     error.c_str());
    if (!outcome.errors.empty())
        return kExitInternal;

    std::printf("sweep: %zu variant(s) x %zu %s -> %s/curves."
                "json, curves.md\n",
                config.sweep.variants.size(),
                sweep::gridPoints(config).size(),
                config.kind == scenario::ScenarioKind::kDag ? "point(s)"
                                                            : "rate(s)",
                dir.c_str());
    for (const auto &vc : outcome.curves.variants) {
        if (vc.kneeFound)
            std::printf("sweep: %s knee at %g req/s\n",
                        vc.variant.c_str(), vc.kneeRatePerSec);
    }
    // Like run's, a sweep's gates are checked once curves.json and
    // curves.md have landed.
    for (const std::string &failure : outcome.curves.pointGateFailures)
        std::fprintf(stderr, "hermes-scenario: sweep: %s\n",
                     failure.c_str());
    if (outcome.gateFailure)
        std::fprintf(stderr,
                     "hermes-scenario: sweep: gate failure — see "
                     "%s/curves.md\n",
                     dir.c_str());
    if (!outcome.curves.pointGateFailures.empty())
        return kExitGate;
    return outcome.gateFailure ? kExitSweepGate : kExitOk;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc >= 2
        && (std::string(argv[1]) == "--help"
            || std::string(argv[1]) == "-h")) {
        std::fputs(kUsage, stdout);
        return kExitOk;
    }

    Options opts;
    if (!parseArgs(argc, argv, opts))
        return kExitUsage;

    if (opts.subcommand == "validate")
        return cmdValidate(opts);
    if (opts.subcommand == "run")
        return cmdRun(opts);
    if (opts.subcommand == "soak")
        return cmdSoak(opts);
    if (opts.subcommand == "sweep")
        return cmdSweep(opts);

    std::fprintf(stderr,
                 "hermes-scenario: unknown subcommand '%s'\n%s",
                 opts.subcommand.c_str(), kUsage);
    return kExitUsage;
}
