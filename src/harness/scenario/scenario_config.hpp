/**
 * @file
 * Declarative scenario files: schema, validation, and the canonical
 * defaults-resolved echo.
 *
 * A scenario is a JSON file naming a workload kind (fork_join, dag,
 * serve), the runtime/DVFS policy surface, a duration, and absolute
 * bounds on the run's counters (`gates`). One scenario file *is* the
 * experiment: the same file drives `hermes-scenario run`, `soak` and
 * `sweep`, replacing the ad-hoc bench flag combinations the earlier
 * PRs gated claims with (docs/SCENARIOS.md).
 *
 * Parsing is two-layered: util::parseJson turns bytes into a value
 * tree (never crashes — fuzzed in tests/test_scenario_config.cpp),
 * and this schema layer walks the tree collecting *all* diagnostics
 * instead of stopping at the first. Every diagnostic carries an RFC
 * 6901 JSON pointer ("/runtime/park_threshold: expected number,
 * got string") so a CI failure names the exact offending key.
 * Unknown keys and duplicate keys are errors — a typo must not
 * silently run the wrong experiment.
 */

#ifndef HERMES_HARNESS_SCENARIO_SCENARIO_CONFIG_HPP
#define HERMES_HARNESS_SCENARIO_SCENARIO_CONFIG_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace hermes::harness::scenario {

/** The workload a scenario drives onto the runtime. */
enum class ScenarioKind
{
    kForkJoin, ///< repeated flat fork-join bursts of spin tasks
    kDag,      ///< a src/sim DAG-generator graph, run or simulated
    kServe,    ///< open-loop serving via harness::serve::runServe()
};

const char *toString(ScenarioKind kind);

/** Declarative subset of runtime::RuntimeConfig (the A/B surface). */
struct RuntimePolicy
{
    unsigned workers = 2;
    bool parking = true;
    unsigned parkThreshold = 4;
};

/** Tempo/DVFS policy of the run (core::TempoConfig). */
struct DvfsPolicy
{
    bool tempo = false; ///< wire a TempoController into the hooks
    std::string policy = "unified"; ///< workpath|workload|unified
    /** Usable rungs in MHz, fastest first; empty means the profile's
     * paper pair (platform::defaultTempoLadder), which the parser
     * fills in so the echo names the rungs a run used. */
    std::vector<unsigned> ladder;
    unsigned thresholds = 2; ///< K, TempoConfig::numThresholds
    unsigned window = 64;    ///< TempoConfig::profilerWindow
    /** Sim substrate only: SimConfig::dvfsCallCostSec, in µs. */
    double callCostUs = 3.0;
};

/** fork_join kind: `repeats` sequential waves of `tasks` spin
 * tasks. Deterministic by construction: the executed-task count and
 * the seed-derived checksum are pure functions of these numbers. */
struct ForkJoinParams
{
    uint64_t tasks = 256;
    uint64_t spinNanos = 5'000;
    unsigned repeats = 4;
};

/** dag kind: one generated benchmark DAG (sim/dag_generators.hpp),
 * its grains anchored at the profile's fastest rung. The runtime
 * substrate executes it on the threaded runtime, cycles spun at that
 * rung; the sim substrate runs the Section 4.1 trial protocol on the
 * simulator (scenario_runner.hpp). */
struct DagParams
{
    std::string benchmark = "ray"; ///< knn|ray|sort|compare|hull
    double scale = 0.02;           ///< multiplies total DAG work
    std::string substrate = "runtime"; ///< runtime|sim
    /** Sim substrate only: sim::SchedulingMode, static|dynamic. */
    std::string scheduling = "static";
};

/** serve kind: parameters forwarded to harness::serve::ServeConfig. */
struct ServeParams
{
    double ratePerSec = 2'000.0;
    double durationSec = 0.25;
    /** Arrival model: "poisson" | "mmpp". MMPP is the 2-state
     * bursty model; rate_per_sec is its base-state rate and the
     * burst-state rate is mmppBurstFactor x that. */
    std::string arrivals = "poisson";
    double mmppBurstFactor = 8.0;    ///< burst rate / base rate
    double mmppBaseDwellSec = 0.1;   ///< mean base-state dwell
    double mmppBurstDwellSec = 0.02; ///< mean burst-state dwell
    unsigned producers = 2;
    uint64_t spinNanos = 20'000;
    std::string workload;  ///< registered workload; empty = spin
    uint64_t scale = 1024; ///< per-request workload input size
    bool admission = true;
    uint64_t admitHigh = 1024;
    uint64_t admitLow = 256;
};

/**
 * faults{} block (hermes-chaos, docs/RESILIENCE.md): deterministic
 * fault injection and request-lifecycle knobs forwarded to
 * harness::faults::FaultConfig. Only valid for serve scenarios; when
 * absent the run emits no fault plan and no outcome counters.
 */
struct FaultParams
{
    bool enabled = false;         ///< a faults block was present
    double failProb = 0.0;        ///< per-attempt injected-failure prob
    double stragglerProb = 0.0;   ///< per-request straggler prob
    double stragglerFactor = 4.0; ///< service-time inflation (x)
    int32_t stallWorker = -1;     ///< worker to stall; -1 = none
    double stallAtSec = 0.0;      ///< stall time into the run
    double stallMs = 0.0;         ///< stall duration
    bool forceSpill = false;      ///< shrink inject ring => mutex spill
    double deadlineMs = 0.0;      ///< per-request deadline; 0 = none
    uint32_t maxRetries = 0;      ///< bounded retries per request
    double retryBackoffMs = 0.1;  ///< backoff base (doubles per attempt)
};

/** Absolute bound on one run.json counter, checked by `run` after
 * the bundle lands (exit code 8). At least one bound is set. */
struct CounterGate
{
    std::string counter;       ///< counter name in run.json
    std::optional<double> min; ///< fail when the value is below
    std::optional<double> max; ///< fail when the value is above
};

/** Direction-aware per-metric gate of a sweep: a variant against
 * variants[0] at the same grid point. */
struct VariantGate
{
    std::string metric;        ///< counter name in run.json
    bool lowerBetter = false;  ///< smaller values are healthier
    double maxRegression = 0.10; ///< allowed relative worsening
};

/** One policy variant of a sweep: the base scenario's runtime and
 * dvfs blocks with this variant's partial overrides applied. The
 * stored policies are fully resolved — echoing and re-parsing them
 * is a fixpoint. */
struct SweepVariant
{
    std::string name;      ///< required; names curves and point dirs
    RuntimePolicy runtime; ///< base runtime + variant overrides
    DvfsPolicy dvfs;       ///< base dvfs + variant overrides
};

/**
 * sweep block: a grid of points x policy variants run by
 * `hermes-scenario sweep`, reduced into curves.json/curves.md. A
 * serve sweep's points are offered rates; a dag sweep's are
 * benchmarks x worker counts. Gates compare every non-first variant
 * against variants[0] at each point by the direction-aware relative
 * regression of each gated metric.
 */
struct SweepParams
{
    bool enabled = false; ///< a sweep block was present
    /** Serve: offered rates (requests/sec), strictly increasing. */
    std::vector<double> ratesPerSec;
    /** Dag: distinct generator names, in table order. */
    std::vector<std::string> benchmarks;
    /** Dag: worker counts, strictly increasing. */
    std::vector<unsigned> workers;
    std::vector<SweepVariant> variants;
    /** Serve knee bound: the curve's knee is the first rate whose
     * sojourn p99 exceeds this many nanoseconds. 0 disables
     * detection. */
    double kneeP99Ns = 0.0;
    /** Per-metric variant-vs-variants[0] gates (exit code 7). */
    std::vector<VariantGate> gates;
};

/** Soak-mode pacing and failure gates. */
struct SoakParams
{
    double durationSec = 10.0;   ///< total soak time (CLI can override)
    double checkpointSec = 2.0;  ///< stats-delta checkpoint period
    /** Fail when a checkpoint window's mean iteration time exceeds
     * driftFactor x the first window's mean (latency drift). */
    double driftFactor = 3.0;
};

/** A fully resolved scenario. */
struct ScenarioConfig
{
    std::string name;                 ///< required
    ScenarioKind kind = ScenarioKind::kForkJoin; ///< required
    uint64_t seed = 42;
    std::string profile = "A";        ///< power-model system profile
    double sampleHz = 200.0;          ///< events.jsonl sampling rate
    RuntimePolicy runtime;
    DvfsPolicy dvfs;
    ForkJoinParams forkJoin;
    DagParams dag;
    ServeParams serve;
    FaultParams faults;
    std::vector<CounterGate> gates;
    SoakParams soak;
    SweepParams sweep;

    /** A dag scenario on the simulator substrate. */
    bool
    onSim() const
    {
        return kind == ScenarioKind::kDag && dag.substrate == "sim";
    }
};

/** One validation finding, pointer-first so tests and CI can grep. */
struct ScenarioDiag
{
    std::string pointer; ///< RFC 6901 pointer to the offending key
    std::string message; ///< what is wrong and what was expected

    /** "/runtime/workers: expected number, got string" */
    std::string toString() const { return pointer + ": " + message; }
};

/** Outcome of parsing + validating a scenario document. */
struct ScenarioLoadResult
{
    bool ok = false;
    ScenarioConfig config;            ///< valid only when ok
    std::vector<ScenarioDiag> diags;  ///< non-empty when !ok
};

/** Parse and validate scenario JSON text. Collects every
 * diagnostic it can reach; `ok` iff there are none. Total: never
 * crashes, always returns either a config or diagnostics. */
ScenarioLoadResult parseScenario(const std::string &text);

/** parseScenario() over a file; unreadable files yield a
 * diagnostic at pointer "" rather than a crash. */
ScenarioLoadResult loadScenarioFile(const std::string &path);

/**
 * Canonical defaults-resolved echo of `config`: every knob the run
 * used, stable member order, newline-terminated — a pure function
 * of the config, so two runs of one scenario emit byte-identical
 * config.json (the determinism gate `cmp`s it in CI). Only the
 * param block matching `config.kind` is emitted.
 */
std::string writeConfigJson(const ScenarioConfig &config);

} // namespace hermes::harness::scenario

#endif // HERMES_HARNESS_SCENARIO_SCENARIO_CONFIG_HPP
