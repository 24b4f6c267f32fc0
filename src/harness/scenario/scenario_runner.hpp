/**
 * @file
 * Scenario execution and the deterministic evidence bundle.
 *
 * runScenario() maps a validated ScenarioConfig onto the real
 * runtime — fork-join spin bursts, a src/sim benchmark DAG executed
 * as actual tasks (cycles mapped to wall-clock spins), or an
 * open-loop serving run delegated to harness::serve::runServe() —
 * and collects everything a perf claim needs: the scheduler
 * counters, the time series and energy integral of one
 * harness::RunSampler, and a *deterministic counter section* that
 * two same-seed runs must reproduce byte-identically (the `cmp`
 * gate in CI).
 *
 * The evidence bundle (writeScenarioBundle) is four artifacts:
 *
 *   config.json  - defaults-resolved echo (writeConfigJson)
 *   run.json     - Google Benchmark schema (one benchmark whose
 *                  `counters` the scenario's gates bound), plus the
 *                  top-level "deterministic" object
 *   events.jsonl - one JSON object per sample: executed/parked/
 *                  inject-backlog/package-watts over time
 *   summary.md   - the run at a glance, for humans and PR reviews
 *
 * What counts as deterministic is kind-specific and deliberately
 * narrow: task counts and seed-derived checksums for fork_join/dag,
 * the arrival-schedule size and hash for serve. Timing-dependent
 * counters (steals, parks, latency quantiles) are evidence, not
 * determinism gates — they live in run.json's counters only.
 */

#ifndef HERMES_HARNESS_SCENARIO_SCENARIO_RUNNER_HPP
#define HERMES_HARNESS_SCENARIO_SCENARIO_RUNNER_HPP

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "harness/faults/fault_plan.hpp"
#include "harness/run_sampler.hpp"
#include "harness/scenario/scenario_config.hpp"
#include "runtime/runtime_config.hpp"
#include "runtime/stats.hpp"

namespace hermes::runtime {
class Runtime;
}

namespace hermes::harness::scenario {

/** Everything one scenario run produced. */
struct ScenarioResult
{
    ScenarioConfig config; ///< as run (defaults resolved)

    double wallSeconds = 0.0;
    double joules = 0.0;

    /** Scheduler counter deltas over the run. */
    runtime::RuntimeStats stats;

    /** Gateable metrics, emitted into run.json counters. */
    std::map<std::string, double> metrics;

    /** The determinism contract: ordered (name, value) pairs two
     * same-seed runs must reproduce exactly; emitted as run.json's
     * "deterministic" object and compared byte-for-byte by tests
     * and CI. */
    std::vector<std::pair<std::string, uint64_t>> deterministic;

    /** The drawn per-request fault schedule (serve kind with faults
     * enabled; empty otherwise) — echoed into faults.csv. */
    faults::FaultPlan faultPlan;

    /** The RunSampler's rows, written to events.jsonl. */
    std::vector<RunSample> events;
};

/** Map the declarative policy surface onto a RuntimeConfig (shared
 * by run and soak so both modes exercise the identical runtime). */
runtime::RuntimeConfig makeRuntimeConfig(const ScenarioConfig &config);

/** Execute one scenario run. Creates its own Runtime from
 * `config.runtime`/`config.dvfs`; blocks until the workload
 * completes. */
ScenarioResult runScenario(const ScenarioConfig &config);

/** One workload iteration of `config` on an existing runtime — the
 * soak unit. The same workload body runScenario() measures, without
 * sampling or evidence collection. */
void runScenarioIteration(runtime::Runtime &rt,
                          const ScenarioConfig &config);

/** run.json content (Google Benchmark schema + "deterministic"
 * object). Pure function of `result` — no timestamps, no
 * absolute paths — so equal results serialize identically. */
std::string writeRunJson(const ScenarioResult &result);

/** The "deterministic" object alone, serialized exactly as it
 * appears inside run.json (the byte-compare target). */
std::string writeDeterministicJson(const ScenarioResult &result);

/** Write the four-artifact evidence bundle into `dir` (created if
 * needed): config.json, run.json, events.jsonl, summary.md — plus
 * faults.csv when the scenario's faults block is enabled. JSON
 * artifacts are written atomically (temp file + rename). */
void writeScenarioBundle(const std::string &dir,
                         const ScenarioResult &result);

/** Check `gates` against a run's counters. Returns one message per
 * failed bound, naming the counter, its value and the bound; a gated
 * counter the run did not emit fails. Empty = every gate passes. The
 * CLI maps a non-empty result to exit 8, for a run and for any point
 * of a sweep. */
std::vector<std::string>
checkGates(const std::vector<CounterGate> &gates,
           const std::map<std::string, double> &metrics);

/** checkGates() of the scenario's own gates on its run. */
std::vector<std::string> checkGates(const ScenarioResult &result);

} // namespace hermes::harness::scenario

#endif // HERMES_HARNESS_SCENARIO_SCENARIO_RUNNER_HPP
