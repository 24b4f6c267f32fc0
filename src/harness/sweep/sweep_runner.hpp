/**
 * @file
 * Sweep orchestration: the points x variants grid over the scenario
 * runner, plus reduce-only re-reduction from stored bundles.
 *
 * runSweep() executes every (variant, point) cell in one long-lived
 * process — each cell derives a per-point ScenarioConfig (variant
 * runtime/dvfs, that cell's rate or benchmark and worker count,
 * sweep block stripped), runs it on a *fresh* Runtime (or the
 * simulator) via scenario::runScenario(), and writes the standard
 * four-artifact bundle under `<out>/points/<variant>/rate_<rate>/`
 * (serve) or `<out>/points/<variant>/<benchmark>_w<workers>/` (dag).
 * The cells then reduce into `<out>/curves.json` and
 * `<out>/curves.md` (curves.hpp).
 *
 * Reduce-only mode skips execution and reloads each stored point
 * bundle (the point from config.json, counters and the
 * deterministic object from run.json). Because the reducer and
 * writers are pure, a reduce-only pass over a sweep's own output
 * reproduces curves.json byte-identically — the cmp gate in CI.
 */

#ifndef HERMES_HARNESS_SWEEP_SWEEP_RUNNER_HPP
#define HERMES_HARNESS_SWEEP_SWEEP_RUNNER_HPP

#include <string>
#include <vector>

#include "harness/sweep/curves.hpp"

namespace hermes::harness::sweep {

/** Outcome of runSweep(), mapped to exit codes by the CLI. */
struct SweepOutcome
{
    bool ok = false;          ///< ran, reduced, and gates passed
    bool gateFailure = false; ///< a variant gate failed (exit 7)
    // A top-level gate that failed on a point (exit 8) is listed in
    // curves.pointGateFailures.
    /** I/O or bundle-load failures (exit 1). */
    std::vector<std::string> errors;
    SweepCurves curves;
};

/** `<outDir>/points/<variant>/rate_<rate>` (serve) or
 * `<outDir>/points/<variant>/<benchmark>_w<workers>` (dag) for one
 * grid cell; `point` carries the coordinates (gridPoints()). */
std::string pointDir(const std::string &outDir,
                     const std::string &variant, const SweepPoint &point);

/** The per-point ScenarioConfig for one grid cell: the base
 * scenario with the variant's runtime/dvfs, the point's rate (serve)
 * or benchmark and worker count (dag), a `<name>_<variant>_p<index>`
 * name, and the sweep block stripped (a point run must not
 * recurse). */
scenario::ScenarioConfig
pointConfig(const scenario::ScenarioConfig &base,
            const scenario::SweepVariant &variant, const SweepPoint &point,
            size_t index);

/**
 * Run (or, with `reduceOnly`, reload) the full sweep grid of
 * `config` and write curves.json + curves.md into `outDir`.
 * `config.sweep.enabled` must hold (the CLI validates first).
 */
SweepOutcome runSweep(const scenario::ScenarioConfig &config,
                      const std::string &outDir, bool reduceOnly);

} // namespace hermes::harness::sweep

#endif // HERMES_HARNESS_SWEEP_SWEEP_RUNNER_HPP
