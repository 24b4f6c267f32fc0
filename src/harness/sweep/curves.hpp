/**
 * @file
 * Sweep reduction: per-point results -> per-variant load/energy
 * curves, knee detection, variant gates, and the rendered outputs.
 *
 * The reducer is a pure function of its inputs: reduceSweep() takes
 * the sweep block plus one SweepPoint per (variant, rate) cell and
 * produces the per-variant curve arrays, the detected knee (the
 * first rate whose sojourn p99 exceeds the declared bound — the
 * cliff the open-loop harness exists to expose), and the gate
 * verdicts. writeCurvesJson()/writeCurvesMd() serialize with fixed
 * ordering and fixed number formatting, so re-reducing the same
 * stored bundles (`hermes-scenario sweep --reduce-only`) emits
 * byte-identical files — that is the determinism contract CI cmp's.
 * Timing metrics from two *live* runs differ; their curves.json
 * "deterministic" object (offered counts and schedule hashes, pure
 * functions of seed and rate) must still match exactly.
 *
 * Two kinds of gate are checked. The scenario's top-level `gates`
 * bound every point absolutely, with the rule `hermes-scenario run`
 * applies to a single run. The sweep block's `gates` compare every
 * non-first variant against variants[0] at each rate point by
 * direction-aware relative regression; a metric that variants[0]
 * pins at zero fails on any worsening.
 */

#ifndef HERMES_HARNESS_SWEEP_CURVES_HPP
#define HERMES_HARNESS_SWEEP_CURVES_HPP

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "harness/scenario/scenario_config.hpp"

namespace hermes::harness::sweep {

/** One (variant, rate) cell's reduced result — the slice of a
 * scenario run.json the curves are built from. */
struct SweepPoint
{
    std::string variant;     ///< sweep variant name
    double ratePerSec = 0.0; ///< offered (base) rate of this point
    double wallSeconds = 0.0;
    /** run.json counters by name (sojourn_p99_ns, ...). */
    std::map<std::string, double> metrics;
    /** run.json "deterministic" object, order preserved. */
    std::vector<std::pair<std::string, uint64_t>> deterministic;
};

/** One row of a variant's curve (rates ascending). */
struct CurvePoint
{
    double ratePerSec = 0.0;
    double acceptedRatePerSec = 0.0;
    double sojournP50Ns = 0.0;
    double sojournP99Ns = 0.0;
    double sojournP999Ns = 0.0;
    double joulesPerRequest = 0.0;
    double meanParkedFraction = 0.0;
    double packageWattsMean = 0.0;
    double shedFrac = 0.0;
};

/** One variant's curve plus its detected knee. */
struct VariantCurve
{
    std::string variant;
    std::vector<CurvePoint> points; ///< rates ascending
    bool kneeFound = false;
    double kneeRatePerSec = 0.0; ///< valid when kneeFound
};

/** One evaluated gate cell: `variant` vs variants[0] at one rate. */
struct GateFinding
{
    std::string metric;
    std::string variant;
    double ratePerSec = 0.0;
    double baseline = 0.0; ///< variants[0]'s value
    double current = 0.0;  ///< this variant's value
    double regression = 0.0;
    double maxRegression = 0.0;
    bool lowerBetter = false;
    bool failed = false;
};

/** Everything reduceSweep() derives from the points. */
struct SweepCurves
{
    std::vector<VariantCurve> variants; ///< sweep-block order
    std::vector<GateFinding> gates;     ///< every evaluated cell
    bool gateFailure = false;           ///< any variant gate failed
    /** Top-level gates that failed on a point: one message per
     * failed bound, naming the variant and the rate. */
    std::vector<std::string> pointGateFailures;
    /** Reduction problems (missing points/metrics) — non-fatal for
     * curve output, but reported in curves.md. */
    std::vector<std::string> notes;
    /** The input points, reordered variant-major, rate-ascending —
     * the source of curves.json's "deterministic" object. */
    std::vector<SweepPoint> points;
};

/**
 * Reduce per-point results into per-variant curves. Points are
 * matched to the sweep grid by (variant name, rate); a missing cell
 * or metric yields a note and a zero value rather than a crash.
 * Pure function: equal inputs produce equal outputs.
 */
SweepCurves reduceSweep(const scenario::ScenarioConfig &config,
                        const std::vector<SweepPoint> &points);

/** curves.json content — fixed key order and number formatting, so
 * equal curves serialize byte-identically. */
std::string writeCurvesJson(const scenario::ScenarioConfig &config,
                            const SweepCurves &curves);

/** curves.md content: provenance, per-variant tables, knee report,
 * gate verdicts, and inline SVG line charts (latency, energy, and
 * power vs offered rate — one chart per measure, never dual axes).
 * Deterministic like writeCurvesJson(). */
std::string writeCurvesMd(const scenario::ScenarioConfig &config,
                          const SweepCurves &curves);

} // namespace hermes::harness::sweep

#endif // HERMES_HARNESS_SWEEP_CURVES_HPP
