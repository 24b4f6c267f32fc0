/**
 * @file
 * Sweep reduction: per-point results -> per-variant load/energy
 * curves (serve) or a figure table (dag), variant gates, and the
 * rendered outputs.
 *
 * The reducer is a pure function of its inputs: reduceSweep() takes
 * the sweep block plus one SweepPoint per (variant, grid point)
 * cell. For a serve sweep it produces the per-variant curve arrays,
 * the detected knee (the first rate whose sojourn p99 exceeds the
 * declared bound — the cliff the open-loop harness exists to
 * expose), and the gate verdicts. For a dag sweep it produces the
 * paper's figure table instead: each cell's mean seconds, joules and
 * EDP, each non-first variant's energy savings, time loss and
 * normalized EDP against variants[0] at the same point, and their
 * means over benchmarks. writeCurvesJson()/writeCurvesMd() serialize
 * with fixed ordering and fixed number formatting, so re-reducing the
 * same stored bundles (`hermes-scenario sweep --reduce-only`) emits
 * byte-identical files — that is the determinism contract CI cmp's.
 * Timing metrics from two *live* serve runs differ; their
 * curves.json "deterministic" object (offered counts and schedule
 * hashes, pure functions of seed and rate) must still match exactly.
 * A sweep on the simulator is deterministic throughout.
 *
 * Two kinds of gate are checked. The scenario's top-level `gates`
 * bound every point absolutely, with the rule `hermes-scenario run`
 * applies to a single run. The sweep block's `gates` compare every
 * non-first variant against variants[0] at each grid point by
 * direction-aware relative regression; a metric that variants[0]
 * pins at zero fails on any worsening.
 */

#ifndef HERMES_HARNESS_SWEEP_CURVES_HPP
#define HERMES_HARNESS_SWEEP_CURVES_HPP

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "harness/scenario/scenario_config.hpp"

namespace hermes::harness::sweep {

/** One (variant, grid point) cell's reduced result — the slice of a
 * scenario run.json the curves are built from. A serve point sits at
 * a rate, a dag point at a benchmark and a worker count. */
struct SweepPoint
{
    std::string variant;     ///< sweep variant name
    double ratePerSec = 0.0; ///< serve: offered (base) rate
    std::string benchmark;   ///< dag: generator name
    unsigned workers = 0;    ///< dag: worker count
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

/** A variant against variants[0] at one point, by
 * harness Comparison's formulas (percent, as the paper plots them). */
struct Versus
{
    double energySavingsPct = 0.0; ///< (1 - J / J0) x 100
    double timeLossPct = 0.0;      ///< (s / s0 - 1) x 100
    double normalizedEdp = 0.0;    ///< EDP / EDP0
};

/** One (variant, benchmark, workers) cell of a dag sweep's table. */
struct TableRow
{
    std::string variant;
    std::string benchmark;
    unsigned workers = 0;
    double seconds = 0.0; ///< mean makespan
    double joules = 0.0;  ///< mean energy
    double edp = 0.0;     ///< mean seconds x mean joules
    /** Against variants[0]; unset on variants[0] itself. */
    std::optional<Versus> versus;
};

/** A non-first variant's Versus at one worker count, averaged over
 * the benchmarks (the figures' "average" rows). */
struct TableAverage
{
    std::string variant;
    unsigned workers = 0;
    Versus versus;
};

/** One evaluated gate cell: `variant` vs variants[0] at one point. */
struct GateFinding
{
    std::string metric;
    std::string variant;
    double ratePerSec = 0.0; ///< serve point
    std::string benchmark;   ///< dag point
    unsigned workers = 0;    ///< dag point
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
    std::vector<VariantCurve> variants; ///< serve; sweep-block order
    std::vector<TableRow> rows;         ///< dag; variant-major
    std::vector<TableAverage> averages; ///< dag; variant-major
    std::vector<GateFinding> gates;     ///< every evaluated cell
    bool gateFailure = false;           ///< any variant gate failed
    /** Top-level gates that failed on a point: one message per
     * failed bound, naming the variant and the point. */
    std::vector<std::string> pointGateFailures;
    /** Reduction problems (missing points/metrics) — non-fatal for
     * curve output, but reported in curves.md. */
    std::vector<std::string> notes;
    /** The input points, reordered variant-major in grid order —
     * the source of curves.json's "deterministic" object. */
    std::vector<SweepPoint> points;
};

/** The grid's points, coordinates only, in file order: one per rate
 * for a serve sweep; one per (benchmark, workers) for a dag sweep,
 * benchmark-major. */
std::vector<SweepPoint> gridPoints(const scenario::ScenarioConfig &config);

/** "1000 req/s" or "knn at 16 workers", for messages. */
std::string pointLabel(const SweepPoint &point);

/**
 * Reduce per-point results into per-variant curves (serve) or the
 * figure table (dag). Points are matched to the sweep grid by
 * variant name and coordinates; a missing cell or metric yields a
 * note and a zero value rather than a crash. Pure function: equal
 * inputs produce equal outputs.
 */
SweepCurves reduceSweep(const scenario::ScenarioConfig &config,
                        const std::vector<SweepPoint> &points);

/** curves.json content — fixed key order and number formatting, so
 * equal curves serialize byte-identically. */
std::string writeCurvesJson(const scenario::ScenarioConfig &config,
                            const SweepCurves &curves);

/** curves.md content. Serve: provenance, per-variant tables, knee
 * report, gate verdicts, and inline SVG line charts (latency,
 * energy, and power vs offered rate — one chart per measure, never
 * dual axes). Dag: provenance, one table per variant at 4
 * significant digits, and the gate verdicts. Deterministic like
 * writeCurvesJson(). */
std::string writeCurvesMd(const scenario::ScenarioConfig &config,
                          const SweepCurves &curves);

} // namespace hermes::harness::sweep

#endif // HERMES_HARNESS_SWEEP_CURVES_HPP
