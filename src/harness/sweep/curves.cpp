#include "harness/sweep/curves.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>

#include "harness/scenario/scenario_runner.hpp"
#include "util/json.hpp"

namespace hermes::harness::sweep {

namespace {

/**
 * Direction-aware relative worsening of `current` against `base`
 * (> 0 means worse). A base pinned at zero fails absolutely: any
 * worsening beyond a 1e-9 epsilon reads +infinity.
 */
double
relativeRegression(double base, double current, bool lowerBetter)
{
    constexpr double kEpsilon = 1e-9;
    if (std::fabs(base) < kEpsilon) {
        const bool worse = lowerBetter ? current > kEpsilon
                                       : current < -kEpsilon;
        return worse ? std::numeric_limits<double>::infinity() : 0.0;
    }
    const double delta = (current - base) / std::fabs(base);
    return lowerBetter ? delta : -delta;
}

/** Deterministic short float formatting shared by tables and SVG
 * coordinates (`%.<digits>g`: locale-independent, no trailing
 * zeros). */
std::string
fmtG(double v, int digits = 6)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.*g", digits, v);
    return buf;
}

double
metricOr(const SweepPoint &p, const char *name, double fallback,
         std::vector<std::string> &notes)
{
    auto it = p.metrics.find(name);
    if (it != p.metrics.end())
        return it->second;
    notes.push_back("point (" + p.variant + ", " + pointLabel(p)
                    + "): missing metric " + name);
    return fallback;
}

bool
samePoint(const SweepPoint &a, const SweepPoint &b)
{
    return a.ratePerSec == b.ratePerSec && a.benchmark == b.benchmark
        && a.workers == b.workers;
}

/** A point's coordinates as JSON members: `"rate_per_sec": r` or
 * `"benchmark": "knn", "workers": 16`. */
std::string
pointJson(bool dag, double rate, const std::string &benchmark,
          unsigned workers)
{
    return dag ? "\"benchmark\": " + util::jsonQuote(benchmark)
                     + ", \"workers\": " + std::to_string(workers)
               : "\"rate_per_sec\": " + util::jsonNumber(rate);
}

CurvePoint
toCurvePoint(const SweepPoint &p, std::vector<std::string> &notes)
{
    CurvePoint c;
    c.ratePerSec = p.ratePerSec;
    c.acceptedRatePerSec =
        metricOr(p, "accepted_rate_per_sec", 0.0, notes);
    c.sojournP50Ns = metricOr(p, "sojourn_p50_ns", 0.0, notes);
    c.sojournP99Ns = metricOr(p, "sojourn_p99_ns", 0.0, notes);
    c.sojournP999Ns = metricOr(p, "sojourn_p999_ns", 0.0, notes);
    c.joulesPerRequest =
        metricOr(p, "joules_per_request", 0.0, notes);
    c.meanParkedFraction =
        metricOr(p, "mean_parked_fraction", 0.0, notes);
    c.packageWattsMean =
        metricOr(p, "package_watts_mean", 0.0, notes);
    c.shedFrac = metricOr(p, "shed_frac", 0.0, notes);
    return c;
}

// --- inline SVG line charts ---------------------------------------

/** Categorical palette (light mode), assigned to variants in sweep
 * order and never cycled — the schema caps variants at 8. */
const char *const kSeriesColors[8] = {
    "#2a78d6", "#eb6834", "#1baf7a", "#eda100",
    "#e87ba4", "#008300", "#4a3aa7", "#e34948",
};

struct Series
{
    std::string name;
    std::string color;
    std::vector<std::pair<double, double>> xy;
};

/** Round `v` up to 1/2/5 x 10^k — tidy axis maxima. */
double
niceCeil(double v)
{
    if (v <= 0.0)
        return 1.0;
    const double mag = std::pow(10.0, std::floor(std::log10(v)));
    for (double m : {1.0, 2.0, 5.0, 10.0}) {
        if (v <= m * mag)
            return m * mag;
    }
    return 10.0 * mag;
}

/**
 * One self-contained SVG line chart: offered rate on x, `yLabel` on
 * y, one 2px line + markers per series, horizontal gridlines, a
 * legend row, and a direct label at each line's last point. Text
 * stays in ink colors; only marks wear series colors. Deterministic
 * output (fixed formatting, no timestamps or random ids).
 */
std::string
renderLineChart(const std::string &title, const std::string &yLabel,
                const std::vector<Series> &series)
{
    const double width = 640.0, height = 320.0;
    const double left = 64.0, right = width - 128.0;
    const double top = 64.0, bottom = height - 40.0;

    double max_x = 0.0, max_y = 0.0;
    std::vector<double> xticks;
    for (const Series &s : series) {
        for (const auto &[x, y] : s.xy) {
            max_x = std::max(max_x, x);
            max_y = std::max(max_y, y);
            if (std::find(xticks.begin(), xticks.end(), x)
                == xticks.end())
                xticks.push_back(x);
        }
    }
    std::sort(xticks.begin(), xticks.end());
    if (max_x <= 0.0)
        max_x = 1.0;
    const double y_max = niceCeil(max_y);
    const double x_span = max_x * 1.04;

    auto px = [&](double x) {
        return left + (right - left) * (x / x_span);
    };
    auto py = [&](double y) {
        return bottom - (bottom - top) * (y / y_max);
    };

    std::ostringstream svg;
    svg << "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\""
        << fmtG(width) << "\" height=\"" << fmtG(height)
        << "\" viewBox=\"0 0 " << fmtG(width) << " " << fmtG(height)
        << "\" role=\"img\" font-family=\"system-ui, sans-serif\">\n";
    svg << "  <title>" << title << "</title>\n";
    svg << "  <text x=\"" << fmtG(left) << "\" y=\"20\" fill=\""
        << "#0b0b0b\" font-size=\"13\" font-weight=\"600\">" << title
        << "</text>\n";

    // Legend row under the title: colored swatch + ink-colored name.
    double lx = left;
    for (const Series &s : series) {
        svg << "  <line x1=\"" << fmtG(lx) << "\" y1=\"34\" x2=\""
            << fmtG(lx + 18.0) << "\" y2=\"34\" stroke=\"" << s.color
            << "\" stroke-width=\"2\"/>\n";
        svg << "  <text x=\"" << fmtG(lx + 23.0)
            << "\" y=\"38\" fill=\"#52514e\" font-size=\"11\">"
            << s.name << "</text>\n";
        lx += 23.0 + 7.0 * static_cast<double>(s.name.size()) + 18.0;
    }

    // Horizontal gridlines + y tick labels.
    for (int i = 0; i <= 4; ++i) {
        const double yv = y_max * i / 4.0;
        const double yp = py(yv);
        svg << "  <line x1=\"" << fmtG(left) << "\" y1=\""
            << fmtG(yp) << "\" x2=\"" << fmtG(right) << "\" y2=\""
            << fmtG(yp) << "\" stroke=\""
            << (i == 0 ? "#c3c2b7" : "#e1e0d9")
            << "\" stroke-width=\"1\"/>\n";
        svg << "  <text x=\"" << fmtG(left - 6.0) << "\" y=\""
            << fmtG(yp + 4.0)
            << "\" fill=\"#898781\" font-size=\"11\" "
               "text-anchor=\"end\">"
            << fmtG(yv) << "</text>\n";
    }
    svg << "  <text x=\"" << fmtG(left) << "\" y=\""
        << fmtG(top - 8.0) << "\" fill=\"#898781\" font-size=\"11\">"
        << yLabel << "</text>\n";

    // X ticks at the swept rates themselves (the grid is the data).
    const size_t stride =
        xticks.size() > 8 ? (xticks.size() + 7) / 8 : 1;
    for (size_t i = 0; i < xticks.size(); i += stride) {
        const double xp = px(xticks[i]);
        svg << "  <line x1=\"" << fmtG(xp) << "\" y1=\""
            << fmtG(bottom) << "\" x2=\"" << fmtG(xp) << "\" y2=\""
            << fmtG(bottom + 4.0)
            << "\" stroke=\"#c3c2b7\" stroke-width=\"1\"/>\n";
        svg << "  <text x=\"" << fmtG(xp) << "\" y=\""
            << fmtG(bottom + 17.0)
            << "\" fill=\"#898781\" font-size=\"11\" "
               "text-anchor=\"middle\">"
            << fmtG(xticks[i]) << "</text>\n";
    }
    svg << "  <text x=\"" << fmtG((left + right) / 2.0) << "\" y=\""
        << fmtG(height - 8.0)
        << "\" fill=\"#898781\" font-size=\"11\" "
           "text-anchor=\"middle\">offered rate (req/s)</text>\n";

    // Series: 2px line, 4px markers, direct label at the last point.
    for (const Series &s : series) {
        if (s.xy.empty())
            continue;
        svg << "  <polyline fill=\"none\" stroke=\"" << s.color
            << "\" stroke-width=\"2\" points=\"";
        for (size_t i = 0; i < s.xy.size(); ++i)
            svg << (i ? " " : "") << fmtG(px(s.xy[i].first)) << ","
                << fmtG(py(s.xy[i].second));
        svg << "\"/>\n";
        for (const auto &[x, y] : s.xy)
            svg << "  <circle cx=\"" << fmtG(px(x)) << "\" cy=\""
                << fmtG(py(y)) << "\" r=\"4\" fill=\"" << s.color
                << "\"/>\n";
        svg << "  <text x=\"" << fmtG(px(s.xy.back().first) + 8.0)
            << "\" y=\"" << fmtG(py(s.xy.back().second) + 4.0)
            << "\" fill=\"#52514e\" font-size=\"11\">" << s.name
            << "</text>\n";
    }

    svg << "</svg>";
    return svg.str();
}

/** Build one chart's series from the curves via a field extractor. */
template <typename Extract>
std::vector<Series>
makeSeries(const SweepCurves &curves, Extract extract)
{
    std::vector<Series> out;
    for (size_t i = 0; i < curves.variants.size(); ++i) {
        const VariantCurve &vc = curves.variants[i];
        Series s;
        s.name = vc.variant;
        s.color = kSeriesColors[i < 8 ? i : 7];
        for (const CurvePoint &p : vc.points)
            s.xy.emplace_back(p.ratePerSec, extract(p));
        out.push_back(std::move(s));
    }
    return out;
}

/** Serve: per-variant curves and knees over the matched grid. */
void
buildCurves(const scenario::ScenarioConfig &config,
            const std::vector<std::vector<const SweepPoint *>> &grid,
            SweepCurves &curves)
{
    const scenario::SweepParams &sweep = config.sweep;
    for (size_t vi = 0; vi < sweep.variants.size(); ++vi) {
        VariantCurve vc;
        vc.variant = sweep.variants[vi].name;
        for (const SweepPoint *p : grid[vi])
            if (p)
                vc.points.push_back(toCurvePoint(*p, curves.notes));
        // Knee: first swept rate whose sojourn p99 exceeds the
        // bound. Rates ascend, so this is the leftmost crossing.
        if (sweep.kneeP99Ns > 0.0) {
            for (const CurvePoint &p : vc.points) {
                if (p.sojournP99Ns > sweep.kneeP99Ns) {
                    vc.kneeFound = true;
                    vc.kneeRatePerSec = p.ratePerSec;
                    break;
                }
            }
        }
        curves.variants.push_back(std::move(vc));
    }
}

/** Dag: the figure table over the matched grid. */
void
buildTable(const scenario::ScenarioConfig &config,
           const std::vector<std::vector<const SweepPoint *>> &grid,
           SweepCurves &curves)
{
    const std::vector<unsigned> &workers = config.sweep.workers;
    auto counter = [&curves](const SweepPoint &p, const char *name) {
        return metricOr(p, name, 0.0, curves.notes);
    };
    for (size_t vi = 0; vi < grid.size(); ++vi) {
        std::vector<Versus> sums(workers.size());
        std::vector<double> counts(workers.size(), 0.0);
        for (size_t ci = 0; ci < grid[vi].size(); ++ci) {
            const SweepPoint *p = grid[vi][ci];
            const SweepPoint *ref = grid[0][ci];
            if (!p)
                continue;
            TableRow row{p->variant, p->benchmark, p->workers,
                         counter(*p, "seconds"), counter(*p, "joules"),
                         counter(*p, "edp"), std::nullopt};
            if (vi > 0 && ref) {
                // Cells run benchmark-major, so ci % workers is the
                // worker count's index.
                Versus &sum = sums[ci % workers.size()];
                row.versus = Versus{
                    (1.0 - row.joules / counter(*ref, "joules")) * 100.0,
                    (row.seconds / counter(*ref, "seconds") - 1.0) * 100.0,
                    row.edp / counter(*ref, "edp")};
                sum.energySavingsPct += row.versus->energySavingsPct;
                sum.timeLossPct += row.versus->timeLossPct;
                sum.normalizedEdp += row.versus->normalizedEdp;
                counts[ci % workers.size()] += 1.0;
            }
            curves.rows.push_back(std::move(row));
        }
        for (size_t wi = 0; wi < workers.size(); ++wi) {
            if (counts[wi] == 0.0)
                continue;
            const Versus &v = sums[wi];
            curves.averages.push_back(
                {config.sweep.variants[vi].name, workers[wi],
                 {v.energySavingsPct / counts[wi],
                  v.timeLossPct / counts[wi],
                  v.normalizedEdp / counts[wi]}});
        }
    }
}

} // namespace

std::vector<SweepPoint>
gridPoints(const scenario::ScenarioConfig &config)
{
    const scenario::SweepParams &sweep = config.sweep;
    std::vector<SweepPoint> cells;
    for (double rate : sweep.ratesPerSec) {
        SweepPoint cell;
        cell.ratePerSec = rate;
        cells.push_back(cell);
    }
    for (const std::string &benchmark : sweep.benchmarks) {
        for (unsigned workers : sweep.workers) {
            SweepPoint cell;
            cell.benchmark = benchmark;
            cell.workers = workers;
            cells.push_back(cell);
        }
    }
    return cells;
}

std::string
pointLabel(const SweepPoint &point)
{
    return point.benchmark.empty()
        ? util::jsonNumber(point.ratePerSec) + " req/s"
        : point.benchmark + " at " + std::to_string(point.workers)
            + " workers";
}

SweepCurves
reduceSweep(const scenario::ScenarioConfig &config,
            const std::vector<SweepPoint> &points)
{
    const scenario::SweepParams &sweep = config.sweep;
    SweepCurves curves;

    // grid[vi][ci]: variant vi's point at grid cell ci, matched by
    // (variant name, coordinates), or nullptr when missing. Grid
    // order comes from the sweep block, never from input order, so
    // reduction is order-insensitive.
    const std::vector<SweepPoint> cells = gridPoints(config);
    std::vector<std::vector<const SweepPoint *>> grid;
    for (const scenario::SweepVariant &variant : sweep.variants) {
        std::vector<const SweepPoint *> row;
        for (const SweepPoint &cell : cells) {
            const SweepPoint *found = nullptr;
            for (const SweepPoint &p : points) {
                if (p.variant == variant.name && samePoint(p, cell)) {
                    found = &p;
                    break;
                }
            }
            row.push_back(found);
            if (!found) {
                curves.notes.push_back("missing point (" + variant.name
                                       + ", " + pointLabel(cell) + ")");
                continue;
            }
            for (const std::string &failure :
                 scenario::checkGates(config.gates, found->metrics))
                curves.pointGateFailures.push_back(
                    variant.name + " at " + pointLabel(cell) + ": "
                    + failure);
            curves.points.push_back(*found);
        }
        grid.push_back(std::move(row));
    }

    if (config.kind == scenario::ScenarioKind::kDag)
        buildTable(config, grid, curves);
    else
        buildCurves(config, grid, curves);

    // Gates: each non-first variant vs variants[0], per metric, at
    // every point both measured, by relativeRegression().
    for (size_t vi = 1; vi < grid.size(); ++vi) {
        for (const scenario::VariantGate &gate : sweep.gates) {
            for (size_t ci = 0; ci < cells.size(); ++ci) {
                const SweepPoint *base = grid[0][ci];
                const SweepPoint *cur = grid[vi][ci];
                if (!base || !cur)
                    continue;
                GateFinding g;
                g.metric = gate.metric;
                g.variant = cur->variant;
                g.ratePerSec = cur->ratePerSec;
                g.benchmark = cur->benchmark;
                g.workers = cur->workers;
                g.lowerBetter = gate.lowerBetter;
                g.maxRegression = gate.maxRegression;
                auto value = [&gate](const SweepPoint &p) {
                    auto it = p.metrics.find(gate.metric);
                    return it != p.metrics.end() ? it->second : 0.0;
                };
                g.baseline = value(*base);
                g.current = value(*cur);
                g.regression = relativeRegression(
                    g.baseline, g.current, g.lowerBetter);
                g.failed = g.regression > g.maxRegression;
                if (g.failed)
                    curves.gateFailure = true;
                curves.gates.push_back(std::move(g));
            }
        }
    }
    return curves;
}

namespace {

/** The gate verdicts and the determinism section, which both
 * curves.json shapes end with; `dag` picks the point coordinates. */
std::string
verdictsJson(bool dag, const SweepCurves &curves)
{
    std::ostringstream out;
    out << "  \"gates_passed\": "
        << (curves.gateFailure ? "false" : "true") << ",\n"
        << "  \"gates\": [";
    for (size_t i = 0; i < curves.gates.size(); ++i) {
        const GateFinding &g = curves.gates[i];
        out << (i ? "," : "") << "\n    {\"metric\": "
            << util::jsonQuote(g.metric) << ", \"variant\": "
            << util::jsonQuote(g.variant) << ", "
            << pointJson(dag, g.ratePerSec, g.benchmark, g.workers)
            << ", \"direction\": \""
            << (g.lowerBetter ? "lower" : "higher")
            << "\", \"baseline\": " << util::jsonNumber(g.baseline)
            << ", \"current\": " << util::jsonNumber(g.current)
            << ", \"regression\": " << util::jsonNumber(g.regression)
            << ", \"max_regression\": "
            << util::jsonNumber(g.maxRegression) << ", \"failed\": "
            << (g.failed ? "true" : "false") << "}";
    }
    out << (curves.gates.empty() ? "" : "\n  ") << "],\n";

    // The determinism section: pure functions of (seed, point), so
    // two live same-seed sweeps must match it exactly even though
    // their timing metrics differ.
    out << "  \"deterministic\": [";
    for (size_t i = 0; i < curves.points.size(); ++i) {
        const SweepPoint &p = curves.points[i];
        out << (i ? "," : "") << "\n    {\"variant\": "
            << util::jsonQuote(p.variant) << ", "
            << pointJson(dag, p.ratePerSec, p.benchmark, p.workers);
        for (const auto &[name, value] : p.deterministic)
            out << ", " << util::jsonQuote(name) << ": " << value;
        out << "}";
    }
    out << (curves.points.empty() ? "" : "\n  ") << "]\n"
        << "}\n";
    return out.str();
}

/** "2400/1600" */
std::string
ladderText(const std::vector<unsigned> &rungs)
{
    std::string out;
    for (size_t i = 0; i < rungs.size(); ++i) {
        if (i)
            out += '/';
        out += std::to_string(rungs[i]);
    }
    return out;
}

std::string
versusJson(const Versus &v)
{
    return ", \"energy_savings_pct\": " + util::jsonNumber(v.energySavingsPct)
        + ", \"time_loss_pct\": " + util::jsonNumber(v.timeLossPct)
        + ", \"normalized_edp\": " + util::jsonNumber(v.normalizedEdp);
}

/** A dag sweep's curves.json: the figure table at full precision. */
std::string
writeTableJson(const scenario::ScenarioConfig &config,
               const SweepCurves &curves)
{
    std::ostringstream out;
    out << "{\n"
        << "  \"name\": " << util::jsonQuote(config.name) << ",\n"
        << "  \"seed\": " << config.seed << ",\n"
        << "  \"profile\": " << util::jsonQuote(config.profile) << ",\n"
        << "  \"substrate\": " << util::jsonQuote(config.dag.substrate)
        << ",\n"
        << "  \"scale\": " << util::jsonNumber(config.dag.scale) << ",\n"
        << "  \"rows\": [";
    for (size_t i = 0; i < curves.rows.size(); ++i) {
        const TableRow &r = curves.rows[i];
        out << (i ? "," : "") << "\n    {\"variant\": "
            << util::jsonQuote(r.variant) << ", "
            << pointJson(true, 0.0, r.benchmark, r.workers)
            << ", \"seconds\": " << util::jsonNumber(r.seconds)
            << ", \"joules\": " << util::jsonNumber(r.joules)
            << ", \"edp\": " << util::jsonNumber(r.edp)
            << (r.versus ? versusJson(*r.versus) : "") << "}";
    }
    out << (curves.rows.empty() ? "" : "\n  ") << "],\n"
        << "  \"averages\": [";
    for (size_t i = 0; i < curves.averages.size(); ++i) {
        const TableAverage &a = curves.averages[i];
        out << (i ? "," : "") << "\n    {\"variant\": "
            << util::jsonQuote(a.variant) << ", \"workers\": "
            << a.workers << versusJson(a.versus) << "}";
    }
    out << (curves.averages.empty() ? "" : "\n  ") << "],\n"
        << verdictsJson(true, curves);
    return out.str();
}

/** The "Gates" and "Notes" sections both curves.md shapes end with;
 * `dag` picks the point column. */
std::string
verdictsMd(const scenario::ScenarioConfig &config,
           const SweepCurves &curves, bool dag)
{
    const char *axis = dag ? "point" : "rate";
    std::ostringstream out;
    out << "## Gates\n\n";
    if (!config.gates.empty()) {
        out << (curves.pointGateFailures.empty() ? "**PASS**"
                                                 : "**FAIL**")
            << " — the top-level gates on every point.\n\n";
        for (const std::string &failure : curves.pointGateFailures)
            out << "- " << failure << "\n";
        if (!curves.pointGateFailures.empty())
            out << "\n";
    }
    if (curves.gates.empty()) {
        if (config.gates.empty())
            out << "No gates declared.\n";
    } else {
        out << (curves.gateFailure ? "**FAIL**" : "**PASS**")
            << " — every non-first variant vs `"
            << config.sweep.variants.front().name << "` at each "
            << axis << ".\n\n"
            << "| metric | variant | " << axis
            << " | baseline | current | regression | budget | verdict "
               "|\n"
            << "|---|---|---|---|---|---|---|---|\n";
        for (const GateFinding &g : curves.gates) {
            out << "| " << g.metric << " | " << g.variant << " | "
                << (dag ? g.benchmark + " at " + std::to_string(g.workers)
                              + " workers"
                        : fmtG(g.ratePerSec))
                << " | " << fmtG(g.baseline) << " | " << fmtG(g.current)
                << " | " << fmtG(g.regression) << " | "
                << fmtG(g.maxRegression) << " | "
                << (g.failed ? "FAIL" : "ok") << " |\n";
        }
    }

    if (!curves.notes.empty()) {
        out << "\n## Notes\n\n";
        for (const std::string &n : curves.notes)
            out << "- " << n << "\n";
    }
    return out.str();
}

/** A dag sweep's curves.md: one table per variant at 4 significant
 * digits, then the gate verdicts. */
std::string
writeTableMd(const scenario::ScenarioConfig &config,
             const SweepCurves &curves)
{
    const scenario::SweepParams &sweep = config.sweep;
    const bool sim = config.onSim();
    auto g4 = [](double v) { return fmtG(v, 4); };
    auto versus = [&g4](const Versus &v) {
        return " " + g4(v.energySavingsPct) + " | " + g4(v.timeLossPct)
            + " | " + g4(v.normalizedEdp) + " |";
    };
    std::ostringstream out;
    out << "# Figure table: " << config.name << "\n\n"
        << "- seed " << config.seed << ", profile `" << config.profile
        << "`, dag substrate `" << config.dag.substrate << "`"
        << (sim ? ", " + config.dag.scheduling + " scheduling" : "")
        << ", scale " << fmtG(config.dag.scale) << "\n"
        << "- " << sweep.benchmarks.size() << " benchmarks x "
        << sweep.workers.size() << " worker counts x "
        << sweep.variants.size() << " variants; "
        << (sim ? "each cell is the mean of the 18 kept trials of 20"
                : "one run per cell")
        << "\n- energy savings, time loss and normalized EDP are "
           "against `"
        << sweep.variants.front().name
        << "` at the same benchmark and worker count; an average row "
           "is their mean over the benchmarks\n\n";

    for (size_t vi = 0; vi < sweep.variants.size(); ++vi) {
        const scenario::DvfsPolicy &d = sweep.variants[vi].dvfs;
        out << "## Variant `" << sweep.variants[vi].name
            << "`\n\n- tempo ";
        if (!d.tempo)
            out << "off";
        else
            out << "`" << d.policy << "`, ladder " << ladderText(d.ladder)
                << " MHz, K = " << d.thresholds << ", window " << d.window
                << (sim ? ", DVFS call " + fmtG(d.callCostUs) + " µs" : "");
        out << "\n\n| benchmark | workers | seconds | joules | EDP (J·s) |"
            << (vi ? " energy savings % | time loss % | normalized EDP |"
                   : "")
            << "\n|---|---|---|---|---|" << (vi ? "---|---|---|" : "")
            << "\n";
        for (const TableRow &r : curves.rows) {
            if (r.variant == sweep.variants[vi].name)
                out << "| " << r.benchmark << " | " << r.workers << " | "
                    << g4(r.seconds) << " | " << g4(r.joules) << " | "
                    << g4(r.edp) << " |"
                    << (r.versus ? versus(*r.versus) : vi ? " | | |" : "")
                    << "\n";
        }
        for (const TableAverage &a : curves.averages) {
            if (a.variant == sweep.variants[vi].name)
                out << "| **average** | " << a.workers << " | | | |"
                    << versus(a.versus) << "\n";
        }
        out << "\n";
    }
    out << verdictsMd(config, curves, true);
    return out.str();
}

} // namespace

std::string
writeCurvesJson(const scenario::ScenarioConfig &config,
                const SweepCurves &curves)
{
    if (config.kind == scenario::ScenarioKind::kDag)
        return writeTableJson(config, curves);
    const scenario::SweepParams &sweep = config.sweep;
    std::ostringstream out;
    out << "{\n"
        << "  \"name\": " << util::jsonQuote(config.name) << ",\n"
        << "  \"seed\": " << config.seed << ",\n"
        << "  \"arrivals\": "
        << util::jsonQuote(config.serve.arrivals) << ",\n"
        << "  \"knee_p99_ns\": " << util::jsonNumber(sweep.kneeP99Ns)
        << ",\n"
        << "  \"rates_per_sec\": [";
    for (size_t i = 0; i < sweep.ratesPerSec.size(); ++i)
        out << (i ? ", " : "")
            << util::jsonNumber(sweep.ratesPerSec[i]);
    out << "],\n"
        << "  \"variants\": [\n";

    auto array = [&out](const char *key, const VariantCurve &vc,
                        double (*get)(const CurvePoint &),
                        bool last = false) {
        out << "      \"" << key << "\": [";
        for (size_t i = 0; i < vc.points.size(); ++i)
            out << (i ? ", " : "")
                << util::jsonNumber(get(vc.points[i]));
        out << "]" << (last ? "" : ",") << "\n";
    };

    for (size_t i = 0; i < curves.variants.size(); ++i) {
        const VariantCurve &vc = curves.variants[i];
        out << "    {\n"
            << "      \"name\": " << util::jsonQuote(vc.variant)
            << ",\n"
            << "      \"knee_rate_per_sec\": "
            << (vc.kneeFound ? util::jsonNumber(vc.kneeRatePerSec)
                             : "null")
            << ",\n";
        array("offered_rate_per_sec", vc,
              [](const CurvePoint &p) { return p.ratePerSec; });
        array("accepted_rate_per_sec", vc, [](const CurvePoint &p) {
            return p.acceptedRatePerSec;
        });
        array("sojourn_p50_ns", vc,
              [](const CurvePoint &p) { return p.sojournP50Ns; });
        array("sojourn_p99_ns", vc,
              [](const CurvePoint &p) { return p.sojournP99Ns; });
        array("sojourn_p999_ns", vc,
              [](const CurvePoint &p) { return p.sojournP999Ns; });
        array("joules_per_request", vc, [](const CurvePoint &p) {
            return p.joulesPerRequest;
        });
        array("mean_parked_fraction", vc, [](const CurvePoint &p) {
            return p.meanParkedFraction;
        });
        array("package_watts_mean", vc, [](const CurvePoint &p) {
            return p.packageWattsMean;
        });
        array("shed_frac", vc,
              [](const CurvePoint &p) { return p.shedFrac; },
              /*last=*/true);
        out << "    }"
            << (i + 1 < curves.variants.size() ? "," : "") << "\n";
    }
    out << "  ],\n" << verdictsJson(false, curves);
    return out.str();
}

std::string
writeCurvesMd(const scenario::ScenarioConfig &config,
              const SweepCurves &curves)
{
    if (config.kind == scenario::ScenarioKind::kDag)
        return writeTableMd(config, curves);
    const scenario::SweepParams &sweep = config.sweep;
    std::ostringstream out;
    out << "# Sweep curves: " << config.name << "\n\n"
        << "- seed " << config.seed << ", arrivals `"
        << config.serve.arrivals << "`, "
        << sweep.ratesPerSec.size() << " rates x "
        << sweep.variants.size() << " variants, "
        << util::jsonNumber(config.serve.durationSec)
        << " s per point\n"
        << "- spin " << config.serve.spinNanos
        << " ns/request, admission "
        << (config.serve.admission ? "on" : "off") << " (high "
        << config.serve.admitHigh << " / low "
        << config.serve.admitLow << ")\n";
    if (sweep.kneeP99Ns > 0.0)
        out << "- knee bound: sojourn p99 > "
            << fmtG(sweep.kneeP99Ns / 1e6) << " ms\n";
    out << "\n";

    // Knee report first — it is the headline of the whole sweep.
    if (sweep.kneeP99Ns > 0.0) {
        out << "## Knee\n\n";
        for (const VariantCurve &vc : curves.variants) {
            if (vc.kneeFound)
                out << "- **" << vc.variant << "**: knee at **"
                    << fmtG(vc.kneeRatePerSec)
                    << " req/s** (first swept rate with p99 above "
                       "the bound)\n";
            else
                out << "- **" << vc.variant
                    << "**: no knee within the swept range\n";
        }
        out << "\n";
    }

    for (const VariantCurve &vc : curves.variants) {
        out << "## Variant `" << vc.variant << "`\n\n"
            << "| offered req/s | accepted req/s | p50 ms | p99 ms "
               "| p99.9 ms | J/request | parked frac | pkg W | shed "
               "frac |\n"
            << "|---|---|---|---|---|---|---|---|---|\n";
        for (const CurvePoint &p : vc.points) {
            out << "| " << fmtG(p.ratePerSec) << " | "
                << fmtG(p.acceptedRatePerSec) << " | "
                << fmtG(p.sojournP50Ns / 1e6) << " | "
                << fmtG(p.sojournP99Ns / 1e6) << " | "
                << fmtG(p.sojournP999Ns / 1e6) << " | "
                << fmtG(p.joulesPerRequest) << " | "
                << fmtG(p.meanParkedFraction) << " | "
                << fmtG(p.packageWattsMean) << " | "
                << fmtG(p.shedFrac) << " |\n";
        }
        out << "\n";
    }

    // One chart per measure (never dual axes); every value in the
    // charts is also in the tables above, so color is never the
    // only carrier.
    out << "## Charts\n\n";
    out << renderLineChart(
               "Sojourn p99 vs offered rate", "p99 (ms)",
               makeSeries(curves,
                          [](const CurvePoint &p) {
                              return p.sojournP99Ns / 1e6;
                          }))
        << "\n\n";
    out << renderLineChart(
               "Energy per request vs offered rate", "J/request",
               makeSeries(curves,
                          [](const CurvePoint &p) {
                              return p.joulesPerRequest;
                          }))
        << "\n\n";
    out << renderLineChart(
               "Mean package power vs offered rate", "watts",
               makeSeries(curves,
                          [](const CurvePoint &p) {
                              return p.packageWattsMean;
                          }))
        << "\n\n";

    out << verdictsMd(config, curves, false);
    return out.str();
}

} // namespace hermes::harness::sweep
