/**
 * @file
 * The sweep layer: schema (sweep block validation and variant
 * override resolution, for serve rates and dag benchmark x workers
 * grids), the pure reducers (per-variant grouping, monotone
 * accepted-rate ordering, knee detection, the figure table, gate
 * verdicts), and the determinism contract — equal inputs must
 * serialize to byte-identical curves.json.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/scenario/scenario_config.hpp"
#include "harness/sweep/curves.hpp"
#include "harness/sweep/sweep_runner.hpp"

using namespace hermes::harness;

namespace {

const char *const kSweepScenario = R"({
  "name": "sweep_unit",
  "kind": "serve",
  "seed": 7,
  "runtime": {"workers": 2, "parking": true},
  "dvfs": {"tempo": false},
  "serve": {"rate_per_sec": 1000, "duration_sec": 0.05},
  "sweep": {
    "rates_per_sec": [1000, 2000, 4000],
    "knee_p99_ns": 1000000,
    "variants": [
      {"name": "base"},
      {"name": "tempo", "dvfs": {"tempo": true}}
    ],
    "gates": {
      "completed_eq_accepted":
        {"direction": "higher", "max_regression": 0.0}
    }
  }
})";

scenario::ScenarioConfig
sweepConfig()
{
    const auto loaded = scenario::parseScenario(kSweepScenario);
    EXPECT_TRUE(loaded.ok);
    return loaded.config;
}

/** A synthetic point with the metrics the reducer consumes. */
sweep::SweepPoint
makePoint(const std::string &variant, double rate, double p99_ns,
          double accepted_rate)
{
    sweep::SweepPoint p;
    p.variant = variant;
    p.ratePerSec = rate;
    p.metrics["accepted_rate_per_sec"] = accepted_rate;
    p.metrics["sojourn_p50_ns"] = p99_ns / 4.0;
    p.metrics["sojourn_p99_ns"] = p99_ns;
    p.metrics["sojourn_p999_ns"] = p99_ns * 2.0;
    p.metrics["joules_per_request"] = 0.01;
    p.metrics["mean_parked_fraction"] = 0.5;
    p.metrics["package_watts_mean"] = 20.0;
    p.metrics["shed_frac"] = 0.0;
    p.metrics["completed_eq_accepted"] = 1.0;
    p.deterministic.emplace_back("offered",
                                 static_cast<uint64_t>(rate / 20));
    p.deterministic.emplace_back(
        "schedule_hash", 0x8000000000000000ULL + uint64_t(rate));
    return p;
}

} // namespace

// --- schema -------------------------------------------------------

TEST(SweepSchema, ParsesAndResolvesVariantOverrides)
{
    const auto config = sweepConfig();
    ASSERT_TRUE(config.sweep.enabled);
    ASSERT_EQ(config.sweep.ratesPerSec.size(), 3u);
    ASSERT_EQ(config.sweep.variants.size(), 2u);
    EXPECT_EQ(config.sweep.kneeP99Ns, 1e6);
    ASSERT_EQ(config.sweep.gates.size(), 1u);

    // Variants resolve from the base policies; only the overridden
    // keys differ.
    const auto &base = config.sweep.variants[0];
    const auto &tempo = config.sweep.variants[1];
    EXPECT_EQ(base.name, "base");
    EXPECT_FALSE(base.dvfs.tempo);
    EXPECT_TRUE(tempo.dvfs.tempo);
    EXPECT_EQ(base.runtime.workers, 2u);
    EXPECT_EQ(tempo.runtime.workers, 2u);
    EXPECT_TRUE(tempo.runtime.parking);
}

TEST(SweepSchema, NoSweepBlockLeavesSweepDisabled)
{
    const auto loaded = scenario::parseScenario(
        R"({"name": "plain", "kind": "serve"})");
    ASSERT_TRUE(loaded.ok);
    EXPECT_FALSE(loaded.config.sweep.enabled);
}

TEST(SweepSchema, RejectsNonIncreasingRates)
{
    std::string text = kSweepScenario;
    text.replace(text.find("[1000, 2000, 4000]"),
                 std::string("[1000, 2000, 4000]").size(),
                 "[1000, 1000, 4000]");
    const auto loaded = scenario::parseScenario(text);
    EXPECT_FALSE(loaded.ok);
    bool found = false;
    for (const auto &d : loaded.diags)
        found |= d.pointer == "/sweep/rates_per_sec/1";
    EXPECT_TRUE(found);
}

TEST(SweepSchema, RejectsSweepOnNonServeKinds)
{
    const auto loaded = scenario::parseScenario(R"({
      "name": "bad", "kind": "fork_join",
      "sweep": {"rates_per_sec": [1], "variants": [{"name": "a"}]}
    })");
    EXPECT_FALSE(loaded.ok);
    bool found = false;
    for (const auto &d : loaded.diags)
        found |= d.pointer == "/sweep";
    EXPECT_TRUE(found);
}

TEST(SweepSchema, RejectsDuplicateVariantNamesAndBadNames)
{
    const auto dup = scenario::parseScenario(R"({
      "name": "bad", "kind": "serve",
      "sweep": {"rates_per_sec": [1],
                "variants": [{"name": "a"}, {"name": "a"}]}
    })");
    EXPECT_FALSE(dup.ok);

    const auto bad = scenario::parseScenario(R"({
      "name": "bad", "kind": "serve",
      "sweep": {"rates_per_sec": [1],
                "variants": [{"name": "a/b"}]}
    })");
    EXPECT_FALSE(bad.ok);
}

TEST(SweepSchema, GatesRequireTwoVariants)
{
    const auto loaded = scenario::parseScenario(R"({
      "name": "bad", "kind": "serve",
      "sweep": {"rates_per_sec": [1],
                "variants": [{"name": "only"}],
                "gates": {"x": {"direction": "higher"}}}
    })");
    EXPECT_FALSE(loaded.ok);
}

TEST(SweepSchema, EchoWithSweepBlockIsAFixpoint)
{
    const auto config = sweepConfig();
    const std::string echo = scenario::writeConfigJson(config);
    const auto reparsed = scenario::parseScenario(echo);
    ASSERT_TRUE(reparsed.ok)
        << (reparsed.diags.empty()
                ? ""
                : reparsed.diags.front().toString());
    EXPECT_EQ(scenario::writeConfigJson(reparsed.config), echo);
}

TEST(SweepSchema, UnknownSweepKeyIsDiagnosed)
{
    std::string text = kSweepScenario;
    text.replace(text.find("\"knee_p99_ns\""),
                 std::string("\"knee_p99_ns\"").size(),
                 "\"knee_p99ns\"");
    const auto loaded = scenario::parseScenario(text);
    EXPECT_FALSE(loaded.ok);
}

// --- point configs ------------------------------------------------

TEST(SweepRunner, PointConfigAppliesVariantAndStripsSweep)
{
    const auto config = sweepConfig();
    const auto derived = sweep::pointConfig(
        config, config.sweep.variants[1], sweep::gridPoints(config)[2],
        2);
    EXPECT_EQ(derived.name, "sweep_unit_tempo_p2");
    EXPECT_TRUE(derived.dvfs.tempo);
    EXPECT_EQ(derived.serve.ratePerSec, 4000.0);
    EXPECT_FALSE(derived.sweep.enabled);
    // The derived config is itself a valid scenario.
    const auto echo = scenario::writeConfigJson(derived);
    EXPECT_TRUE(scenario::parseScenario(echo).ok);
}

TEST(SweepRunner, PointDirEncodesVariantAndPoint)
{
    sweep::SweepPoint rate;
    rate.ratePerSec = 4000.0;
    EXPECT_EQ(sweep::pointDir("out", "tempo", rate),
              "out/points/tempo/rate_4000");
    sweep::SweepPoint dag;
    dag.benchmark = "knn";
    dag.workers = 16;
    EXPECT_EQ(sweep::pointDir("out", "unified", dag),
              "out/points/unified/knn_w16");
}

// --- reducer ------------------------------------------------------

TEST(SweepReduce, GroupsPerVariantWithRatesAscending)
{
    const auto config = sweepConfig();
    // Feed points shuffled: grid order must come from the sweep
    // block, not input order.
    std::vector<sweep::SweepPoint> points = {
        makePoint("tempo", 4000, 3e6, 3500),
        makePoint("base", 1000, 4e5, 1000),
        makePoint("tempo", 1000, 5e5, 1000),
        makePoint("base", 4000, 2e6, 3600),
        makePoint("base", 2000, 8e5, 2000),
        makePoint("tempo", 2000, 9e5, 2000),
    };
    const auto curves = sweep::reduceSweep(config, points);
    ASSERT_EQ(curves.variants.size(), 2u);
    EXPECT_TRUE(curves.notes.empty());
    EXPECT_EQ(curves.variants[0].variant, "base");
    EXPECT_EQ(curves.variants[1].variant, "tempo");
    for (const auto &vc : curves.variants) {
        ASSERT_EQ(vc.points.size(), 3u);
        // Offered rates ascend, and (for these synthetic inputs)
        // accepted rate is monotone non-decreasing along the curve.
        for (size_t i = 1; i < vc.points.size(); ++i) {
            EXPECT_GT(vc.points[i].ratePerSec,
                      vc.points[i - 1].ratePerSec);
            EXPECT_GE(vc.points[i].acceptedRatePerSec,
                      vc.points[i - 1].acceptedRatePerSec);
        }
    }
}

TEST(SweepReduce, DetectsTheKneeAtTheFirstCrossing)
{
    const auto config = sweepConfig(); // knee bound 1e6 ns
    std::vector<sweep::SweepPoint> points = {
        makePoint("base", 1000, 4e5, 1000),
        makePoint("base", 2000, 8e5, 2000),
        makePoint("base", 4000, 2e6, 3600), // first above 1e6
        makePoint("tempo", 1000, 5e5, 1000),
        makePoint("tempo", 2000, 9e5, 2000),
        makePoint("tempo", 4000, 9.9e5, 3900), // never crosses
    };
    const auto curves = sweep::reduceSweep(config, points);
    ASSERT_EQ(curves.variants.size(), 2u);
    EXPECT_TRUE(curves.variants[0].kneeFound);
    EXPECT_EQ(curves.variants[0].kneeRatePerSec, 4000.0);
    EXPECT_FALSE(curves.variants[1].kneeFound);

    const std::string md = sweep::writeCurvesMd(config, curves);
    EXPECT_NE(md.find("knee at **4000 req/s**"), std::string::npos);
    EXPECT_NE(md.find("no knee within the swept range"),
              std::string::npos);
}

TEST(SweepReduce, GatesCompareVariantsAgainstTheFirst)
{
    const auto config = sweepConfig();
    std::vector<sweep::SweepPoint> points;
    for (double rate : {1000.0, 2000.0, 4000.0}) {
        points.push_back(makePoint("base", rate, 4e5, rate));
        points.push_back(makePoint("tempo", rate, 5e5, rate));
    }
    // All completed_eq_accepted are 1.0 -> gates pass.
    auto curves = sweep::reduceSweep(config, points);
    EXPECT_FALSE(curves.gateFailure);
    ASSERT_EQ(curves.gates.size(), 3u); // 1 gate x 1 variant x 3 rates
    for (const auto &g : curves.gates) {
        EXPECT_EQ(g.variant, "tempo");
        EXPECT_FALSE(g.failed);
    }

    // Break one cell in the non-baseline variant: pinned-higher
    // metric drops 1.0 -> 0.0 at rate 2000.
    points[3].metrics["completed_eq_accepted"] = 0.0;
    curves = sweep::reduceSweep(config, points);
    EXPECT_TRUE(curves.gateFailure);
    size_t failed = 0;
    for (const auto &g : curves.gates)
        failed += g.failed ? 1 : 0;
    EXPECT_EQ(failed, 1u);
    const std::string md = sweep::writeCurvesMd(config, curves);
    EXPECT_NE(md.find("**FAIL**"), std::string::npos);
}

TEST(SweepReduce, MissingCellsAreNotedNotFatal)
{
    const auto config = sweepConfig();
    std::vector<sweep::SweepPoint> points = {
        makePoint("base", 1000, 4e5, 1000),
        // base@2000, base@4000, and all of tempo missing.
    };
    const auto curves = sweep::reduceSweep(config, points);
    ASSERT_EQ(curves.variants.size(), 2u);
    EXPECT_EQ(curves.variants[0].points.size(), 1u);
    EXPECT_TRUE(curves.variants[1].points.empty());
    EXPECT_EQ(curves.notes.size(), 5u);
}

TEST(SweepReduce, CurvesJsonIsDeterministicAndCarriesTheContract)
{
    const auto config = sweepConfig();
    std::vector<sweep::SweepPoint> points;
    for (double rate : {1000.0, 2000.0, 4000.0}) {
        points.push_back(makePoint("base", rate, 4e5, rate));
        points.push_back(makePoint("tempo", rate, 5e5, rate));
    }
    const auto curves = sweep::reduceSweep(config, points);
    const std::string a = sweep::writeCurvesJson(config, curves);

    // Shuffled input, same grid -> byte-identical curves.json.
    std::vector<sweep::SweepPoint> shuffled(points.rbegin(),
                                            points.rend());
    const std::string b = sweep::writeCurvesJson(
        config, sweep::reduceSweep(config, shuffled));
    EXPECT_EQ(a, b);

    // The deterministic section preserves full 64-bit values (a
    // schedule hash above 2^63 must round-trip unmangled).
    EXPECT_NE(a.find("\"schedule_hash\": 9223372036854776808"),
              std::string::npos);
    // Per-variant arrays the ISSUE promises are all present.
    for (const char *key :
         {"\"offered_rate_per_sec\"", "\"accepted_rate_per_sec\"",
          "\"sojourn_p50_ns\"", "\"sojourn_p99_ns\"",
          "\"sojourn_p999_ns\"", "\"joules_per_request\"",
          "\"mean_parked_fraction\"", "\"package_watts_mean\""})
        EXPECT_NE(a.find(key), std::string::npos) << key;
}

TEST(SweepReduce, CurvesMdRendersTablesAndThreeCharts)
{
    const auto config = sweepConfig();
    std::vector<sweep::SweepPoint> points;
    for (double rate : {1000.0, 2000.0, 4000.0}) {
        points.push_back(makePoint("base", rate, 4e5, rate));
        points.push_back(makePoint("tempo", rate, 5e5, rate));
    }
    const std::string md = sweep::writeCurvesMd(
        config, sweep::reduceSweep(config, points));
    EXPECT_NE(md.find("## Variant `base`"), std::string::npos);
    EXPECT_NE(md.find("## Variant `tempo`"), std::string::npos);
    size_t svgs = 0;
    for (size_t at = md.find("<svg"); at != std::string::npos;
         at = md.find("<svg", at + 1))
        ++svgs;
    EXPECT_EQ(svgs, 3u); // latency, energy, power — never dual-axis
}

// --- dag grids and the figure table -------------------------------

namespace {

const char *const kDagSweep = R"({
  "name": "table_unit",
  "kind": "dag",
  "seed": 5,
  "profile": "B",
  "dag": {"benchmark": "knn", "scale": 0.01, "substrate": "sim"},
  "sweep": {
    "benchmarks": ["knn", "sort"],
    "workers": [2, 4],
    "variants": [
      {"name": "baseline"},
      {"name": "unified", "dvfs": {"tempo": true, "ladder": [3600, 2100]}}
    ],
    "gates": {"joules": {"direction": "lower", "max_regression": 0}}
  }
})";

scenario::ScenarioConfig
dagConfig()
{
    const auto loaded = scenario::parseScenario(kDagSweep);
    EXPECT_TRUE(loaded.ok) << (loaded.diags.empty()
                                   ? ""
                                   : loaded.diags.front().toString());
    return loaded.config;
}

/** A dag point whose counters are the three the table reads. */
sweep::SweepPoint
tablePoint(const std::string &variant, const std::string &bench,
           unsigned workers, double seconds, double joules)
{
    sweep::SweepPoint p;
    p.variant = variant;
    p.benchmark = bench;
    p.workers = workers;
    p.metrics["seconds"] = seconds;
    p.metrics["joules"] = joules;
    p.metrics["edp"] = seconds * joules;
    p.deterministic.emplace_back("dag_frames", 7);
    return p;
}

} // namespace

TEST(SweepSchema, DagGridParsesBenchmarksAndWorkers)
{
    const auto config = dagConfig();
    EXPECT_EQ(config.sweep.benchmarks,
              (std::vector<std::string>{"knn", "sort"}));
    EXPECT_EQ(config.sweep.workers, (std::vector<unsigned>{2, 4}));
    EXPECT_TRUE(config.sweep.ratesPerSec.empty());
    // The default ladder is the profile's paper pair; a variant's
    // ladder replaces it.
    EXPECT_EQ(config.sweep.variants[0].dvfs.ladder,
              (std::vector<unsigned>{3600, 2700}));
    EXPECT_EQ(config.sweep.variants[1].dvfs.ladder,
              (std::vector<unsigned>{3600, 2100}));


    // Grid order is benchmark-major; each point sets the benchmark
    // and the worker count.
    const auto cells = sweep::gridPoints(config);
    ASSERT_EQ(cells.size(), 4u);
    EXPECT_EQ(sweep::pointLabel(cells[1]), "knn at 4 workers");
    const auto derived = sweep::pointConfig(
        config, config.sweep.variants[1], cells[2], 2);
    EXPECT_EQ(derived.dag.benchmark, "sort");
    EXPECT_EQ(derived.runtime.workers, 2u);
    EXPECT_TRUE(derived.dvfs.tempo);
    EXPECT_TRUE(scenario::parseScenario(
                    scenario::writeConfigJson(derived))
                    .ok);
}

TEST(SweepReduce, TableComparesEveryVariantWithTheFirst)
{
    const auto config = dagConfig();
    std::vector<sweep::SweepPoint> points;
    for (const std::string bench : {"sort", "knn"}) {
        for (unsigned w : {4u, 2u}) {
            points.push_back(tablePoint("unified", bench, w, 1.25, 90.0));
            points.push_back(tablePoint("baseline", bench, w, 1.0,
                                        bench == "knn" ? 100.0 : 120.0));
        }
    }
    const auto curves = sweep::reduceSweep(config, points);
    EXPECT_TRUE(curves.notes.empty());
    ASSERT_EQ(curves.rows.size(), 8u);
    // Variant-major, then benchmark-major in file order.
    EXPECT_EQ(curves.rows[0].variant, "baseline");
    EXPECT_EQ(curves.rows[0].benchmark, "knn");
    EXPECT_EQ(curves.rows[0].workers, 2u);
    EXPECT_FALSE(curves.rows[0].versus);
    const sweep::TableRow &knn = curves.rows[4];
    EXPECT_EQ(knn.variant, "unified");
    ASSERT_TRUE(knn.versus);
    EXPECT_DOUBLE_EQ(knn.versus->energySavingsPct, 10.0);
    EXPECT_DOUBLE_EQ(knn.versus->timeLossPct, 25.0);
    EXPECT_DOUBLE_EQ(knn.versus->normalizedEdp, 1.125);

    // One average per (non-first variant, workers), over benchmarks:
    // savings 10 % on knn and 25 % on sort.
    ASSERT_EQ(curves.averages.size(), 2u);
    EXPECT_EQ(curves.averages[0].workers, 2u);
    EXPECT_DOUBLE_EQ(curves.averages[0].versus.energySavingsPct, 17.5);

    // The joules gate is checked at all 4 points, and passes.
    EXPECT_EQ(curves.gates.size(), 4u);
    EXPECT_FALSE(curves.gateFailure);

    const std::string json = sweep::writeCurvesJson(config, curves);
    std::vector<sweep::SweepPoint> reversed(points.rbegin(),
                                            points.rend());
    EXPECT_EQ(json, sweep::writeCurvesJson(
                        config, sweep::reduceSweep(config, reversed)));
    EXPECT_NE(json.find("\"energy_savings_pct\": 17.5"),
              std::string::npos)
        << json;

    std::string md = sweep::writeCurvesMd(config, curves);
    EXPECT_NE(md.find("## Variant `unified`"), std::string::npos);
    EXPECT_NE(md.find("| knn | 2 | 1.25 | 90 | 112.5 | 10 | 25 | 1.125 |"),
              std::string::npos)
        << md;
    EXPECT_NE(md.find("| **average** | 2 | | | | 17.5 | 25 | 1.031 |"),
              std::string::npos)
        << md;
    EXPECT_EQ(md.find("<svg"), std::string::npos);

    // Spending more joules than the baseline at one point fails the
    // gate there, and only there.
    points[0].metrics["joules"] = 121.0; // unified, sort at 4 workers
    const auto worse = sweep::reduceSweep(config, points);
    EXPECT_TRUE(worse.gateFailure);
    size_t failed = 0;
    for (const auto &g : worse.gates)
        failed += g.failed ? 1 : 0;
    EXPECT_EQ(failed, 1u);
    md = sweep::writeCurvesMd(config, worse);
    EXPECT_NE(md.find("| joules | unified | sort at 4 workers | 120 | 121 "),
              std::string::npos)
        << md;
}
