/**
 * @file
 * The hermes-scenario exit-code contract, tested end-to-end by
 * subprocessing the real binary (path injected by CMake as
 * HERMES_SCENARIO_BIN):
 *
 *   validate rejects malformed scenarios with pointer-bearing
 *   diagnostics (exit 3), misplaced sim-only and grid keys
 *   included; run produces all four bundle artifacts
 *   (exit 0); two same-seed runs agree byte-for-byte on config.json
 *   and the deterministic counter section; run checks the gates
 *   after the bundle lands and exits 8 with one stderr line per
 *   failed bound, a missing counter included; usage
 *   errors are 2; soak is 0 when healthy and its checkpoint
 *   sequence continues across invocations; sweep produces the
 *   curves pair plus per-point bundles (exit 0), refuses scenarios
 *   without a sweep block (3), re-reduces stored bundles to
 *   byte-identical curves.json under --reduce-only, and reports a
 *   doctored gate metric as exit 7 (a variant gate) or 8 (a
 *   top-level gate, checked on every point), on a serve grid and on
 *   a simulated dag grid, whose tables a live re-run reproduces and
 *   which soak refuses (3); a serve bundle carries
 *   the
 *   watchdog fields always, and outcome counters and faults.csv
 *   only when faults are on.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>
#include <sys/wait.h>

#include <gtest/gtest.h>

#include "util/json.hpp"

namespace fs = std::filesystem;
using hermes::util::JsonParseResult;
using hermes::util::parseJson;

namespace {

/** Fresh working directory per test, removed on teardown. */
class ScenarioCli : public testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = fs::temp_directory_path()
            / ("hermes_scenario_cli_"
               + std::string(
                   testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name()));
        fs::remove_all(dir_);
        fs::create_directories(dir_);
    }

    void
    TearDown() override
    {
        fs::remove_all(dir_);
    }

    std::string
    path(const std::string &name) const
    {
        return (dir_ / name).string();
    }

    /** Run `hermes-scenario <args>` with stdout+stderr captured;
     * returns the exit code. */
    int
    run(const std::string &args, std::string *output = nullptr)
    {
        const std::string log = path("last_output.txt");
        const std::string cmd = std::string(HERMES_SCENARIO_BIN)
            + " " + args + " > " + log + " 2>&1";
        const int rc = std::system(cmd.c_str());
        if (output != nullptr)
            *output = slurp(log);
        EXPECT_TRUE(WIFEXITED(rc)) << cmd;
        return WEXITSTATUS(rc);
    }

    static std::string
    slurp(const std::string &file)
    {
        std::ifstream in(file);
        std::stringstream buffer;
        buffer << in.rdbuf();
        return buffer.str();
    }

    void
    writeFile(const std::string &name, const std::string &content)
    {
        std::ofstream out(path(name));
        out << content;
    }

    /** A small, fast, valid fork-join scenario whose `gates` body
     * defaults to bounds every healthy run passes. */
    void
    writeGoodScenario(const std::string &name = "s.json",
                      const std::string &gates =
                          R"("executed_matches_expected": {"min": 1},
                             "executed": {"min": 65, "max": 65})")
    {
        writeFile(name, R"({
  "name": "cli_test",
  "kind": "fork_join",
  "seed": 11,
  "runtime": {"workers": 2},
  "fork_join": {"tasks": 32, "spin_nanos": 1000, "repeats": 2},
  "gates": {)" + gates + R"(},
  "soak": {"duration_sec": 1, "checkpoint_sec": 0.2}
})");
    }

    /** A small serve scenario with a 2-rate x 2-variant sweep grid,
     * one pinned variant gate, and the top-level `gates` body
     * `gates`. */
    void
    writeSweepScenario(const std::string &name = "sweep.json",
                       const std::string &gates = "")
    {
        writeFile(name, R"({
  "name": "cli_sweep",
  "kind": "serve",
  "seed": 11,
  "runtime": {"workers": 2},
  "serve": {
    "rate_per_sec": 500, "duration_sec": 0.05,
    "producers": 1, "spin_nanos": 1000,
    "admission": true, "admit_high": 256, "admit_low": 64
  },
  "sweep": {
    "rates_per_sec": [500, 1000],
    "knee_p99_ns": 1000000000,
    "variants": [
      {"name": "a"},
      {"name": "b", "dvfs": {"tempo": true}}
    ],
    "gates": {
      "completed_eq_accepted":
        {"direction": "higher", "max_regression": 0.0}
    }
  },
  "gates": {)" + gates + R"(}
})");
    }

    fs::path dir_;
};

/** The "deterministic" section of a run.json, re-serialized via the
 * parsed member list so the comparison is exact but formatting-
 * independent. */
std::string
deterministicSection(const std::string &run_json)
{
    const JsonParseResult parsed = parseJson(run_json);
    EXPECT_TRUE(parsed.ok);
    const auto *det = parsed.value.find("deterministic");
    EXPECT_NE(det, nullptr);
    std::string out;
    for (const auto &[key, value] : det->members())
        out += key + "="
            + std::to_string(
                static_cast<uint64_t>(value.number()))
            + ";";
    return out;
}

/** The stderr lines of `output` that report a failed gate. */
std::vector<std::string>
gateLines(const std::string &output)
{
    std::vector<std::string> lines;
    std::istringstream in(output);
    for (std::string line; std::getline(in, line);)
        if (line.rfind("hermes-scenario: gate ", 0) == 0)
            lines.push_back(line);
    return lines;
}

} // namespace

TEST_F(ScenarioCli, UsageErrorsExitTwo)
{
    EXPECT_EQ(run(""), 2);
    EXPECT_EQ(run("frobnicate x.json"), 2);
    writeGoodScenario();
    EXPECT_EQ(run("run " + path("s.json") + " --bogus-flag"), 2);
}

TEST_F(ScenarioCli, ValidateRejectsMalformedWithPointer)
{
    writeFile("bad.json", R"({
  "name": "bad",
  "kind": "fork_join",
  "runtime": {"workers": "two", "mystery_knob": 1}
})");
    std::string output;
    EXPECT_EQ(run("validate " + path("bad.json"), &output), 3);
    EXPECT_NE(output.find("/runtime/workers"), std::string::npos)
        << output;
    EXPECT_NE(output.find("/runtime/mystery_knob"),
              std::string::npos)
        << output;

    // Retired keys fail loudly wherever their block may appear — a
    // file that still names one must not silently run the default
    // path, or run ungated, instead.
    for (const std::string key :
         {"lock_free_inject", "steal_half", "adaptive_locality", "deque",
          "locality_rounds"}) {
        writeFile("retired.json", R"({"name": "r", "kind": "fork_join",
  "runtime": {")" + key + R"(": true}})");
        EXPECT_EQ(run("validate " + path("retired.json"), &output), 3)
            << key;
        EXPECT_NE(output.find("/runtime/" + key + ": unknown key"),
                  std::string::npos)
            << output;

        writeFile("retired_variant.json", R"({"name": "r",
  "kind": "serve",
  "sweep": {"rates_per_sec": [500],
            "variants": [{"name": "v", "runtime": {")"
                      + key + R"(": true}}]}})");
        EXPECT_EQ(
            run("validate " + path("retired_variant.json"), &output),
            3)
            << key;
        EXPECT_NE(output.find("/sweep/variants/0/runtime/" + key
                              + ": unknown key"),
                  std::string::npos)
            << output;
    }
    for (const auto &[pointer, doc] :
         {std::pair<std::string, std::string>{
              "/thresholds",
              R"({"name": "r", "kind": "fork_join", "thresholds":
  {"executed": {"direction": "higher", "max_regression": 0}}})"},
          {"/faults/gates",
           R"({"name": "r", "kind": "serve",
  "faults": {"gates": {"max_failed_frac": 0}}})"}}) {
        writeFile("retired.json", doc);
        EXPECT_EQ(run("validate " + path("retired.json"), &output), 3)
            << pointer;
        EXPECT_NE(output.find(pointer + ": unknown key"),
                  std::string::npos)
            << output;
    }

    // Malformed gate specs: no bound, a non-number, min above max,
    // and the retired relative-gate key.
    for (const auto &[pointer, spec] :
         {std::pair<std::string, std::string>{"/gates/executed", "{}"},
          {"/gates/executed/min", R"({"min": "1"})"},
          {"/gates/executed", R"({"min": 2, "max": 1})"},
          {"/gates/executed/direction",
           R"({"min": 1, "direction": "higher"})"}}) {
        writeFile("bad_gate.json",
                  R"({"name": "g", "kind": "fork_join",
  "gates": {"executed": )" + spec + "}}");
        EXPECT_EQ(run("validate " + path("bad_gate.json"), &output), 3)
            << spec;
        EXPECT_NE(output.find(pointer + ": "), std::string::npos)
            << spec << "\n" << output;
    }
}

TEST_F(ScenarioCli, ValidateRejectsUnparsableJson)
{
    writeFile("torn.json", R"({"name": "x", "kind": )");
    std::string output;
    EXPECT_EQ(run("validate " + path("torn.json"), &output), 3);
    EXPECT_FALSE(output.empty());
}

TEST_F(ScenarioCli, ValidateAcceptsAndEchoesCanonicalForm)
{
    writeGoodScenario();
    std::string output;
    EXPECT_EQ(run("validate " + path("s.json"), &output), 0);
    EXPECT_NE(output.find("\"name\": \"cli_test\""),
              std::string::npos)
        << output;
}

TEST_F(ScenarioCli, RunProducesAllFourArtifacts)
{
    // The default gates pass, so the run exits 0 and prints no gate
    // line.
    writeGoodScenario();
    std::string output;
    EXPECT_EQ(run("run " + path("s.json") + " --out " + path("out"),
                  &output),
              0);
    EXPECT_TRUE(gateLines(output).empty()) << output;
    EXPECT_TRUE(fs::exists(path("out/config.json")));
    EXPECT_TRUE(fs::exists(path("out/run.json")));
    EXPECT_TRUE(fs::exists(path("out/events.jsonl")));
    EXPECT_TRUE(fs::exists(path("out/summary.md")));

    // run.json parses and carries the GBench shape plus the
    // deterministic section.
    const JsonParseResult parsed =
        parseJson(slurp(path("out/run.json")));
    ASSERT_TRUE(parsed.ok);
    ASSERT_NE(parsed.value.find("benchmarks"), nullptr);
    ASSERT_NE(parsed.value.find("deterministic"), nullptr);
}

TEST_F(ScenarioCli, SameSeedRunsAreDeterministic)
{
    writeGoodScenario();
    ASSERT_EQ(
        run("run " + path("s.json") + " --out " + path("a")), 0);
    ASSERT_EQ(
        run("run " + path("s.json") + " --out " + path("b")), 0);

    // config.json byte-identical; deterministic counters equal.
    EXPECT_EQ(slurp(path("a/config.json")),
              slurp(path("b/config.json")));
    const std::string det_a =
        deterministicSection(slurp(path("a/run.json")));
    EXPECT_EQ(det_a, deterministicSection(slurp(path("b/run.json"))));
    EXPECT_NE(det_a.find("checksum="), std::string::npos) << det_a;
}

TEST_F(ScenarioCli, FailedGatesWriteTheBundleThenExitEight)
{
    // A fork-join run of 1 + 2 x 32 tasks fails both bounds, and the
    // passing third gate prints nothing.
    writeGoodScenario("s.json",
                      R"("executed_matches_expected": {"min": 2},
                         "executed": {"max": 64},
                         "steals": {"min": 0})");
    std::string output;
    EXPECT_EQ(run("run " + path("s.json") + " --out " + path("out"),
                  &output),
              8);
    for (const std::string artifact :
         {"config.json", "run.json", "events.jsonl", "summary.md"})
        EXPECT_TRUE(fs::exists(path("out/" + artifact))) << artifact;
    const std::vector<std::string> lines = gateLines(output);
    ASSERT_EQ(lines.size(), 2u) << output;
    EXPECT_EQ(lines[0], "hermes-scenario: gate "
                        "executed_matches_expected: 1 is below min 2");
    EXPECT_EQ(lines[1],
              "hermes-scenario: gate executed: 65 is above max 64");
}

TEST_F(ScenarioCli, GateOnAMissingCounterExitsEight)
{
    writeGoodScenario("s.json", R"("no_such_counter": {"min": 0})");
    std::string output;
    EXPECT_EQ(run("run " + path("s.json") + " --out " + path("out"),
                  &output),
              8);
    EXPECT_TRUE(fs::exists(path("out/run.json")));
    const std::vector<std::string> lines = gateLines(output);
    ASSERT_EQ(lines.size(), 1u) << output;
    EXPECT_EQ(lines[0], "hermes-scenario: gate no_such_counter: "
                        "counter missing from run.json");
}

TEST_F(ScenarioCli, SoakIsHealthyAndResumesItsSequence)
{
    writeGoodScenario();
    ASSERT_EQ(run("soak " + path("s.json") + " --out "
                  + path("soak") + " --duration 0.4"),
              0);
    ASSERT_EQ(run("soak " + path("s.json") + " --out "
                  + path("soak") + " --duration 0.4"),
              0);

    // Checkpoint sequence is contiguous across the two invocations
    // and the second runs as a later epoch.
    std::ifstream in(path("soak/soak.jsonl"));
    std::string line;
    uint64_t expected_seq = 0;
    uint64_t max_epoch = 0;
    while (std::getline(in, line)) {
        const JsonParseResult parsed = parseJson(line);
        ASSERT_TRUE(parsed.ok) << line;
        EXPECT_EQ(static_cast<uint64_t>(
                      parsed.value.find("seq")->number()),
                  expected_seq++);
        max_epoch = std::max(
            max_epoch, static_cast<uint64_t>(
                           parsed.value.find("epoch")->number()));
    }
    EXPECT_GE(expected_seq, 2u);
    EXPECT_EQ(max_epoch, 1u);
}

TEST_F(ScenarioCli, ValidateRejectsMisplacedSimAndGridKeys)
{
    // Each document misplaces one key; validate exits 3 and names it.
    const std::string dag =
        R"("name": "d", "kind": "dag", "profile": "A", )";
    const std::string serve = R"("name": "s", "kind": "serve", )";
    const std::string grid =
        R"("benchmarks": ["knn"], "workers": [2], )";
    for (const auto &[pointer, doc] :
         std::vector<std::pair<std::string, std::string>>{
             // Sim-only keys outside the sim substrate.
             {"/dag/scheduling",
              "{" + dag + R"("dag": {"scheduling": "dynamic"}})"},
             {"/dvfs/call_cost_us",
              "{" + dag + R"("dvfs": {"call_cost_us": 30}})"},
             {"/sweep/variants/0/dvfs/call_cost_us",
              "{" + serve + R"("sweep": {"rates_per_sec": [1],
                "variants": [{"name": "v",
                              "dvfs": {"call_cost_us": 30}}]}})"},
             // A rung profile A does not have, and rungs slowest
             // first.
             {"/dvfs/ladder/1",
              "{" + dag + R"("dvfs": {"ladder": [2400, 2000]}})"},
             {"/dvfs/ladder/1",
              "{" + dag + R"("dvfs": {"ladder": [1600, 2400]}})"},
             // More workers than profile A's 16 clock domains.
             {"/runtime/workers",
              "{" + dag + R"("runtime": {"workers": 17},
                "dag": {"substrate": "sim"}})"},
             {"/sweep/workers/1",
              "{" + dag + R"("dag": {"substrate": "sim"},
                "sweep": {"benchmarks": ["knn"], "workers": [2, 32],
                          "variants": [{"name": "v"}]}})"},
             // A repeated benchmark, workers not increasing.
             {"/sweep/benchmarks/1",
              "{" + dag + R"("sweep": {"benchmarks": ["knn", "knn"],
                "workers": [2], "variants": [{"name": "v"}]}})"},
             {"/sweep/workers/1",
              "{" + dag + R"("sweep": {"benchmarks": ["knn"],
                "workers": [4, 2], "variants": [{"name": "v"}]}})"},
             // Each grid's keys on the other kind.
             {"/sweep/rates_per_sec",
              "{" + dag + R"("sweep": {)" + grid
                  + R"("rates_per_sec": [1],
                       "variants": [{"name": "v"}]}})"},
             {"/sweep/benchmarks",
              "{" + serve + R"("sweep": {"rates_per_sec": [1],
                "benchmarks": ["knn"], "variants": [{"name": "v"}]}})"},
             // Retired: the cycle mapping follows the profile.
             {"/dag/gigacycles_per_sec",
              "{" + dag + R"("dag": {"gigacycles_per_sec": 2.4}})"}}) {
        writeFile("bad.json", doc);
        std::string output;
        EXPECT_EQ(run("validate " + path("bad.json"), &output), 3)
            << pointer;
        EXPECT_NE(output.find(pointer + ": "), std::string::npos)
            << pointer << "\n" << output;
    }
}

TEST_F(ScenarioCli, SimSweepWritesTablesAndGatesEveryPoint)
{
    writeFile("sim.json", R"({
  "name": "cli_sim",
  "kind": "dag",
  "seed": 3,
  "profile": "B",
  "runtime": {"workers": 2},
  "dag": {"benchmark": "sort", "scale": 0.05, "substrate": "sim"},
  "sweep": {
    "benchmarks": ["sort"],
    "workers": [2],
    "variants": [
      {"name": "baseline"},
      {"name": "unified", "dvfs": {"tempo": true}}
    ],
    "gates": {"joules": {"direction": "lower", "max_regression": 0}}
  }
})");
    std::string output;
    ASSERT_EQ(run("sweep " + path("sim.json") + " --out " + path("out"),
                  &output),
              0)
        << output;
    EXPECT_NE(output.find("2 variant(s) x 1 point(s)"), std::string::npos)
        << output;
    const std::string live = slurp(path("out/curves.json"));
    EXPECT_NE(live.find("\"energy_savings_pct\""), std::string::npos)
        << live;

    // The point bundle: the simulator's three counters, the
    // deterministic means, and a power trace with no runtime fields.
    const std::string point = "out/points/unified/sort_w2/";
    const JsonParseResult run_json = parseJson(slurp(path(point + "run.json")));
    ASSERT_TRUE(run_json.ok);
    const auto *counters =
        run_json.value.find("benchmarks")->array().front().find("counters");
    EXPECT_EQ(counters->members().size(), 3u);
    for (const char *name : {"seconds", "joules", "edp"})
        EXPECT_NE(counters->find(name), nullptr) << name;
    const std::string det =
        deterministicSection(slurp(path(point + "run.json")));
    EXPECT_NE(det.find("mean_joules_nj="), std::string::npos) << det;
    std::ifstream events(path(point + "events.jsonl"));
    std::string first;
    ASSERT_TRUE(std::getline(events, first));
    EXPECT_EQ(first.rfind("{\"t_sec\": 0.000000, \"package_watts\": ", 0),
              0u)
        << first;

    // The simulator is deterministic: a second live sweep and a
    // reduce-only pass both reproduce curves.json byte for byte.
    ASSERT_EQ(run("sweep " + path("sim.json") + " --out " + path("again")),
              0);
    EXPECT_EQ(slurp(path("again/curves.json")), live);
    ASSERT_EQ(run("sweep " + path("sim.json") + " --out " + path("out")
                  + " --reduce-only"),
              0);
    EXPECT_EQ(slurp(path("out/curves.json")), live);

    // A doctored point that spends more joules than the baseline
    // fails the gate on re-reduction.
    const std::string victim = path(point + "run.json");
    std::string text = slurp(victim);
    const size_t at = text.find("\"joules\": ");
    ASSERT_NE(at, std::string::npos) << text;
    text.insert(at + std::string("\"joules\": ").size(), "1");
    std::ofstream(victim) << text;
    EXPECT_EQ(run("sweep " + path("sim.json") + " --out " + path("out")
                      + " --reduce-only",
                  &output),
              7)
        << output;
    EXPECT_NE(slurp(path("out/curves.md"))
                  .find("| joules | unified | sort at 2 workers |"),
              std::string::npos);

    // soak loops a runtime, which a simulated scenario does not have.
    EXPECT_EQ(run("soak " + path("sim.json") + " --duration 0.2", &output),
              3);
    EXPECT_NE(output.find("simulator"), std::string::npos) << output;
}

TEST_F(ScenarioCli, SweepWithoutSweepBlockExitsThree)
{
    writeGoodScenario();
    std::string output;
    EXPECT_EQ(run("sweep " + path("s.json"), &output), 3);
    EXPECT_NE(output.find("no sweep block"), std::string::npos)
        << output;
}

TEST_F(ScenarioCli, SweepProducesCurvesAndPointBundles)
{
    writeSweepScenario();
    std::string output;
    ASSERT_EQ(run("sweep " + path("sweep.json") + " --out "
                      + path("out"),
                  &output),
              0)
        << output;
    EXPECT_NE(output.find("2 variant(s) x 2 rate(s)"),
              std::string::npos)
        << output;
    EXPECT_TRUE(fs::exists(path("out/curves.json")));
    EXPECT_TRUE(fs::exists(path("out/curves.md")));
    // Every grid cell gets a full four-artifact bundle.
    for (const std::string variant : {"a", "b"})
        for (const std::string rate : {"500", "1000"})
            for (const std::string artifact :
                 {"config.json", "run.json", "events.jsonl",
                  "summary.md"})
                EXPECT_TRUE(fs::exists(path(
                    "out/points/" + variant + "/rate_" + rate + "/"
                    + artifact)))
                    << variant << " " << rate << " " << artifact;

    const JsonParseResult parsed =
        parseJson(slurp(path("out/curves.json")));
    ASSERT_TRUE(parsed.ok);
    ASSERT_NE(parsed.value.find("variants"), nullptr);
    ASSERT_NE(parsed.value.find("deterministic"), nullptr);
    const auto *passed = parsed.value.find("gates_passed");
    ASSERT_NE(passed, nullptr);
    EXPECT_TRUE(passed->boolean());
}

TEST_F(ScenarioCli, SweepReduceOnlyIsAByteIdenticalFixpoint)
{
    writeSweepScenario();
    ASSERT_EQ(run("sweep " + path("sweep.json") + " --out "
                  + path("out")),
              0);
    const std::string live = slurp(path("out/curves.json"));
    EXPECT_EQ(run("sweep " + path("sweep.json") + " --out "
                  + path("out") + " --reduce-only"),
              0);
    EXPECT_EQ(slurp(path("out/curves.json")), live);
}

TEST_F(ScenarioCli, DoctoredGateMetricExitsSevenUnderReduceOnly)
{
    writeSweepScenario();
    ASSERT_EQ(run("sweep " + path("sweep.json") + " --out "
                  + path("out")),
              0);

    // Tamper with one non-baseline cell: the pinned-higher gate
    // metric drops 1 -> 0, so the re-reduce must fail the gate.
    const std::string victim =
        path("out/points/b/rate_1000/run.json");
    std::string text = slurp(victim);
    const std::string needle = "\"completed_eq_accepted\": 1";
    const size_t pos = text.find(needle);
    ASSERT_NE(pos, std::string::npos) << text;
    text.replace(pos, needle.size(),
                 "\"completed_eq_accepted\": 0");
    std::ofstream(victim) << text;

    std::string output;
    EXPECT_EQ(run("sweep " + path("sweep.json") + " --out "
                      + path("out") + " --reduce-only",
                  &output),
              7);
    EXPECT_NE(output.find("gate failure"), std::string::npos)
        << output;
    const std::string md = slurp(path("out/curves.md"));
    EXPECT_NE(md.find("**FAIL**"), std::string::npos);
}

TEST_F(ScenarioCli, DoctoredPointFailsTopLevelGateExitsEight)
{
    // The baseline variant loses accepted requests at one rate. The
    // variant gate compares `b` against it and passes; the top-level
    // gate, checked on every point with run's rule, fails once, after
    // curves.json has been written.
    writeSweepScenario("sweep.json",
                       R"("completed_eq_accepted": {"min": 1})");
    ASSERT_EQ(run("sweep " + path("sweep.json") + " --out "
                  + path("out")),
              0);
    const std::string victim =
        path("out/points/a/rate_1000/run.json");
    std::string text = slurp(victim);
    const std::string needle = "\"completed_eq_accepted\": 1";
    const size_t pos = text.find(needle);
    ASSERT_NE(pos, std::string::npos) << text;
    text.replace(pos, needle.size(),
                 "\"completed_eq_accepted\": 0");
    std::ofstream(victim) << text;
    fs::remove(path("out/curves.json"));

    std::string output;
    EXPECT_EQ(run("sweep " + path("sweep.json") + " --out "
                      + path("out") + " --reduce-only",
                  &output),
              8);
    const std::string line =
        "hermes-scenario: sweep: a at 1000 req/s: gate "
        "completed_eq_accepted: 0 is below min 1\n";
    const size_t at = output.find(line);
    EXPECT_NE(at, std::string::npos) << output;
    EXPECT_EQ(output.find("gate completed_eq_accepted",
                          at + line.size()),
              std::string::npos)
        << "one line per failed bound: " << output;
    EXPECT_EQ(output.find("gate failure"), std::string::npos)
        << "the variant gate passed: " << output;

    const JsonParseResult parsed =
        parseJson(slurp(path("out/curves.json")));
    ASSERT_TRUE(parsed.ok) << "curves.json is written before exit 8";
    const auto *passed = parsed.value.find("gates_passed");
    ASSERT_NE(passed, nullptr);
    EXPECT_TRUE(passed->boolean());
    const std::string md = slurp(path("out/curves.md"));
    EXPECT_NE(md.find("**FAIL** — the top-level gates on every point"),
              std::string::npos)
        << md;
}

TEST_F(ScenarioCli, ServeBundleCarriesChaosFieldsOnlyWithFaults)
{
    // A serve scenario with faults and its faults-off twin: both
    // bundles carry the serving counters and the watchdog fields,
    // and only the chaos run carries outcome counters and
    // faults.csv.
    const std::string serve = R"("name": "cli_serve",
  "kind": "serve",
  "seed": 11,
  "runtime": {"workers": 2},
  "serve": {
    "rate_per_sec": 500, "duration_sec": 0.1,
    "producers": 1, "spin_nanos": 10000
  })";
    writeFile("chaos.json", "{" + serve + R"(,
  "faults": {"fail_prob": 0.3, "max_retries": 1}
})");
    writeFile("plain.json", "{" + serve + "\n}");
    ASSERT_EQ(run("run " + path("chaos.json") + " --out "
                  + path("chaos")),
              0);
    ASSERT_EQ(run("run " + path("plain.json") + " --out "
                  + path("plain")),
              0);

    const auto counterNames = [this](const std::string &bundle) {
        const JsonParseResult parsed =
            parseJson(slurp(path(bundle + "/run.json")));
        EXPECT_TRUE(parsed.ok) << bundle;
        std::set<std::string> names;
        const auto *benchmarks = parsed.value.find("benchmarks");
        if (benchmarks == nullptr || benchmarks->array().empty())
            return names;
        const auto *counters = benchmarks->array()[0].find("counters");
        if (counters == nullptr)
            return names;
        for (const auto &[name, value] : counters->members())
            names.insert(name);
        return names;
    };
    const std::set<std::string> chaos = counterNames("chaos");
    const std::set<std::string> plain = counterNames("plain");
    for (const char *key :
         {"shed_frac", "inject_fast_frac", "completed_eq_accepted",
          "admission_transitions", "sojourn_p50_ns", "sojourn_p99_ns",
          "sojourn_p999_ns", "sojourn_mean_ns", "service_p50_ns",
          "joules_per_request", "watchdog_stalls",
          "compensating_wakes"}) {
        EXPECT_TRUE(chaos.count(key)) << key;
        EXPECT_TRUE(plain.count(key)) << key;
    }
    for (const char *key :
         {"outcome_ok", "outcome_retried_ok", "outcome_failed",
          "outcome_deadline_expired", "goodput_per_sec",
          "success_p99_ns", "outcome_failed_frac",
          "outcome_deadline_expired_frac", "outcome_goodput_frac"}) {
        EXPECT_TRUE(chaos.count(key)) << key;
        EXPECT_FALSE(plain.count(key)) << key;
    }

    EXPECT_NE(slurp(path("chaos/events.jsonl")).find("stalled_workers"),
              std::string::npos);
    EXPECT_EQ(slurp(path("plain/events.jsonl")).find("stalled_workers"),
              std::string::npos);
    EXPECT_TRUE(fs::exists(path("chaos/faults.csv")));
    EXPECT_FALSE(fs::exists(path("plain/faults.csv")));
    EXPECT_NE(slurp(path("chaos/config.json")).find("\"fail_prob\""),
              std::string::npos);
    EXPECT_EQ(slurp(path("plain/config.json")).find("\"faults\""),
              std::string::npos);
}

TEST_F(ScenarioCli, OutcomeGateFailureExitsEight)
{
    // Every attempt of every request fails with no retry budget and
    // a zero-tolerance failure gate: the run must land its full
    // evidence bundle (faults.csv included) and then report the
    // gate verdict as exit 8.
    const auto chaos = [](const std::string &max_failed) {
        return R"({
  "name": "cli_chaos",
  "kind": "serve",
  "seed": 11,
  "runtime": {"workers": 2},
  "serve": {
    "rate_per_sec": 500, "duration_sec": 0.05,
    "producers": 1, "spin_nanos": 1000
  },
  "faults": {"fail_prob": 1, "max_retries": 0},
  "gates": {"outcome_failed_frac": {"max": )"
            + max_failed + "}}\n}";
    };
    writeFile("chaos.json", chaos("0"));
    std::string output;
    EXPECT_EQ(run("run " + path("chaos.json") + " --out "
                      + path("out"),
                  &output),
              8);
    const std::vector<std::string> lines = gateLines(output);
    ASSERT_EQ(lines.size(), 1u) << output;
    EXPECT_EQ(lines[0], "hermes-scenario: gate outcome_failed_frac: "
                        "1 is above max 0");
    EXPECT_TRUE(fs::exists(path("out/faults.csv")));
    EXPECT_TRUE(fs::exists(path("out/run.json")));

    // Loosening the gate makes the same run pass.
    writeFile("ok.json", chaos("1"));
    EXPECT_EQ(run("run " + path("ok.json") + " --out "
                  + path("out2")),
              0);
}

TEST_F(ScenarioCli, HelpDocumentsTheGateExitCode)
{
    std::string output;
    EXPECT_EQ(run("--help", &output), 0);
    EXPECT_NE(output.find("8 gate failure"), std::string::npos)
        << output;
}
