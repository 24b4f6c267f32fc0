/**
 * @file
 * The hermes-scenario exit-code contract, tested end-to-end by
 * subprocessing the real binary (path injected by CMake as
 * HERMES_SCENARIO_BIN):
 *
 *   validate rejects malformed scenarios with pointer-bearing
 *   diagnostics (exit 3); run produces all four bundle artifacts
 *   (exit 0); two same-seed runs agree byte-for-byte on config.json
 *   and the deterministic counter section; compare distinguishes
 *   pass (0), regression (5), and missing baseline (4); usage
 *   errors are 2; soak is 0 when healthy and its checkpoint
 *   sequence continues across invocations; sweep produces the
 *   curves pair plus per-point bundles (exit 0), refuses scenarios
 *   without a sweep block (3), re-reduces stored bundles to
 *   byte-identical curves.json under --reduce-only, and reports a
 *   doctored gate metric as exit 7; a serve bundle carries outcome
 *   counters, watchdog fields and faults.csv only when faults are
 *   on.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
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

    /** A small, fast, valid fork-join scenario with one pinned
     * threshold. */
    void
    writeGoodScenario(const std::string &name = "s.json")
    {
        writeFile(name, R"({
  "name": "cli_test",
  "kind": "fork_join",
  "seed": 11,
  "runtime": {"workers": 2},
  "fork_join": {"tasks": 32, "spin_nanos": 1000, "repeats": 2},
  "thresholds": {
    "executed_matches_expected":
      {"direction": "higher", "max_regression": 0.0}
  },
  "soak": {"duration_sec": 1, "checkpoint_sec": 0.2}
})");
    }

    /** A small serve scenario with a 2-rate x 2-variant sweep grid
     * and one pinned gate. */
    void
    writeSweepScenario(const std::string &name = "sweep.json")
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
  }
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

    // Retired runtime keys fail loudly wherever a runtime block may
    // appear — a file that still names one must not silently run
    // the default path instead.
    for (const std::string key :
         {"lock_free_inject", "steal_half", "adaptive_locality"}) {
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
    writeGoodScenario();
    EXPECT_EQ(
        run("run " + path("s.json") + " --out " + path("out")), 0);
    EXPECT_TRUE(fs::exists(path("out/config.json")));
    EXPECT_TRUE(fs::exists(path("out/run.json")));
    EXPECT_TRUE(fs::exists(path("out/events.jsonl")));
    EXPECT_TRUE(fs::exists(path("out/summary.md")));

    // run.json parses and carries the GBench shape bench_compare.py
    // consumes plus the deterministic section.
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

TEST_F(ScenarioCli, CompareWithoutBaselineExitsFour)
{
    writeGoodScenario();
    EXPECT_EQ(run("compare " + path("s.json") + " --baselines "
                  + path("baselines")),
              4);
}

TEST_F(ScenarioCli, BaselineThenCompareExitsZeroAndWritesDiff)
{
    writeGoodScenario();
    ASSERT_EQ(run("baseline " + path("s.json") + " --baselines "
                  + path("baselines")),
              0);
    EXPECT_EQ(run("compare " + path("s.json") + " --baselines "
                  + path("baselines") + " --out " + path("cmp")),
              0);
    const std::string diff = slurp(path("cmp/diff.md"));
    EXPECT_NE(diff.find("PASS"), std::string::npos) << diff;
    EXPECT_NE(diff.find("executed_matches_expected"),
              std::string::npos)
        << diff;
}

TEST_F(ScenarioCli, TamperedBaselineExitsFive)
{
    writeGoodScenario();
    ASSERT_EQ(run("baseline " + path("s.json") + " --baselines "
                  + path("baselines")),
              0);

    // Tamper: claim the pinned metric used to be better, a
    // synthetic regression compare must catch (exit 5).
    for (const auto &entry :
         fs::recursive_directory_iterator(path("baselines"))) {
        if (!entry.is_regular_file())
            continue;
        std::string text = slurp(entry.path().string());
        const std::string needle =
            "\"executed_matches_expected\": 1";
        const size_t pos = text.find(needle);
        ASSERT_NE(pos, std::string::npos) << text;
        text.replace(pos, needle.size(),
                     "\"executed_matches_expected\": 2");
        std::ofstream out(entry.path());
        out << text;
    }

    std::string output;
    EXPECT_EQ(run("compare " + path("s.json") + " --baselines "
                      + path("baselines") + " --out " + path("cmp"),
                  &output),
              5);
    EXPECT_NE(output.find("REGRESSION"), std::string::npos)
        << output;
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

TEST_F(ScenarioCli, ServeBundleCarriesChaosFieldsOnlyWithFaults)
{
    // A serve scenario with faults and its faults-off twin: both
    // bundles carry the serving counters, and only the chaos run
    // carries outcome counters, watchdog fields and faults.csv.
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
          "joules_per_request"}) {
        EXPECT_TRUE(chaos.count(key)) << key;
        EXPECT_TRUE(plain.count(key)) << key;
    }
    for (const char *key :
         {"outcome_ok", "outcome_retried_ok", "outcome_failed",
          "outcome_deadline_expired", "goodput_per_sec",
          "success_p99_ns", "watchdog_stalls"}) {
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
    // outcome-gate verdict as exit 8.
    writeFile("chaos.json", R"({
  "name": "cli_chaos",
  "kind": "serve",
  "seed": 11,
  "runtime": {"workers": 2},
  "serve": {
    "rate_per_sec": 500, "duration_sec": 0.05,
    "producers": 1, "spin_nanos": 1000
  },
  "faults": {
    "fail_prob": 1, "max_retries": 0,
    "gates": {"max_failed_frac": 0}
  }
})");
    std::string output;
    EXPECT_EQ(run("run " + path("chaos.json") + " --out "
                      + path("out"),
                  &output),
              8);
    EXPECT_NE(output.find("outcome gate"), std::string::npos)
        << output;
    EXPECT_TRUE(fs::exists(path("out/faults.csv")));
    EXPECT_TRUE(fs::exists(path("out/run.json")));

    // Loosening the gate makes the same run pass.
    writeFile("ok.json", R"({
  "name": "cli_chaos",
  "kind": "serve",
  "seed": 11,
  "runtime": {"workers": 2},
  "serve": {
    "rate_per_sec": 500, "duration_sec": 0.05,
    "producers": 1, "spin_nanos": 1000
  },
  "faults": {
    "fail_prob": 1, "max_retries": 0,
    "gates": {"max_failed_frac": 1}
  }
})");
    EXPECT_EQ(run("run " + path("ok.json") + " --out "
                  + path("out2")),
              0);
}

TEST_F(ScenarioCli, HelpDocumentsTheOutcomeGateExitCode)
{
    std::string output;
    EXPECT_EQ(run("--help", &output), 0);
    EXPECT_NE(output.find("8 outcome gate failure"),
              std::string::npos)
        << output;
}
