/**
 * @file
 * Scenario schema validation: every rejection carries an RFC 6901
 * JSON pointer, the canonical echo is a fixpoint, and — mirroring
 * tests/test_simulator_fuzz.cpp — a thousand seeded mutations of a
 * valid document (truncation, key deletion, type swaps, byte noise)
 * never crash the parser and always yield a diagnostic or a valid
 * config, never silence.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/scenario/scenario_config.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

using namespace hermes;
using namespace hermes::harness::scenario;

namespace {

const char *const kMinimal =
    R"({"name": "x", "kind": "fork_join"})";

/** All diagnostics joined, for substring asserts. */
std::string
joined(const ScenarioLoadResult &r)
{
    std::string out;
    for (const ScenarioDiag &d : r.diags)
        out += d.toString() + "\n";
    return out;
}

} // namespace

TEST(ScenarioConfig, MinimalDocumentResolvesDefaults)
{
    const ScenarioLoadResult r = parseScenario(kMinimal);
    ASSERT_TRUE(r.ok) << joined(r);
    EXPECT_EQ(r.config.name, "x");
    EXPECT_EQ(r.config.kind, ScenarioKind::kForkJoin);
    EXPECT_EQ(r.config.runtime.workers, 2u);
    EXPECT_EQ(r.config.runtime.dequeImpl, "chaselev");
    EXPECT_EQ(r.config.runtime.localityRounds, 1u);
    EXPECT_EQ(r.config.forkJoin.tasks, 256u);
    EXPECT_TRUE(r.config.thresholds.empty());
}

TEST(ScenarioConfig, UnknownKeyIsRejectedWithPointer)
{
    const ScenarioLoadResult r = parseScenario(
        R"({"name": "x", "kind": "fork_join", "bogus": 1})");
    ASSERT_FALSE(r.ok);
    EXPECT_NE(joined(r).find("/bogus"), std::string::npos)
        << joined(r);
}

TEST(ScenarioConfig, NestedTypeErrorNamesTheExactKey)
{
    const ScenarioLoadResult r = parseScenario(
        R"({"name": "x", "kind": "fork_join",
            "runtime": {"workers": "two"}})");
    ASSERT_FALSE(r.ok);
    EXPECT_NE(joined(r).find("/runtime/workers"),
              std::string::npos)
        << joined(r);
}

TEST(ScenarioConfig, DuplicateKeyIsRejected)
{
    const ScenarioLoadResult r = parseScenario(
        R"({"name": "x", "kind": "fork_join",
            "seed": 1, "seed": 2})");
    ASSERT_FALSE(r.ok);
    EXPECT_NE(joined(r).find("duplicate"), std::string::npos)
        << joined(r);
}

TEST(ScenarioConfig, ParamBlockMustMatchKind)
{
    const ScenarioLoadResult r = parseScenario(
        R"({"name": "x", "kind": "fork_join",
            "serve": {"rate_per_sec": 100}})");
    ASSERT_FALSE(r.ok);
    EXPECT_NE(joined(r).find("/serve"), std::string::npos)
        << joined(r);
}

TEST(ScenarioConfig, CollectsMultipleDiagnosticsInOnePass)
{
    const ScenarioLoadResult r = parseScenario(
        R"({"name": "bad name!", "kind": "nope",
            "runtime": {"workers": 1.5, "mystery": true}})");
    ASSERT_FALSE(r.ok);
    EXPECT_GE(r.diags.size(), 3u) << joined(r);
}

TEST(ScenarioConfig, AdmissionWatermarksMustBeOrdered)
{
    const ScenarioLoadResult r = parseScenario(
        R"({"name": "x", "kind": "serve",
            "serve": {"admit_high": 10, "admit_low": 10}})");
    ASSERT_FALSE(r.ok);
    EXPECT_NE(joined(r).find("admit"), std::string::npos)
        << joined(r);
}

TEST(ScenarioConfig, ThresholdsParseDirectionAndBudget)
{
    const ScenarioLoadResult r = parseScenario(
        R"({"name": "x", "kind": "fork_join", "thresholds": {
            "steals": {"direction": "lower",
                       "max_regression": 0.25}}})");
    ASSERT_TRUE(r.ok) << joined(r);
    ASSERT_EQ(r.config.thresholds.size(), 1u);
    EXPECT_EQ(r.config.thresholds[0].metric, "steals");
    EXPECT_TRUE(r.config.thresholds[0].lowerBetter);
    EXPECT_DOUBLE_EQ(r.config.thresholds[0].maxRegression, 0.25);
}

TEST(ScenarioConfig, UnreadableFileDiagnosesInsteadOfCrashing)
{
    const ScenarioLoadResult r =
        loadScenarioFile("/nonexistent/scenario.json");
    ASSERT_FALSE(r.ok);
    ASSERT_FALSE(r.diags.empty());
}

TEST(ScenarioConfig, CanonicalEchoIsAFixpoint)
{
    const ScenarioLoadResult first = parseScenario(
        R"({"name": "x", "kind": "serve", "seed": 9,
            "runtime": {"workers": 3, "deque": "the"},
            "serve": {"rate_per_sec": 500},
            "thresholds": {"shed": {"direction": "lower"}}})");
    ASSERT_TRUE(first.ok) << joined(first);
    const std::string echo = writeConfigJson(first.config);
    const ScenarioLoadResult second = parseScenario(echo);
    ASSERT_TRUE(second.ok) << joined(second) << "\n" << echo;
    EXPECT_EQ(writeConfigJson(second.config), echo);
}

// ------------------------------------------------------------------
// Fuzz: seeded mutations of a valid document must never crash and
// must never be silently half-accepted — every outcome is either a
// valid config or at least one diagnostic with a message.

namespace {

/** A valid, fully populated starting document. */
std::string
seedDocument()
{
    const ScenarioLoadResult base = parseScenario(
        R"({"name": "fuzz_seed", "kind": "serve",
            "runtime": {"workers": 2, "deque": "the",
                        "locality_rounds": 0},
            "serve": {"rate_per_sec": 100, "duration_sec": 0.1},
            "thresholds": {
              "completed_eq_accepted": {"direction": "higher"},
              "sojourn_p99_ns": {"direction": "lower",
                                 "max_regression": 0.5}}})");
    EXPECT_TRUE(base.ok);
    return writeConfigJson(base.config);
}

std::string
mutate(const std::string &doc, util::Rng &rng)
{
    std::string out = doc;
    switch (rng.uniformInt(0, 4)) {
    case 0: { // truncation
        out.resize(static_cast<size_t>(
            rng.uniformInt(0, static_cast<int64_t>(out.size()))));
        break;
    }
    case 1: { // delete a random span (often a whole key line)
        if (out.empty())
            break;
        const auto begin = static_cast<size_t>(rng.uniformInt(
            0, static_cast<int64_t>(out.size()) - 1));
        const auto len = static_cast<size_t>(
            rng.uniformInt(1, 40));
        out.erase(begin, len);
        break;
    }
    case 2: { // type swap: digit -> string opener, quote -> digit
        for (char &ch : out) {
            if (ch >= '0' && ch <= '9' && rng.chance(0.05))
                ch = '"';
            else if (ch == '"' && rng.chance(0.05))
                ch = '7';
        }
        break;
    }
    case 3: { // byte noise
        for (int i = 0; i < 8 && !out.empty(); ++i) {
            const auto pos = static_cast<size_t>(rng.uniformInt(
                0, static_cast<int64_t>(out.size()) - 1));
            out[pos] = static_cast<char>(rng.uniformInt(1, 255));
        }
        break;
    }
    case 4: { // structural: drop every '}' or every ','
        const char victim = rng.chance(0.5) ? '}' : ',';
        std::string filtered;
        for (const char ch : out)
            if (ch != victim)
                filtered.push_back(ch);
        out = filtered;
        break;
    }
    }
    return out;
}

} // namespace

class ScenarioConfigFuzz : public testing::TestWithParam<uint64_t>
{};

TEST_P(ScenarioConfigFuzz, MutationsNeverCrashAlwaysDiagnose)
{
    const std::string base = seedDocument();
    util::Rng rng(GetParam());
    for (int round = 0; round < 10; ++round) {
        std::string doc = base;
        const int layers = static_cast<int>(rng.uniformInt(1, 3));
        for (int i = 0; i < layers; ++i)
            doc = mutate(doc, rng);

        const ScenarioLoadResult r = parseScenario(doc);
        if (r.ok) {
            // Accepted mutants must re-echo cleanly (still total).
            const std::string echo = writeConfigJson(r.config);
            EXPECT_TRUE(parseScenario(echo).ok) << echo;
        } else {
            ASSERT_FALSE(r.diags.empty()) << doc;
            for (const ScenarioDiag &d : r.diags)
                EXPECT_FALSE(d.message.empty());
        }
    }
}

// 100 seeds x 10 rounds = 1000 mutated documents.
INSTANTIATE_TEST_SUITE_P(Seeds, ScenarioConfigFuzz,
                         testing::Range<uint64_t>(0, 100));

TEST(ScenarioConfig, FaultsBlockParsesWithDefaults)
{
    const ScenarioLoadResult r = parseScenario(R"({
        "name": "x", "kind": "serve",
        "faults": {"fail_prob": 0.25, "max_retries": 3}
    })");
    ASSERT_TRUE(r.ok) << joined(r);
    EXPECT_TRUE(r.config.faults.enabled);
    EXPECT_DOUBLE_EQ(r.config.faults.failProb, 0.25);
    EXPECT_EQ(r.config.faults.maxRetries, 3u);
    // Untouched knobs keep their documented defaults.
    EXPECT_DOUBLE_EQ(r.config.faults.stragglerProb, 0.0);
    EXPECT_DOUBLE_EQ(r.config.faults.stragglerFactor, 4.0);
    EXPECT_EQ(r.config.faults.stallWorker, -1);
    EXPECT_FALSE(r.config.faults.forceSpill);
    EXPECT_DOUBLE_EQ(r.config.faults.deadlineMs, 0.0);
    // Gate sentinels: negative = disabled.
    EXPECT_LT(r.config.faults.maxFailedFrac, 0.0);
    EXPECT_LT(r.config.faults.maxDeadlineExpiredFrac, 0.0);
    EXPECT_LT(r.config.faults.minGoodputFrac, 0.0);
}

TEST(ScenarioConfig, FaultsBlockRequiresServeKind)
{
    const ScenarioLoadResult r = parseScenario(R"({
        "name": "x", "kind": "fork_join",
        "faults": {"fail_prob": 0.5}
    })");
    ASSERT_FALSE(r.ok);
    EXPECT_NE(joined(r).find("/faults"), std::string::npos)
        << joined(r);
    EXPECT_NE(joined(r).find("requires kind 'serve'"),
              std::string::npos)
        << joined(r);
}

TEST(ScenarioConfig, FaultsRangeAndGateDiagnosticsCarryPointers)
{
    const ScenarioLoadResult r = parseScenario(R"({
        "name": "x", "kind": "serve",
        "faults": {
            "fail_prob": 1.5,
            "max_retries": 99,
            "gates": {"min_goodput_frac": 2, "bogus": 1}
        }
    })");
    ASSERT_FALSE(r.ok);
    const std::string all = joined(r);
    EXPECT_NE(all.find("/faults/fail_prob"), std::string::npos)
        << all;
    EXPECT_NE(all.find("/faults/max_retries"), std::string::npos)
        << all;
    EXPECT_NE(all.find("/faults/gates/min_goodput_frac"),
              std::string::npos)
        << all;
    EXPECT_NE(all.find("/faults/gates/bogus"), std::string::npos)
        << all;
}

TEST(ScenarioConfig, StallWorkerMustNameARealWorker)
{
    const ScenarioLoadResult r = parseScenario(R"({
        "name": "x", "kind": "serve",
        "runtime": {"workers": 2},
        "faults": {"stall_worker": 2, "stall_ms": 10}
    })");
    ASSERT_FALSE(r.ok);
    EXPECT_NE(joined(r).find("/faults/stall_worker"),
              std::string::npos)
        << joined(r);
}

TEST(ScenarioConfig, FaultsEchoIsAFixpointAndGatedOnEnable)
{
    // Enabled: the echo carries the block and reparses to the same
    // config (including the only-set-gates "gates" object).
    const ScenarioLoadResult r = parseScenario(R"({
        "name": "x", "kind": "serve",
        "faults": {
            "fail_prob": 0.2, "straggler_prob": 0.1,
            "stall_worker": 1, "stall_at_sec": 0.05,
            "stall_ms": 20, "force_spill": true,
            "deadline_ms": 50, "max_retries": 2,
            "gates": {"max_failed_frac": 0.01}
        }
    })");
    ASSERT_TRUE(r.ok) << joined(r);
    const std::string echo = writeConfigJson(r.config);
    EXPECT_NE(echo.find("\"faults\""), std::string::npos);
    const ScenarioLoadResult again = parseScenario(echo);
    ASSERT_TRUE(again.ok) << joined(again);
    EXPECT_EQ(writeConfigJson(again.config), echo);
    EXPECT_DOUBLE_EQ(again.config.faults.maxFailedFrac, 0.01);
    EXPECT_LT(again.config.faults.minGoodputFrac, 0.0);

    // Disabled (no block): the echo must not mention faults at all,
    // preserving byte-identity with pre-chaos bundles.
    const ScenarioLoadResult plain = parseScenario(
        R"({"name": "x", "kind": "serve"})");
    ASSERT_TRUE(plain.ok) << joined(plain);
    EXPECT_EQ(writeConfigJson(plain.config).find("\"faults\""),
              std::string::npos);
}
