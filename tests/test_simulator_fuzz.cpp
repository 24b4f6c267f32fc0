/**
 * @file
 * Property-based fuzzing of the simulator over randomly generated
 * DAGs (not just the five benchmark shapes): for arbitrary
 * fully-strict computations, every policy must conserve work, respect
 * the greedy scheduling bounds, terminate, and produce non-negative
 * energy; and equal seeds must reproduce bit-identically.
 */

#include <optional>
#include <string>

#include <gtest/gtest.h>

#include "sim/dag.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

using namespace hermes;
using namespace hermes::sim;

namespace {

/** Random fully-strict DAG: recursive fan-outs with random work,
 * random spawn counts, occasional sequel chains. */
FrameId
randomTree(DagBuilder &b, util::Rng &rng, double budget_cyc,
           int depth)
{
    const double mem = rng.uniform(0.0, 0.8);
    if (depth <= 0 || budget_cyc < 50e3
            || rng.chance(0.25)) {
        return b.newFrame(std::max(1e3, budget_cyc), mem);
    }
    const double own = budget_cyc * rng.uniform(0.05, 0.5);
    const auto kids =
        static_cast<unsigned>(rng.uniformInt(1, 4));
    const double child_budget = (budget_cyc - own)
        / static_cast<double>(kids);
    std::vector<FrameId> children;
    children.reserve(kids);
    for (unsigned k = 0; k < kids; ++k)
        children.push_back(
            randomTree(b, rng, child_budget, depth - 1));
    const FrameId f = b.newFrame(std::max(1e3, own), mem);
    for (unsigned k = 0; k < kids; ++k) {
        const double off = std::max(1e3, own)
            * (static_cast<double>(k) + rng.uniform(0.1, 0.9))
            / (kids + 1.0);
        // Builder requires strictly ascending offsets; space them.
        b.spawn(f, std::max(1.0, off), children[k]);
    }
    if (rng.chance(0.3) && depth > 1) {
        const FrameId next = randomTree(b, rng, budget_cyc * 0.3,
                                        depth - 2);
        b.sequel(f, next);
    }
    return f;
}

Dag
randomDag(uint64_t seed)
{
    util::Rng rng(seed);
    DagBuilder b;
    const double total = rng.uniform(50e6, 500e6);  // 20-200ms @2.4G
    const FrameId root = randomTree(b, rng, total, 6);
    return b.build(root);
}

} // namespace

class SimFuzz : public testing::TestWithParam<uint64_t>
{};

TEST_P(SimFuzz, InvariantsHoldForAllPolicies)
{
    const Dag dag = randomDag(GetParam());
    const double rate = 2400.0 * 1e6;

    // nullopt: tempo off, the unmodified work-stealing baseline.
    const std::optional<core::TempoPolicy> arms[] = {
        std::nullopt, core::TempoPolicy::Unified,
        core::TempoPolicy::WorkpathOnly, core::TempoPolicy::WorkloadOnly};
    for (const auto &policy : arms) {
        SimConfig cfg;
        cfg.profile = platform::systemA();
        cfg.numWorkers = 8;
        cfg.seed = GetParam() * 3 + 1;
        cfg.enableTempo = policy.has_value();
        if (policy)
            cfg.tempo.policy = *policy;
        const std::string arm =
            policy ? core::toString(*policy) : "tempo off";

        const auto r = simulate(dag, cfg);

        // Work conservation: every cycle of every frame executed.
        ASSERT_NEAR(r.stats.executedCycles, dag.totalCycles(),
                    dag.totalCycles() * 1e-9)
            << arm;

        // Greedy lower bounds (memory-bound shares only make
        // segments slower, never faster than the fmax bound).
        EXPECT_GE(r.seconds,
                  dag.totalCycles() / (8.0 * rate) - 1e-9);
        EXPECT_GE(r.seconds,
                  dag.criticalPathCycles() / rate - 1e-9);

        // Sanity of measurement outputs.
        EXPECT_GT(r.joules, 0.0);
        EXPECT_GT(r.seconds, 0.0);
        EXPECT_LT(r.seconds, 10.0);

        // Busy time never exceeds workers x makespan.
        double busy = 0.0;
        for (double s : r.busySecondsAtRung)
            busy += s;
        EXPECT_LE(busy, 8.0 * r.seconds * (1.0 + 1e-6))
            << arm;

        // Determinism: the identical configuration replays exactly.
        const auto again = simulate(dag, cfg);
        EXPECT_EQ(r.seconds, again.seconds)
            << arm;
        EXPECT_EQ(r.joules, again.joules)
            << arm;
    }
}

TEST_P(SimFuzz, TempoNeverUsesOffLadderFrequencies)
{
    const Dag dag = randomDag(GetParam() ^ 0xdead);
    SimConfig cfg;
    cfg.profile = platform::systemB();
    cfg.numWorkers = 4;
    cfg.seed = GetParam();
    cfg.enableTempo = true;
    cfg.tempo.policy = core::TempoPolicy::Unified;
    cfg.tempo.ladder =
        platform::systemB().ladder.select({3600, 2700});

    const auto r = simulate(dag, cfg);
    const auto &ladder = platform::systemB().ladder;
    for (size_t i = 0; i < r.busySecondsAtRung.size(); ++i) {
        const auto f = ladder.at(i);
        if (f != 3600 && f != 2700) {
            EXPECT_EQ(r.busySecondsAtRung[i], 0.0)
                << f << " MHz used despite 2-frequency selection";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimFuzz,
                         testing::Range<uint64_t>(1, 13));
