/**
 * @file
 * Unit tests for the Figure 5 unified algorithm, including exact
 * replays of the paper's Figure 3 (workpath) and Figure 4
 * (workload) walkthroughs.
 */

#include <gtest/gtest.h>

#include "core/tempo_controller.hpp"
#include "dvfs/simulated.hpp"
#include "platform/frequency.hpp"

using namespace hermes;
using core::TempoConfig;
using core::TempoController;
using core::TempoPolicy;
using core::invalidWorker;
using dvfs::SimulatedDvfs;
using platform::FrequencyLadder;

namespace {

struct Rig
{
    Rig(TempoPolicy policy, std::vector<platform::FreqMhz> rungs,
        unsigned workers = 4, unsigned thresholds = 2)
        : backend(workers, FrequencyLadder(rungs)),
          controller(makeConfig(policy, std::move(rungs),
                                thresholds),
                     backend, oneDomainEach(workers))
    {
        controller.reset();
    }

    /** Worker w on domain w. */
    static std::vector<platform::DomainId>
    oneDomainEach(unsigned workers)
    {
        std::vector<platform::DomainId> domain_of(workers);
        for (unsigned w = 0; w < workers; ++w)
            domain_of[w] = w;
        return domain_of;
    }

    static TempoConfig
    makeConfig(TempoPolicy policy,
               std::vector<platform::FreqMhz> rungs,
               unsigned thresholds)
    {
        TempoConfig cfg;
        cfg.policy = policy;
        cfg.ladder = FrequencyLadder(std::move(rungs));
        cfg.numThresholds = thresholds;
        cfg.profilerWindow = 1000000;  // keep bootstrap thresholds
        return cfg;
    }

    SimulatedDvfs backend;
    TempoController controller;
};

} // namespace

TEST(TempoController, BootstrapAllFastest)
{
    Rig rig(TempoPolicy::Unified, {2400, 1900, 1600});
    for (core::WorkerId w = 0; w < 4; ++w) {
        EXPECT_EQ(rig.controller.tempoOf(w), 0u);
        EXPECT_EQ(rig.backend.domainFreq(w), 2400u);
    }
}

TEST(TempoController, Figure3WorkpathWalkthrough)
{
    // Four tempo levels so "thief's thief" is distinguishable.
    Rig rig(TempoPolicy::WorkpathOnly, {2400, 2200, 1900, 1600});
    auto &c = rig.controller;

    // (b) worker 1 steals from worker 0: Thief Procrastination.
    c.onStealSuccess(1, 0);
    EXPECT_EQ(c.tempoOf(0), 0u);
    EXPECT_EQ(c.tempoOf(1), 1u);
    EXPECT_EQ(c.nextOf(0), 1u);
    EXPECT_EQ(c.prevOf(1), 0u);

    // (c) worker 2 steals from worker 1: a thief's thief runs at a
    // tempo further slower.
    c.onStealSuccess(2, 1);
    EXPECT_EQ(c.tempoOf(2), 2u);
    EXPECT_EQ(c.nextOf(1), 2u);

    // (d/e) worker 0 runs out of work: Immediacy Relay raises every
    // downstream thief one level, preserving their order.
    c.onOutOfWork(0);
    EXPECT_EQ(c.tempoOf(1), 0u);
    EXPECT_EQ(c.tempoOf(2), 1u);
    EXPECT_FALSE(c.nextOf(0) != invalidWorker);
    EXPECT_EQ(c.prevOf(1), invalidWorker);  // 1 is the new head

    // (f) worker 0 steals from worker 1: a fresh relationship with
    // roles swapped; 0 slots in right after its victim.
    c.onStealSuccess(0, 1);
    EXPECT_EQ(c.tempoOf(0), 1u);
    EXPECT_EQ(c.nextOf(1), 0u);
    EXPECT_EQ(c.nextOf(0), 2u);
    EXPECT_EQ(c.prevOf(2), 0u);
}

TEST(TempoController, Figure4WorkloadWalkthrough)
{
    // Three tempo levels, bootstrap thresholds {1, 3} (Figure 4).
    Rig rig(TempoPolicy::WorkloadOnly, {2400, 1900, 1600});
    auto &c = rig.controller;

    // (b) worker 1 steals; its deque is empty (size 0, below the
    // first threshold): lowest tempo.
    c.onStealSuccess(1, 0);
    EXPECT_EQ(c.tempoOf(1), 2u);

    // (c) pushes grow the deque past threshold 1: medium tempo.
    c.onPush(1, 1);
    EXPECT_EQ(c.tempoOf(1), 1u);
    c.onPush(1, 2);
    EXPECT_EQ(c.tempoOf(1), 1u);  // still below threshold 3

    // (d) deque reaches the second threshold: fastest tempo.
    c.onPush(1, 3);
    EXPECT_EQ(c.tempoOf(1), 0u);

    // (e) a thief steals from worker 1, dropping the deque below
    // the second threshold: slowed one level.
    c.onVictimStolen(1, 2);
    EXPECT_EQ(c.tempoOf(1), 1u);

    // (f) pops drain it below the first threshold: slowest again.
    c.onPopSuccess(1, 0);
    EXPECT_EQ(c.tempoOf(1), 2u);
}

TEST(TempoController, UnifiedHeadGuardBlocksWorkloadDowns)
{
    Rig rig(TempoPolicy::Unified, {2400, 1900, 1600});
    auto &c = rig.controller;

    // Worker 0 has prev == null (most immediate work): pushing it up
    // then draining must NOT slow it (the single intersection of the
    // two strategies, Section 3.3).
    c.onPush(0, 4);
    EXPECT_EQ(c.tempoOf(0), 0u);
    c.onPopSuccess(0, 0);
    EXPECT_EQ(c.tempoOf(0), 0u);
    EXPECT_GE(c.counters().guardBlocks, 1u);

    // A linked thief, in contrast, is subject to workload downs.
    c.onStealSuccess(1, 0);
    EXPECT_EQ(c.tempoOf(1), 1u);
    c.onPush(1, 4);  // region 2: two ups -> fastest
    EXPECT_EQ(c.tempoOf(1), 0u);
    c.onPopSuccess(1, 0);  // region 0: downs allowed
    EXPECT_EQ(c.tempoOf(1), 2u);
}

TEST(TempoController, WorkpathOnlyIgnoresDequeSizes)
{
    Rig rig(TempoPolicy::WorkpathOnly, {2400, 1900, 1600});
    auto &c = rig.controller;
    c.onPush(0, 10);
    c.onPopSuccess(0, 0);
    c.onVictimStolen(0, 0);
    EXPECT_EQ(c.tempoOf(0), 0u);
    EXPECT_EQ(c.counters().workloadUps, 0u);
    EXPECT_EQ(c.counters().workloadDowns, 0u);
}

TEST(TempoController, StealFromSlowedVictimClamps)
{
    // With a 2-rung ladder the thief of a slow victim cannot go
    // below the slowest usable rung (N-frequency clamping).
    Rig rig(TempoPolicy::WorkpathOnly, {2400, 1600});
    auto &c = rig.controller;
    c.onStealSuccess(1, 0);
    EXPECT_EQ(c.tempoOf(1), 1u);
    c.onStealSuccess(2, 1);
    EXPECT_EQ(c.tempoOf(2), 1u);  // clamped, not 2
    EXPECT_EQ(rig.backend.domainFreq(2), 1600u);
}

TEST(TempoController, RelayIsIdempotentWhileIdle)
{
    Rig rig(TempoPolicy::Unified, {2400, 1900, 1600});
    auto &c = rig.controller;
    c.onStealSuccess(1, 0);
    c.onOutOfWork(0);
    const auto after_first = c.counters().relayUps;
    c.onOutOfWork(0);  // scheduler retries while idle
    c.onOutOfWork(0);
    EXPECT_EQ(c.counters().relayUps, after_first);
}

TEST(TempoController, ResetRestoresBootstrap)
{
    Rig rig(TempoPolicy::Unified, {2400, 1600});
    auto &c = rig.controller;
    c.onStealSuccess(1, 0);
    c.onStealSuccess(2, 1);
    c.reset();
    for (core::WorkerId w = 0; w < 4; ++w) {
        EXPECT_EQ(c.tempoOf(w), 0u);
        EXPECT_EQ(c.prevOf(w), invalidWorker);
        EXPECT_EQ(c.nextOf(w), invalidWorker);
    }
    EXPECT_EQ(c.counters().stealDowns, 0u);
}

TEST(TempoController, CountersTrackEvents)
{
    Rig rig(TempoPolicy::Unified, {2400, 1900, 1600});
    auto &c = rig.controller;
    c.onStealSuccess(1, 0);
    c.onPush(1, 1);
    c.onPush(1, 3);
    c.onOutOfWork(0);
    const auto k = c.counters();
    EXPECT_EQ(k.stealDowns, 1u);
    EXPECT_EQ(k.workloadUps, 2u);
    EXPECT_EQ(k.relayUps, 1u);
    EXPECT_EQ(k.outOfWorkEvents, 1u);
}

TEST(TempoController, FrequencyOfMatchesBackend)
{
    Rig rig(TempoPolicy::Unified, {2400, 1600});
    auto &c = rig.controller;
    c.onStealSuccess(3, 0);
    EXPECT_EQ(c.frequencyOf(3), 1600u);
    EXPECT_EQ(rig.backend.domainFreq(3), 1600u);
}

TEST(TempoControllerDeath, RequiresResolvedLadder)
{
    SimulatedDvfs backend(2, FrequencyLadder({2400, 1600}));
    TempoConfig cfg;  // ladder left unset
    EXPECT_DEATH(TempoController(cfg, backend, {0, 0}),
                 "must be resolved");
}

/** N-frequency control: the slowest reachable rung is index N-1. */
class NFrequencyClamp
    : public testing::TestWithParam<std::vector<platform::FreqMhz>>
{};

TEST_P(NFrequencyClamp, ChainedStealsSaturateAtSlowest)
{
    const auto rungs = GetParam();
    Rig rig(TempoPolicy::WorkpathOnly, rungs, 8);
    auto &c = rig.controller;
    for (core::WorkerId thief = 1; thief < 8; ++thief) {
        c.onStealSuccess(thief, thief - 1);
        const auto expect = std::min<size_t>(thief,
                                             rungs.size() - 1);
        EXPECT_EQ(c.tempoOf(thief), expect);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Ladders, NFrequencyClamp,
    testing::Values(std::vector<platform::FreqMhz>{2400, 1600},
                    std::vector<platform::FreqMhz>{2400, 1600, 1400},
                    std::vector<platform::FreqMhz>{2400, 1900, 1600},
                    std::vector<platform::FreqMhz>{2400, 2200, 1900,
                                                   1600, 1400}));
