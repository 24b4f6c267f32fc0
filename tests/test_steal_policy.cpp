/**
 * @file
 * The stealing-policy layer: victim probe order (locality passes,
 * legacy-ring reproduction under localityRounds=0), the runtime's
 * domain wiring, bulk-steal accounting, and locality/wake stats under
 * a synthetic 2-domain DomainMap.
 */

#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/parallel.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/steal_policy.hpp"

using namespace hermes;
using runtime::appendVictimOrder;
using runtime::Runtime;
using runtime::RuntimeConfig;

namespace {

/** The pre-locality hunt: every other worker once from a random
 * start, one RNG draw — the order the scheduler used before the
 * policy layer existed. */
std::vector<core::WorkerId>
legacyRing(util::Rng &rng, core::WorkerId self, unsigned n)
{
    std::vector<core::WorkerId> order;
    const auto start = static_cast<unsigned>(
        rng.uniformInt(0, static_cast<int64_t>(n) - 1));
    for (unsigned k = 0; k < n; ++k) {
        const auto victim = static_cast<core::WorkerId>((start + k) % n);
        if (victim != self)
            order.push_back(victim);
    }
    return order;
}

RuntimeConfig
twoDomainConfig(unsigned workers_per_domain = 2)
{
    RuntimeConfig cfg;
    cfg.numWorkers = 2 * workers_per_domain;
    std::vector<platform::DomainId> map;
    for (unsigned w = 0; w < cfg.numWorkers; ++w)
        map.push_back(w < workers_per_domain ? 0u : 1u);
    cfg.stealPolicy.domainMap = platform::DomainMap(std::move(map));
    return cfg;
}

} // namespace

TEST(VictimOrder, LocalityRoundsZeroReplaysTheLegacyRingBitwise)
{
    // The global start is drawn *after* the (absent) locality pass,
    // so the RNG stream — and with it every victim order — must be
    // bitwise-identical to the legacy uniform ring across a long run
    // of hunts sharing one generator.
    const uint64_t seed = util::mix64(0x9e3779b97f4a7c15ULL, 2);
    util::Rng legacy_rng(seed);
    util::Rng policy_rng(seed);
    const unsigned n = 8;
    const std::vector<core::WorkerId> peers{0, 1, 3}; // ignored at 0 rounds
    std::vector<core::WorkerId> order;
    for (int hunt = 0; hunt < 1000; ++hunt) {
        appendVictimOrder(policy_rng, 2, n, peers, 0, order);
        ASSERT_EQ(order, legacyRing(legacy_rng, 2, n))
            << "hunt " << hunt << " diverged";
    }
}

TEST(VictimOrder, SingleDomainPassIsSkippedAndStaysOnLegacyStream)
{
    // When every other worker is a local peer the locality pass adds
    // nothing; it must be skipped so the default single-domain
    // configuration keeps the legacy stream even with rounds > 0.
    const uint64_t seed = 42;
    util::Rng legacy_rng(seed);
    util::Rng policy_rng(seed);
    const unsigned n = 4;
    const std::vector<core::WorkerId> all_peers{0, 2, 3};
    std::vector<core::WorkerId> order;
    for (int hunt = 0; hunt < 100; ++hunt) {
        appendVictimOrder(policy_rng, 1, n, all_peers, 3, order);
        ASSERT_EQ(order, legacyRing(legacy_rng, 1, n));
    }
}

TEST(VictimOrder, SameDomainVictimsAreProbedBeforeRemoteOnes)
{
    // Synthetic 2-domain split of 8 workers: every hunt must list
    // all of the thief's domain before any victim outside it.
    util::Rng rng(7);
    const unsigned n = 8;
    const std::vector<core::WorkerId> peers{4, 6, 7}; // self = 5
    std::vector<core::WorkerId> order;
    for (int hunt = 0; hunt < 200; ++hunt) {
        appendVictimOrder(rng, 5, n, peers, 1, order);
        // One locality pass + the full ring minus self.
        ASSERT_EQ(order.size(), peers.size() + (n - 1));
        // The first |peers| probes are exactly the local peers.
        std::vector<core::WorkerId> head(order.begin(),
                                         order.begin() + 3);
        std::sort(head.begin(), head.end());
        EXPECT_EQ(head, peers);
        // No probe ever targets the thief itself.
        for (const auto v : order)
            EXPECT_NE(v, 5u);
        // The fallback ring still covers every other worker.
        std::vector<core::WorkerId> tail(order.begin() + 3,
                                         order.end());
        std::sort(tail.begin(), tail.end());
        EXPECT_EQ(tail,
                  (std::vector<core::WorkerId>{0, 1, 2, 3, 4, 6, 7}));
    }
}

TEST(VictimOrder, ExtraLocalityRoundsRepeatTheDomainPass)
{
    util::Rng rng(9);
    const std::vector<core::WorkerId> peers{1};
    std::vector<core::WorkerId> order;
    appendVictimOrder(rng, 0, 4, peers, 3, order);
    ASSERT_EQ(order.size(), 3u + 3u);
    EXPECT_EQ(order[0], 1u);
    EXPECT_EQ(order[1], 1u);
    EXPECT_EQ(order[2], 1u);
}

TEST(VictimOrder, SingleWorkerPoolHasNoVictims)
{
    util::Rng rng(1);
    std::vector<core::WorkerId> order{99};
    appendVictimOrder(rng, 0, 1, {}, 1, order);
    EXPECT_TRUE(order.empty());
}

TEST(StealPolicy, RuntimeDerivesSingleDomainMapOnThisHost)
{
    // hostSystem() describes single-core domains; however many
    // workers, the derived map must cover them all.
    RuntimeConfig cfg;
    cfg.numWorkers = 4;
    Runtime rt(cfg);
    EXPECT_EQ(rt.domainMap().numWorkers(), 4u);
    EXPECT_GE(rt.domainMap().numDomains(), 1u);
}

TEST(StealPolicy, DomainOverrideIsWiredThrough)
{
    Runtime rt(twoDomainConfig());
    EXPECT_EQ(rt.domainMap().numDomains(), 2u);
    EXPECT_TRUE(rt.domainMap().sameDomain(0, 1));
    EXPECT_FALSE(rt.domainMap().sameDomain(1, 2));
}

TEST(StealPolicyDeath, MismatchedOverrideIsFatal)
{
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_EXIT(
        {
            RuntimeConfig cfg;
            cfg.numWorkers = 4;
            cfg.stealPolicy.domainMap =
                platform::DomainMap::uniform(2);
            Runtime rt(cfg);
        },
        testing::ExitedWithCode(1), "domainMap covers");
}

namespace {

/** Sustained multi-quantum load (as in the runtime steal tests):
 * tiny spinning tasks so thieves participate even on one CPU. */
void
spinLoad(Runtime &rt, size_t tasks, unsigned spin_us)
{
    rt.run([&] {
        runtime::parallelFor(rt, 0, tasks, 1, [&](size_t) {
            const auto until = std::chrono::steady_clock::now()
                + std::chrono::microseconds(spin_us);
            while (std::chrono::steady_clock::now() < until) {
            }
        });
    });
}

} // namespace

TEST(StealPolicy, BulkStealsLandMoreThanOneTaskPerSteal)
{
    // Fork-join burst: recursive parallelFor splitting stocks every
    // deque with several tasks, so steal-half grabs land batches.
    Runtime rt(twoDomainConfig());
    spinLoad(rt, 2000, 20);

    const auto s = rt.stats();
    ASSERT_GT(s.steals, 0u);
    EXPECT_GT(s.bulkSteals, 0u) << "no grab ever landed 2+ tasks";
    EXPECT_GT(s.tasksPerSteal(), 1.0);
    EXPECT_EQ(s.localHits + s.remoteHits, s.steals);
    // The histogram accounts for every steal, with mass above the
    // singleton bucket.
    uint64_t hist_total = 0;
    for (unsigned b = 0; b < runtime::RuntimeStats::kStealSizeBuckets;
         ++b)
        hist_total += s.stealSize[b];
    EXPECT_EQ(hist_total, s.steals);
    EXPECT_GT(s.steals - s.stealSize[0], 0u);
    // Identity from test_runtime still holds: each steal op executes
    // exactly one task directly; the surplus re-enters via pushes.
    EXPECT_EQ(s.executed, s.pops + s.steals + s.injected + s.inlined);
}

TEST(StealPolicy, LocalHitsDominateUnderBalancedLoad)
{
    // Two synthetic domains of two workers: with every deque stocked
    // by the recursive split, the same-domain pass (probed first)
    // should land the majority of steals.
    auto cfg = twoDomainConfig();
    ASSERT_EQ(cfg.stealPolicy.localityRounds, 1u);
    Runtime rt(cfg);
    spinLoad(rt, 4000, 20);

    const auto s = rt.stats();
    ASSERT_GT(s.steals, 0u);
    EXPECT_GT(s.localHits, 0u);
    EXPECT_GE(s.localHits, s.remoteHits)
        << "locality pass did not dominate: " << s.localHits
        << " local vs " << s.remoteHits << " remote hits";
}

TEST(StealPolicy, WakeSelectionCountsDomainOutcomes)
{
    // Churn the pool through park/wake cycles; every targeted wake
    // must be classified as local or remote, and the two counters
    // only ever grow.
    Runtime rt(twoDomainConfig());
    for (int cycle = 0; cycle < 20; ++cycle) {
        spinLoad(rt, 64, 5);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const auto s = rt.stats();
    // Spawn-side wakes carry the producer's domain, inject-side ones
    // carry none; either way the sum tracks the notify count, which
    // at minimum covers the first wake of each cycle.
    EXPECT_GT(s.localWakes + s.remoteWakes, 0u);
}
