/**
 * @file
 * The stealing-policy layer: victim probe order (the locality pass,
 * uniform-ring reproduction when it is skipped), the runtime's domain
 * wiring, bulk-steal accounting, and locality/wake stats under a
 * synthetic 2-domain DomainMap.
 */

#include <algorithm>
#include <atomic>
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

/** The uniform hunt: every other worker once from a random start,
 * one RNG draw — the order a hunt follows when the locality pass is
 * skipped. */
std::vector<core::WorkerId>
uniformRing(util::Rng &rng, core::WorkerId self, unsigned n)
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
    cfg.domainMap = platform::DomainMap(std::move(map));
    return cfg;
}

} // namespace

TEST(VictimOrder, SkippedPassStaysOnTheUniformStream)
{
    // The locality pass is skipped when it would add nothing: every
    // other worker a local peer (single-domain maps), or none (one
    // worker per domain, the host profile's placement while
    // workers <= cores). A skipped pass draws nothing, so every hunt
    // of a long run shares the uniform ring's stream.
    struct Case
    {
        unsigned n;
        core::WorkerId self;
        std::vector<core::WorkerId> peers;
    };
    for (const Case &c : {Case{4, 1, {0, 2, 3}}, Case{8, 2, {}}}) {
        const uint64_t seed = util::mix64(0x9e3779b97f4a7c15ULL, c.self);
        util::Rng uniform_rng(seed);
        util::Rng policy_rng(seed);
        std::vector<core::WorkerId> order;
        for (int hunt = 0; hunt < 1000; ++hunt) {
            appendVictimOrder(policy_rng, c.self, c.n, c.peers, order);
            ASSERT_EQ(order, uniformRing(uniform_rng, c.self, c.n))
                << c.peers.size() << " peers, hunt " << hunt;
        }
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
        appendVictimOrder(rng, 5, n, peers, order);
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

TEST(VictimOrder, SingleWorkerPoolHasNoVictims)
{
    util::Rng rng(1);
    std::vector<core::WorkerId> order{99};
    appendVictimOrder(rng, 0, 1, {}, order);
    EXPECT_TRUE(order.empty());
}

TEST(Stealing, RuntimeDerivesSingleDomainMapOnThisHost)
{
    // hostSystem() describes single-core domains; however many
    // workers, the derived map must cover them all.
    RuntimeConfig cfg;
    cfg.numWorkers = 4;
    Runtime rt(cfg);
    EXPECT_EQ(rt.domainMap().numWorkers(), 4u);
    EXPECT_GE(rt.domainMap().numDomains(), 1u);
}

TEST(Stealing, DomainOverrideIsWiredThrough)
{
    Runtime rt(twoDomainConfig());
    EXPECT_EQ(rt.domainMap().numDomains(), 2u);
    EXPECT_TRUE(rt.domainMap().sameDomain(0, 1));
    EXPECT_FALSE(rt.domainMap().sameDomain(1, 2));
}

TEST(StealingDeath, MismatchedOverrideIsFatal)
{
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_EXIT(
        {
            RuntimeConfig cfg;
            cfg.numWorkers = 4;
            cfg.domainMap = platform::DomainMap::uniform(2);
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

TEST(Stealing, BulkStealsLandMoreThanOneTaskPerSteal)
{
    // A grab takes ceil(n/2) of the n tasks a victim shares, so it
    // lands more than one once the victim shares three or more. Two
    // workers, so the one thief's grab is deterministic: the gate
    // task holds the thief while the owner stocks its shared part
    // with `stock` and keeps 15 children private behind it; the thief
    // then takes `stock`, which holds it until the owner's 16th spawn
    // has shared ceil(16/2) = 8 children, and the thief's next grab
    // lands 4 of them.
    RuntimeConfig cfg;
    cfg.numWorkers = 2;
    cfg.domainMap = platform::DomainMap::uniform(2);
    Runtime rt(cfg);
    constexpr int kChildren = 16;
    rt.run([&] {
        const auto self = Runtime::currentWorker();
        runtime::TaskGroup gate(rt);
        runtime::TaskGroup group(rt);
        std::atomic<bool> gate_held{false};
        std::atomic<bool> spawned{false};
        std::atomic<bool> stock_taken{false};
        std::atomic<bool> shared{false};
        std::atomic<bool> ran_elsewhere{false};
        gate.run([&] {
            gate_held.store(true, std::memory_order_release);
            while (!spawned.load(std::memory_order_acquire))
                std::this_thread::yield();
        });
        while (!gate_held.load(std::memory_order_acquire))
            std::this_thread::yield();
        gate.run([&] {
            stock_taken.store(true, std::memory_order_release);
            while (!shared.load(std::memory_order_acquire))
                std::this_thread::yield();
        });
        for (int c = 0; c < kChildren; ++c) {
            if (c == kChildren - 1) {
                spawned.store(true, std::memory_order_release);
                while (!stock_taken.load(std::memory_order_acquire))
                    std::this_thread::yield();
            }
            group.run([&ran_elsewhere, self] {
                if (Runtime::currentWorker() != self)
                    ran_elsewhere.store(true, std::memory_order_release);
            });
        }
        shared.store(true, std::memory_order_release);
        while (!ran_elsewhere.load(std::memory_order_acquire))
            std::this_thread::yield();
        group.wait();
        gate.wait();
    });

    const auto s = rt.stats();
    ASSERT_GT(s.steals, 0u);
    EXPECT_GT(s.bulkSteals, 0u) << "no grab ever landed 2+ tasks";
    EXPECT_GT(s.tasksPerSteal(), 1.0);
    EXPECT_EQ(s.localHits + s.remoteHits, s.steals);
    // The histogram accounts for every steal, with mass above the
    // singleton bucket: the grab of 4 lands in the 3-4 bucket.
    uint64_t hist_total = 0;
    for (unsigned b = 0; b < runtime::RuntimeStats::kStealSizeBuckets;
         ++b)
        hist_total += s.stealSize[b];
    EXPECT_EQ(hist_total, s.steals);
    EXPECT_GT(s.stealSize[2], 0u);
    // Identity from test_runtime still holds: each steal op executes
    // exactly one task directly; the surplus re-enters via pushes.
    EXPECT_EQ(s.executed, s.pops + s.steals + s.injected + s.inlined);
}

TEST(Stealing, LocalHitsDominateUnderBalancedLoad)
{
    // Two synthetic domains of two workers: worker 0 (the thief) and
    // worker 1 in domain 0, workers 2 and 3 in domain 1. Each round
    // holds all four workers in gate tasks; workers 1, 2 and 3 stock
    // their shared parts (a push into an empty deque shares its
    // task) and keep holding, so worker 0 is the only thief once its
    // gate opens. Its first steal must then come from worker 1, the
    // one victim its hunt probes before the global ring. Without the
    // locality pass the ring starts at a remote victim half the time,
    // so eight rounds in one runtime (its thief's RNG moving on) would
    // catch that with probability 1 - 2^-8.
    Runtime rt(twoDomainConfig());
    constexpr unsigned kWorkers = 4;
    constexpr core::WorkerId kThief = 0;
    constexpr int kRounds = 8;
    for (int round = 0; round < kRounds; ++round) {
        std::atomic<unsigned> arrived{0};
        std::atomic<unsigned> stocked{0};
        std::atomic<bool> stole{false};
        runtime::RuntimeStats before, at_steal;
        core::WorkerId victim = core::invalidWorker;
        std::vector<runtime::SubmitHandle> gates;
        for (unsigned g = 0; g < kWorkers; ++g) {
            gates.push_back(rt.submit([&] {
                // Held until every worker runs a gate, so each gate
                // has a worker of its own.
                arrived.fetch_add(1, std::memory_order_acq_rel);
                while (arrived.load(std::memory_order_acquire) < kWorkers)
                    std::this_thread::yield();
                const auto self = Runtime::currentWorker();
                if (self == kThief) {
                    while (stocked.load(std::memory_order_acquire)
                           < kWorkers - 1)
                        std::this_thread::yield();
                    before = rt.workerStats(kThief);
                    return; // released: this worker hunts next
                }
                runtime::TaskGroup group(rt);
                for (int c = 0; c < 4; ++c) {
                    group.run([&, self] {
                        if (Runtime::currentWorker() == kThief
                            && !stole.load(std::memory_order_acquire)) {
                            at_steal = rt.workerStats(kThief);
                            victim = self;
                            stole.store(true, std::memory_order_release);
                        }
                    });
                }
                stocked.fetch_add(1, std::memory_order_acq_rel);
                while (!stole.load(std::memory_order_acquire))
                    std::this_thread::yield();
                group.wait();
            }));
        }
        for (auto &gate : gates)
            gate.wait();
        EXPECT_EQ(victim, 1u) << "round " << round;
        EXPECT_EQ(at_steal.steals - before.steals, 1u) << "round " << round;
        EXPECT_EQ(at_steal.localHits - before.localHits, 1u)
            << "round " << round;
        EXPECT_EQ(at_steal.remoteHits, before.remoteHits)
            << "round " << round;
    }
}

TEST(Stealing, WakeSelectionCountsDomainOutcomes)
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
