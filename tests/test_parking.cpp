/**
 * @file
 * Park/wake correctness of the event-driven idle protocol: a
 * quiesced pool parks every worker, a single inject wakes one, churn
 * cycles (empty→busy→empty) never lose a wakeup, a share of private
 * deque tasks wakes a parked peer, and packagePower reflects
 * parkedPower once the pool quiesces.
 */

#include <atomic>
#include <chrono>
#include <thread>

#include <gtest/gtest.h>

#include "runtime/parallel.hpp"
#include "runtime/scheduler.hpp"

using namespace hermes;
using runtime::Runtime;
using runtime::RuntimeConfig;
using runtime::TaskGroup;

namespace {

RuntimeConfig
config(unsigned workers, bool tempo = false)
{
    RuntimeConfig cfg;
    cfg.numWorkers = workers;
    cfg.enableTempo = tempo;
    cfg.tempo.policy = core::TempoPolicy::Unified;
    return cfg;
}

/** Poll until every worker is parked; the pool is idle so this must
 * happen after at most parkThreshold empty hunts per worker. */
bool
awaitFullyParked(const Runtime &rt, double timeout_sec = 30.0)
{
    const auto deadline = std::chrono::steady_clock::now()
        + std::chrono::duration<double>(timeout_sec);
    while (rt.parkedWorkers() < rt.numWorkers()) {
        if (std::chrono::steady_clock::now() > deadline)
            return false;
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    return true;
}

long
fib(Runtime &rt, long n)
{
    if (n < 2)
        return n;
    if (n < 12)
        return fib(rt, n - 1) + fib(rt, n - 2);
    long a = 0, b = 0;
    runtime::parallelInvoke(rt, [&] { a = fib(rt, n - 1); },
                            [&] { b = fib(rt, n - 2); });
    return a + b;
}

} // namespace

TEST(Parking, QuiescedPoolParksEveryWorker)
{
    // With tempo on too: the hunts before a park fire the
    // out-of-work hook, and parking itself involves no controller.
    for (const bool tempo : {false, true}) {
        Runtime rt(config(4, tempo));
        ASSERT_TRUE(awaitFullyParked(rt))
            << "idle workers never parked (still "
            << rt.numWorkers() - rt.parkedWorkers()
            << " hunting, tempo " << tempo << ")";
        for (unsigned w = 0; w < rt.numWorkers(); ++w) {
            EXPECT_TRUE(rt.workerParked(w))
                << "worker " << w << ", tempo " << tempo;
        }
        // Every worker blocked at least once to get here.
        EXPECT_GE(rt.stats().parks, rt.numWorkers());
    }
}

TEST(Parking, PackagePowerDropsToParkedWhenPoolQuiesces)
{
    Runtime rt(config(4));
    const energy::PowerModel model(rt.config().profile);

    // Exercise the pool, then let it drain and park.
    long result = 0;
    rt.run([&] { result = fib(rt, 24); });
    ASSERT_EQ(result, 46368);
    ASSERT_TRUE(awaitFullyParked(rt));

    // With every worker parked, modeled power is exactly uncore +
    // parked/idle cores — no spin or active term anywhere.
    const auto &topo = rt.config().profile.topology;
    double expected = model.uncorePower();
    for (platform::CoreId c = 0; c < topo.numCores(); ++c) {
        const auto f = rt.backend().domainFreq(topo.domainOf(c));
        expected += model.parkedPower(f);
    }
    EXPECT_NEAR(rt.packagePower(model), expected, 1e-9);

    // Regression: the quiesced reading sits strictly below what the
    // pre-parking runtime modeled (idle workers charged spin power).
    double spinning = model.uncorePower();
    for (platform::CoreId c = 0; c < topo.numCores(); ++c) {
        const auto f = rt.backend().domainFreq(topo.domainOf(c));
        spinning += model.coreSpinPower(f);
    }
    EXPECT_LT(rt.packagePower(model), spinning);
}

TEST(Parking, SingleInjectWakesAParkedWorker)
{
    Runtime rt(config(4));
    ASSERT_TRUE(awaitFullyParked(rt));
    const auto before = rt.stats();

    // run() from this external thread goes through inject(), which
    // must wake at least one of the four parked workers.
    std::atomic<bool> ran{false};
    rt.run([&] { ran.store(true); });
    EXPECT_TRUE(ran.load());
    EXPECT_GE(rt.stats().wakes, before.wakes + 1);
}

TEST(Parking, ChurnCyclesLoseNoWakeups)
{
    // Repeated empty→busy→empty transitions: each cycle the pool
    // quiesces (workers park) and the next root task must wake it
    // again. A lost wakeup hangs run() and trips the test timeout.
    Runtime rt(config(4));
    std::atomic<size_t> done{0};
    for (int cycle = 0; cycle < 100; ++cycle) {
        rt.run([&] {
            runtime::parallelFor(rt, 0, 64, 4, [&](size_t) {
                done.fetch_add(1, std::memory_order_relaxed);
            });
        });
        if (cycle % 10 == 0) {
            // Give the pool time to fully quiesce so later cycles
            // start from the all-parked state, not the hunt phase.
            std::this_thread::sleep_for(
                std::chrono::milliseconds(2));
        }
    }
    EXPECT_EQ(done.load(), 100u * 64u);

    const auto s = rt.stats();
    // Block/wake pairing: every wake matches a prior block, and at
    // most numWorkers blocks are still outstanding (currently parked).
    EXPECT_LE(s.wakes, s.parks);
    EXPECT_LE(s.parks - s.wakes, rt.numWorkers());
    EXPECT_LE(s.spuriousWakes, s.wakes);
}

TEST(Parking, InjectBurstUnparksThePool)
{
    // A burst of external submissions while everyone is parked: the
    // first inject wakes one worker, wake chaining (inject queue
    // still non-empty, victims with surplus) must fan out from
    // there. No worker may stay parked while injected work pends —
    // otherwise this deadlocks on a long task pinning the lone woken
    // worker.
    Runtime rt(config(4));
    ASSERT_TRUE(awaitFullyParked(rt));

    constexpr int kTasks = 64;
    std::atomic<int> done{0};
    TaskGroup group(rt);
    for (int i = 0; i < kTasks; ++i) {
        group.run([&] {
            const auto until = std::chrono::steady_clock::now()
                + std::chrono::microseconds(200);
            while (std::chrono::steady_clock::now() < until) {
            }
            done.fetch_add(1, std::memory_order_relaxed);
        });
    }
    group.wait();
    EXPECT_EQ(done.load(), kTasks);
    EXPECT_EQ(rt.stats().injected, static_cast<uint64_t>(kTasks));
}

TEST(Parking, ParkedTimeIsAccountedWhileQuiesced)
{
    Runtime rt(config(2));
    ASSERT_TRUE(awaitFullyParked(rt));
    const auto before = rt.stats().parkedNanos;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    // Workers are still blocked; their parked time accrues only on
    // wake, so force one full park/wake round trip.
    rt.run([] {});
    ASSERT_TRUE(awaitFullyParked(rt));
    rt.run([] {});
    EXPECT_GT(rt.stats().parkedNanos, before);
}

TEST(Parking, DisabledParkingFallsBackToYieldLoop)
{
    auto cfg = config(2);
    cfg.enableParking = false;
    Runtime rt(cfg);
    long result = 0;
    rt.run([&] { result = fib(rt, 20); });
    EXPECT_EQ(result, 6765);
    EXPECT_EQ(rt.stats().parks, 0u);
    EXPECT_EQ(rt.parkedWorkers(), 0u);
}

TEST(Parking, EagerThresholdStillCorrect)
{
    auto cfg = config(4);
    cfg.parkThreshold = 1; // park after the very first empty hunt
    Runtime rt(cfg);
    long result = 0;
    for (int rep = 0; rep < 3; ++rep)
        rt.run([&] { result = fib(rt, 22); });
    EXPECT_EQ(result, 17711);
}

TEST(Parking, PrivateTasksWakeAParkedPeerAtTheNextPush)
{
    // A worker's private deque part is out of every thief's sight, so
    // a peer that finds only private tasks parks; the owner's next
    // push finds the shared part empty, shares, and wakes it. Two
    // workers: the owner spawns `hold` (shared at once; the peer takes
    // it), then, while `hold` keeps the peer busy, `stock` (shared)
    // and two children behind it (private). Released, the peer takes
    // `stock`, finds only private tasks and parks. The owner's next
    // spawn shares ceil(3/2) = 2 of its three private tasks, and one
    // of them must then run on the peer.
    Runtime rt(config(2));
    bool peer_parked = false;
    bool woken_peer_ran_a_child = false;
    rt.run([&] {
        const auto self = Runtime::currentWorker();
        TaskGroup g(rt);
        std::atomic<bool> hold_taken{false};
        std::atomic<bool> released{false};
        std::atomic<int> ran_elsewhere{0};
        const auto child = [&ran_elsewhere, self] {
            if (Runtime::currentWorker() != self)
                ran_elsewhere.fetch_add(1, std::memory_order_release);
        };
        const auto await = [](auto done) {
            const auto deadline = std::chrono::steady_clock::now()
                + std::chrono::seconds(10);
            while (!done()) {
                if (std::chrono::steady_clock::now() > deadline)
                    return false;
                std::this_thread::yield();
            }
            return true;
        };
        g.run([&hold_taken, &released] {
            hold_taken.store(true, std::memory_order_release);
            while (!released.load(std::memory_order_acquire))
                std::this_thread::yield();
        });
        await([&] { return hold_taken.load(std::memory_order_acquire); });
        g.run(child); // stock: the shared part was empty again
        g.run(child); // private
        g.run(child); // private
        released.store(true, std::memory_order_release);
        await([&] {
            return ran_elsewhere.load(std::memory_order_acquire) == 1;
        });
        peer_parked = await([&] { return rt.parkedWorkers() == 1; });
        g.run(child); // shares two private tasks and wakes the peer
        woken_peer_ran_a_child = await([&] {
            return ran_elsewhere.load(std::memory_order_acquire) >= 2;
        });
        g.wait();
    });
    EXPECT_TRUE(peer_parked) << "the peer saw the private tasks";
    EXPECT_TRUE(woken_peer_ran_a_child)
        << "the share did not wake the parked peer";
}

TEST(Parking, ConcurrentProducersNeverLoseAWakeOnLoneWorker)
{
    // Wake double-targeting regression: with exactly one (parked)
    // worker, two producers submitting at the same instant both
    // target the same parkee. If the lot's wake-pending handshake
    // dropped one of the two wakes while work still pended, one
    // run() would never complete — a lost wake here hangs the test
    // into its timeout rather than failing an assertion, which is
    // exactly the failure mode worth pinning.
    auto cfg = config(1);
    cfg.parkThreshold = 1; // re-park eagerly between cycles
    Runtime rt(cfg);

    std::atomic<int> done{0};
    for (int cycle = 0; cycle < 50; ++cycle) {
        ASSERT_TRUE(awaitFullyParked(rt)) << "cycle " << cycle;
        auto produce = [&rt, &done] {
            rt.run([&done] {
                done.fetch_add(1, std::memory_order_relaxed);
            });
        };
        std::thread a(produce);
        std::thread b(produce);
        a.join();
        b.join();
        ASSERT_EQ(done.load(), 2 * (cycle + 1)) << "cycle " << cycle;
    }

    // Block/wake pairing stays sane across all the contended cycles.
    const auto s = rt.stats();
    EXPECT_LE(s.wakes, s.parks);
    EXPECT_LE(s.parks - s.wakes, rt.numWorkers());
}

TEST(Parking, DISABLED_EveryParkedEpochSubmitProducesAWake)
{
    // Finding, filed as a disabled case rather than a runtime change
    // (see docs/STEALING.md, wake selection): the lot's wake-pending
    // bit is cleared by the *woken* worker, so a worker that wakes,
    // finds the work already drained by the producer's second
    // submission racing in, and re-parks can leave a stale pending
    // bit. The next producer then observes "wake already pending",
    // skips the futex wake, and the pool's wake counter under-counts
    // the park→submit transitions. Liveness survives (the stale bit
    // is consumed by the next genuine wake), which is why the test
    // above passes; the *exactness* property below — every submit
    // into a fully-parked pool bumps `wakes` within that cycle —
    // does not hold today. Enable once the lot clears the pending
    // bit on re-park.
    auto cfg = config(1);
    cfg.parkThreshold = 1;
    Runtime rt(cfg);

    for (int cycle = 0; cycle < 50; ++cycle) {
        ASSERT_TRUE(awaitFullyParked(rt));
        const auto before = rt.stats().wakes;
        rt.run([] {});
        EXPECT_GE(rt.stats().wakes, before + 1)
            << "submit into a fully-parked pool absorbed by a "
               "stale wake-pending bit (cycle "
            << cycle << ")";
    }
}
