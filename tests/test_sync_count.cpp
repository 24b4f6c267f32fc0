/**
 * @file
 * Locked instructions per task, counted rather than tabulated.
 *
 * Links the runtime built with HERMES_COUNT_SYNC (CMakeLists.txt), in
 * which every atomic RMW, CAS, seq_cst store and mutex acquisition in
 * src/runtime/, and every acquisition of the tempo controller's
 * mutex, bumps a tally (src/runtime/sync.hpp). Each test counts
 * one window in which only the measured task moves: idle workers hunt
 * without parking (a failed hunt issues no locked instruction), and
 * the test thread spins on a flag instead of blocking in wait(). The
 * counts do not depend on the machine, so they are pinned exactly;
 * docs/STEALING.md, "Synchronization cost per task", tabulates them.
 */

#include <atomic>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "runtime/scheduler.hpp"
#include "runtime/sync.hpp"
#include "runtime/task_group.hpp"

#ifndef HERMES_COUNT_SYNC
#error "test_sync_count needs the runtime built with HERMES_COUNT_SYNC"
#endif

using namespace hermes;
using runtime::Runtime;
using runtime::RuntimeConfig;
using runtime::TaskGroup;
using runtime::sync::Counts;

namespace {

RuntimeConfig
quietConfig(unsigned workers)
{
    RuntimeConfig cfg;
    cfg.numWorkers = workers;
    // Parking and waking issue locked instructions at times that
    // depend on scheduling; a hunting worker issues none.
    cfg.enableParking = false;
    // One inject shard, so no pop counts as a shard hit.
    cfg.domainMap = platform::DomainMap::uniform(workers);
    return cfg;
}

/** Run `body` as a task on a worker of `rt` while this thread issues
 * no counted operation: it spins on a flag until the body is done,
 * and waits on the submission only then. */
template <typename Body>
void
onWorker(Runtime &rt, Body body)
{
    std::atomic<bool> done{false};
    runtime::SubmitHandle handle = rt.submit([&] {
        body();
        done.store(true, std::memory_order_release);
    });
    while (!done.load(std::memory_order_acquire))
        std::this_thread::yield();
    handle.wait();
}

} // namespace

TEST(SyncCount, SpawnedAndPoppedTaskCostsNoLockedInstruction)
{
    // One worker, so nothing is stolen: each child is pushed, popped
    // back by wait()'s help loop and completed by its owner. A task
    // spawned first is shared and stays below them, so every child
    // lands in the private part and no pop empties it into a reclaim
    // (counted below): plain loads and stores only.
    Runtime rt(quietConfig(1));
    constexpr int kTasks = 64;
    Counts used;
    int ran = 0;
    onWorker(rt, [&] {
        TaskGroup below(rt);
        below.run([] {});
        TaskGroup g(rt); // owned: built on the worker
        const Counts before = runtime::sync::counts();
        for (int i = 0; i < kTasks; ++i)
            g.run([&ran] { ++ran; });
        g.wait();
        used = runtime::sync::counts() - before;
        below.wait();
    });
    EXPECT_EQ(ran, kTasks);
    EXPECT_EQ(used.seqCstStores, 0u);
    EXPECT_EQ(used.rmw, 0u);
    EXPECT_EQ(used.cas, 0u);
    EXPECT_EQ(used.locks, 0u);
    EXPECT_EQ(used.lockedInstructions(), 0u);
}

TEST(SyncCount, TempoAddsOneControllerLockPerPushAndPerPop)
{
    // The same window with the workload rule on: the push hook and
    // the pop hook each take the controller's mutex once, and
    // nothing else is added. The region changes inside them add
    // nothing either: under workload-only the drain lowers the
    // frequency, a relaxed store to the domain's word; under unified
    // the lone worker heads the immediacy list, so the guard holds.
    for (const auto policy :
         {core::TempoPolicy::Unified, core::TempoPolicy::WorkloadOnly}) {
        RuntimeConfig cfg = quietConfig(1);
        cfg.enableTempo = true;
        cfg.tempo.policy = policy;
        Runtime rt(cfg);
        constexpr int kTasks = 64;
        Counts used;
        core::TempoCounters k0, k1;
        uint64_t transitions = 0;
        onWorker(rt, [&] {
            TaskGroup below(rt);
            below.run([] {});
            TaskGroup g(rt);
            k0 = rt.tempo()->counters();
            const uint64_t t0 = rt.backend().transitionCount();
            const Counts before = runtime::sync::counts();
            for (int i = 0; i < kTasks; ++i)
                g.run([] {});
            g.wait();
            used = runtime::sync::counts() - before;
            transitions = rt.backend().transitionCount() - t0;
            k1 = rt.tempo()->counters();
            below.wait();
        });
        const std::string arm = core::toString(policy);
        EXPECT_EQ(used.locks, 2u * kTasks) << arm;
        EXPECT_EQ(used.rmw, 0u) << arm;
        EXPECT_EQ(used.cas, 0u) << arm;
        EXPECT_EQ(used.seqCstStores, 0u) << arm;
        EXPECT_EQ(used.lockedInstructions(), 4u * kTasks) << arm;
        // The window did move the region.
        EXPECT_GT(k1.workloadUps + k1.workloadDowns + k1.guardBlocks,
                  k0.workloadUps + k0.workloadDowns + k0.guardBlocks)
            << arm;
        if (policy == core::TempoPolicy::WorkloadOnly)
            EXPECT_GT(transitions, 0u);
        else
            EXPECT_GT(k1.guardBlocks, k0.guardBlocks);
    }
}

TEST(SyncCount, LoneTaskPushAndPopCostsThreeLockedInstructions)
{
    // A push into an empty deque shares its task (one seq_cst store
    // of the split), and the pop that takes it back is a reclaim: the
    // split's seq_cst retract and one CAS on the head against the
    // thieves for the last task.
    Runtime rt(quietConfig(1));
    Counts used;
    onWorker(rt, [&] {
        TaskGroup g(rt);
        const Counts before = runtime::sync::counts();
        g.run([] {});
        g.wait();
        used = runtime::sync::counts() - before;
    });
    EXPECT_EQ(used.seqCstStores, 2u);
    EXPECT_EQ(used.cas, 1u);
    EXPECT_EQ(used.rmw, 0u);
    EXPECT_EQ(used.locks, 0u);
    EXPECT_EQ(used.lockedInstructions(), 3u);
}

TEST(SyncCount, ClaimingAGroupBuiltElsewhereCostsOneCas)
{
    // The benchmark's pattern: a group built off the workers and
    // reused by one. Its first spawn claims it; every task after
    // that costs what an owned group's does.
    Runtime rt(quietConfig(1));
    constexpr int kTasks = 64;
    TaskGroup g(rt); // unowned: built on this thread
    Counts used;
    int ran = 0;
    onWorker(rt, [&] {
        TaskGroup below(rt);
        below.run([] {});
        const Counts before = runtime::sync::counts();
        for (int round = 0; round < 2; ++round) {
            for (int i = 0; i < kTasks / 2; ++i)
                g.run([&ran] { ++ran; });
            g.wait();
        }
        used = runtime::sync::counts() - before;
        below.wait();
    });
    EXPECT_EQ(ran, kTasks);
    EXPECT_EQ(used.cas, 1u);
    EXPECT_EQ(used.seqCstStores, 0u);
    EXPECT_EQ(used.rmw, 0u);
    EXPECT_EQ(used.locks, 0u);
}

TEST(SyncCount, StolenTaskCostsThreeLockedInstructions)
{
    // The spawn into an empty deque shares the child (the split
    // store), the thief claims the head with one CAS, and the thief's
    // completion is one RMW on the group's remote count. The spawner
    // waits for the theft before helping, so it never pops the child
    // back.
    Runtime rt(quietConfig(2));
    Counts used;
    core::WorkerId spawner = core::invalidWorker;
    std::atomic<core::WorkerId> ran_on{core::invalidWorker};
    onWorker(rt, [&] {
        spawner = Runtime::currentWorker();
        TaskGroup g(rt);
        const Counts before = runtime::sync::counts();
        g.run([&ran_on] {
            ran_on.store(Runtime::currentWorker(),
                         std::memory_order_release);
        });
        while (ran_on.load(std::memory_order_acquire)
               == core::invalidWorker)
            std::this_thread::yield();
        g.wait();
        used = runtime::sync::counts() - before;
    });
    ASSERT_NE(ran_on.load(), spawner);
    EXPECT_EQ(used.seqCstStores, 1u);
    EXPECT_EQ(used.cas, 1u);
    EXPECT_EQ(used.rmw, 1u);
    EXPECT_EQ(used.locks, 0u);
    EXPECT_EQ(used.lockedInstructions(), 3u);
}

TEST(SyncCount, InjectedTaskCostsNineLockedInstructions)
{
    // A spawn from outside the pool. Producer: the group's shared
    // count, the inject publish, the ring claim, and the fast-path
    // and injected counters. Worker: the ring claim, the inject
    // retract, the drain histogram, and the shared count's
    // decrement. The count is taken before wait(), whose lock
    // belongs to blocking, not to the task.
    Runtime rt(quietConfig(1));
    TaskGroup warm(rt);
    warm.run([] {}); // first inject from this thread picks its shard
    warm.wait();

    std::atomic<int> ran{0};
    TaskGroup g(rt);
    const Counts before = runtime::sync::counts();
    g.run([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    while (g.pending() != 0)
        std::this_thread::yield();
    const Counts used = runtime::sync::counts() - before;
    g.wait();
    EXPECT_EQ(ran.load(), 1);
    EXPECT_EQ(used.rmw, 7u);
    EXPECT_EQ(used.cas, 2u);
    EXPECT_EQ(used.seqCstStores, 0u);
    EXPECT_EQ(used.locks, 0u);
    EXPECT_EQ(used.lockedInstructions(), 9u);
}
