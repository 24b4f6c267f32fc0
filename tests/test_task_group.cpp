/** @file Unit tests for TaskGroup spawn/sync semantics. */

#include <atomic>
#include <chrono>
#include <deque>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/parallel.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/task_group.hpp"

using namespace hermes;
using runtime::Runtime;
using runtime::RuntimeConfig;
using runtime::TaskGroup;

namespace {

Runtime &
sharedRuntime()
{
    static Runtime rt([] {
        RuntimeConfig cfg;
        cfg.numWorkers = 4;
        return cfg;
    }());
    return rt;
}

} // namespace

TEST(TaskGroup, ExternalThreadSpawnAndWait)
{
    auto &rt = sharedRuntime();
    std::atomic<int> n{0};
    TaskGroup g(rt);
    for (int i = 0; i < 100; ++i)
        g.run([&] { n.fetch_add(1); });
    g.wait();
    EXPECT_EQ(n.load(), 100);
    EXPECT_EQ(g.pending(), 0);
}

TEST(TaskGroup, ReusableAfterWait)
{
    auto &rt = sharedRuntime();
    std::atomic<int> n{0};
    TaskGroup g(rt);
    g.run([&] { n.fetch_add(1); });
    g.wait();
    g.run([&] { n.fetch_add(1); });
    g.wait();
    EXPECT_EQ(n.load(), 2);
}

TEST(TaskGroup, WaitWithNothingSpawnedReturnsImmediately)
{
    auto &rt = sharedRuntime();
    TaskGroup g(rt);
    g.wait();
    SUCCEED();
}

TEST(TaskGroup, PendingVisibleDuringExecution)
{
    auto &rt = sharedRuntime();
    std::atomic<bool> release{false};
    TaskGroup g(rt);
    g.run([&] {
        while (!release.load(std::memory_order_acquire)) {
        }
    });
    EXPECT_GE(g.pending(), 1);
    release.store(true, std::memory_order_release);
    g.wait();
    EXPECT_EQ(g.pending(), 0);
}

TEST(TaskGroup, FirstExceptionWinsAndClears)
{
    auto &rt = sharedRuntime();
    TaskGroup g(rt);
    for (int i = 0; i < 4; ++i)
        g.run([] { throw std::runtime_error("boom"); });
    EXPECT_THROW(g.wait(), std::runtime_error);
    // Error is consumed; the group can be reused cleanly.
    g.run([] {});
    g.wait();
    SUCCEED();
}

TEST(TaskGroup, WorkerWaitHelpsExecuteOtherTasks)
{
    auto &rt = sharedRuntime();
    std::atomic<int> n{0};
    rt.run([&] {
        TaskGroup g(rt);
        for (int i = 0; i < 200; ++i)
            g.run([&] { n.fetch_add(1); });
        // wait() on a worker thread must schedule, not block.
        g.wait();
    });
    EXPECT_EQ(n.load(), 200);
}

TEST(SubmitHandle, WaitRethrowsOnceThenIsClean)
{
    auto &rt = sharedRuntime();
    runtime::SubmitHandle handle =
        rt.submit([] { throw std::runtime_error("boom"); });
    EXPECT_THROW(handle.wait(), std::runtime_error);
    // The error is consumed by the first rethrow: wait() stays
    // idempotent and later waits see a clean group.
    handle.wait();
    SUCCEED();
}

TEST(SubmitHandle, ConcurrentWaitersSeeExactlyOneException)
{
    auto &rt = sharedRuntime();
    runtime::SubmitHandle handle =
        rt.submit([] { throw std::runtime_error("boom"); });
    std::atomic<int> rethrown{0};
    std::vector<std::thread> waiters;
    for (int i = 0; i < 4; ++i) {
        waiters.emplace_back([handle, &rethrown]() mutable {
            try {
                handle.wait();
            } catch (const std::runtime_error &) {
                rethrown.fetch_add(1);
            }
        });
    }
    for (std::thread &t : waiters)
        t.join();
    // The error swap under the group mutex hands the exception to
    // exactly one waiter; the rest return clean.
    EXPECT_EQ(rethrown.load(), 1);
}

TEST(SubmitHandle, DroppingAfterExceptionCountsInsteadOfCrashing)
{
    auto &rt = sharedRuntime();
    const uint64_t before = rt.stats().droppedHandleErrors;
    {
        runtime::SubmitHandle handle =
            rt.submit([] { throw std::runtime_error("boom"); });
        // Dropped without wait(): the release drain must swallow
        // the recorded exception (a deleter cannot throw)...
    }
    // ...but not silently — the swallow is counted, so a harness
    // that sheds handles can still assert nothing failed.
    EXPECT_EQ(rt.stats().droppedHandleErrors, before + 1);

    // A waited handle consumes its error and adds nothing.
    runtime::SubmitHandle waited =
        rt.submit([] { throw std::runtime_error("boom"); });
    EXPECT_THROW(waited.wait(), std::runtime_error);
    waited = runtime::SubmitHandle();
    EXPECT_EQ(rt.stats().droppedHandleErrors, before + 1);
}

// Completion races. Each loop frees (or reuses) its group the instant
// wait() returns, so a finish() that touched the group after the
// decrement that released its waiter is a use-after-free (caught by
// ASan/TSan, and by heap corruption without them) or a stale waiter
// bit (caught by ~TaskGroup's assertion). 10k iterations on the
// shared 4-worker runtime make each interleaving common.

namespace {

constexpr int kRaceIterations = 10000;

} // namespace

TEST(TaskGroupRace, WorkerWaitOnStolenChildThenDelete)
{
    auto &rt = sharedRuntime();
    int stolen = 0;
    rt.run([&] {
        const auto self = Runtime::currentWorker();
        for (int i = 0; i < kRaceIterations; ++i) {
            auto *group = new TaskGroup(rt);
            std::atomic<core::WorkerId> ran_on{core::invalidWorker};
            group->run([&ran_on] {
                ran_on.store(Runtime::currentWorker(),
                             std::memory_order_release);
            });
            // Hold off helping for up to 1 ms so a woken thief takes
            // the child: the thief's finish() is then the decrement
            // this worker's wait() races against.
            const auto give_up = std::chrono::steady_clock::now()
                + std::chrono::milliseconds(1);
            while (ran_on.load(std::memory_order_acquire)
                       == core::invalidWorker
                   && std::chrono::steady_clock::now() < give_up) {
            }
            group->wait();
            delete group;
            if (ran_on.load(std::memory_order_relaxed) != self)
                ++stolen;
        }
    });
    EXPECT_GT(stolen, kRaceIterations / 10)
        << "too few children were stolen to exercise the race";
}

TEST(TaskGroupRace, ExternalWaitThenDelete)
{
    auto &rt = sharedRuntime();
    std::atomic<int> ran{0};
    for (int i = 0; i < kRaceIterations; ++i) {
        auto *group = new TaskGroup(rt);
        group->run([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
        group->wait();
        delete group;
    }
    EXPECT_EQ(ran.load(), kRaceIterations);
}

TEST(TaskGroupRace, SubmitHandleWaitedByExternalThreadAndWorker)
{
    auto &rt = sharedRuntime();
    std::atomic<int> ran{0};
    for (int i = 0; i < kRaceIterations; ++i) {
        runtime::SubmitHandle target = rt.submit(
            [&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
        // A worker waits on the same handle (helping) while this
        // thread blocks on it; either side may drop the last copy.
        runtime::SubmitHandle helper =
            rt.submit([target]() mutable { target.wait(); });
        target.wait();
        helper.wait();
    }
    EXPECT_EQ(ran.load(), kRaceIterations);
}

TEST(TaskGroupRace, ReusableAfterExternalWait)
{
    auto &rt = sharedRuntime();
    std::atomic<int> ran{0};
    auto body = [&ran] { ran.fetch_add(1, std::memory_order_relaxed); };
    for (int i = 0; i < kRaceIterations; ++i) {
        auto *group = new TaskGroup(rt);
        group->run(body);
        group->wait();
        ASSERT_EQ(group->pending(), 0);
        // Reuse: a waiter bit left behind by the first wait would
        // make this round's finish() lock a group nobody waits on.
        group->run(body);
        group->wait();
        ASSERT_EQ(group->pending(), 0);
        // ~TaskGroup asserts the whole word is zero — count and
        // waiter bit alike.
        delete group;
    }
    EXPECT_EQ(ran.load(), 2 * kRaceIterations);
}

// Owner-counted children (task_group.hpp). A spawn by the group's
// owner worker goes to its owner count O, every other spawn to the
// shared count P, and an owner-counted child that another worker
// runs completes through the remote count R. These cover each way a
// task crosses between the three counts.

namespace {

RuntimeConfig
workers(unsigned n)
{
    RuntimeConfig cfg;
    cfg.numWorkers = n;
    return cfg;
}

/** Spin for about `us` microseconds: long enough for a thief. */
void
spinFor(int us)
{
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::microseconds(us);
    while (std::chrono::steady_clock::now() < until) {
    }
}

/**
 * The benchmark's pattern: TaskGroups built on this thread, off the
 * workers, then used as each worker's stack of sync scopes. A
 * worker's first spawn into a group claims it for good.
 */
class WorkerGroupStacks
{
  public:
    explicit WorkerGroupStacks(Runtime &rt) : rt_(rt)
    {
        for (unsigned w = 0; w < rt.numWorkers(); ++w) {
            stacks_.emplace_back();
            for (int i = 0; i < 32; ++i)
                stacks_.back().groups.emplace_back(rt);
        }
    }

    /** Sum of `lo..hi-1`, split in binary TaskGroup halves. */
    long
    sum(long lo, long hi)
    {
        if (hi - lo == 1)
            return lo;
        Stack &stack = stacks_[Runtime::currentWorker()];
        // Helping in wait() nests other subtrees on this stack.
        if (stack.depth == stack.groups.size())
            stack.groups.emplace_back(rt_);
        TaskGroup &g = stack.groups[stack.depth++];
        const long mid = lo + (hi - lo) / 2;
        long right = 0;
        g.run([this, &right, mid, hi] { right = sum(mid, hi); });
        const long left = sum(lo, mid);
        g.wait();
        --stack.depth;
        return left + right;
    }

  private:
    struct Stack
    {
        std::deque<TaskGroup> groups;
        size_t depth = 0;
    };

    Runtime &rt_;
    std::deque<Stack> stacks_;
};

} // namespace

TEST(TaskGroupOwner, GroupsBuiltOffTheWorkersAreClaimedAndReused)
{
    auto &rt = sharedRuntime();
    WorkerGroupStacks stacks(rt);
    constexpr long kLeaves = 1 << 12;
    for (int round = 0; round < 50; ++round) {
        long total = 0;
        rt.run([&] { total = stacks.sum(0, kLeaves); });
        ASSERT_EQ(total, kLeaves * (kLeaves - 1) / 2) << "round " << round;
    }
    // Destroying the stacks asserts every group is quiescent.
}

TEST(TaskGroupOwner, SeveralWorkersSpawnIntoOneGroup)
{
    // parallelFor's shape: the calling worker owns the group, and
    // every stolen range spawns into it from another worker (P).
    auto &rt = sharedRuntime();
    constexpr size_t kItems = 256;
    for (int iter = 0; iter < 200; ++iter) {
        std::vector<std::atomic<int>> hits(kItems);
        rt.run([&] {
            runtime::parallelFor(rt, 0, kItems, 1, [&](size_t i) {
                spinFor(1);
                hits[i].fetch_add(1, std::memory_order_relaxed);
            });
        });
        for (size_t i = 0; i < kItems; ++i)
            ASSERT_EQ(hits[i].load(), 1) << "index " << i;
    }
}

TEST(TaskGroupRace, ExternalWaitOnWorkerOwnedGroupThenDelete)
{
    // A worker claims the group and leaves its children queued; this
    // thread then waits (backing off until O - R is zero, then the
    // waiter-bit protocol on P) and frees the group at once.
    auto &rt = sharedRuntime();
    std::atomic<int> ran{0};
    for (int i = 0; i < kRaceIterations; ++i) {
        auto *group = new TaskGroup(rt);
        rt.submit([group, &ran] {
              for (int c = 0; c < 3; ++c)
                  group->run([&ran] {
                      ran.fetch_add(1, std::memory_order_relaxed);
                  });
          }).wait();
        group->wait();
        ASSERT_EQ(group->pending(), 0);
        delete group;
    }
    EXPECT_EQ(ran.load(), 3 * kRaceIterations);
}

TEST(TaskGroupRace, OwnerCountedChildrenStolenBackByTheOwner)
{
    // Two workers, so every steal is deterministic. The owner spawns
    // `first` and c0..c4 while the other worker, the thief, is held
    // by the gate task, and while `stock`, spawned after the thief
    // took the gate, keeps the owner's shared part non-empty: the
    // six children stay private. Once the gate opens the thief takes
    // `stock`, which holds it until the owner's next spawn, c5, has
    // shared ceil(7/2) = 4 of the private tasks: first, c0, c1, c2.
    // The thief's grab of ceil(4/2) runs `first` and stocks its own
    // deque with c0. `first` holds the thief until every other child
    // has finished, so the owner, in wait(), pops c5..c3, reclaims c2
    // and c1, and must steal c0 back and complete it as its owner.
    constexpr int kOthers = 6; // c0..c5
    Runtime rt(workers(2));
    int stolen_back = 0;
    rt.run([&] {
        const auto self = Runtime::currentWorker();
        for (int i = 0; i < kRaceIterations; ++i) {
            const uint64_t steals_before = rt.workerStats(self).steals;
            TaskGroup gate(rt);
            auto *group = new TaskGroup(rt);
            std::atomic<bool> gate_held{false};
            std::atomic<bool> spawned{false};
            std::atomic<bool> stock_taken{false};
            std::atomic<bool> shared{false};
            std::atomic<bool> first_started{false};
            std::atomic<int> others_done{0};
            const auto other = [&others_done] {
                others_done.fetch_add(1, std::memory_order_release);
            };
            // The spins yield so that a runner with fewer CPUs than
            // workers still lets the other side in.
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
            group->run([&] {
                first_started.store(true, std::memory_order_release);
                while (others_done.load(std::memory_order_acquire)
                       < kOthers)
                    std::this_thread::yield();
            });
            for (int c = 0; c < kOthers - 1; ++c)
                group->run(other);
            spawned.store(true, std::memory_order_release);
            while (!stock_taken.load(std::memory_order_acquire))
                std::this_thread::yield();
            group->run(other);
            shared.store(true, std::memory_order_release);
            while (!first_started.load(std::memory_order_acquire))
                std::this_thread::yield();
            group->wait();
            ASSERT_EQ(group->pending(), 0);
            delete group;
            gate.wait();
            if (rt.workerStats(self).steals != steals_before)
                ++stolen_back;
        }
    });
    EXPECT_EQ(stolen_back, kRaceIterations)
        << "the owner did not steal its child back in every round";
}

TEST(TaskGroupOwner, ChildrenInlinedOnAFullRing)
{
    // A ring of 4 slots holds 3 tasks; the rest run inline on the
    // owner at spawn, including ones that throw.
    RuntimeConfig cfg = workers(2);
    cfg.dequeCapacity = 4;
    Runtime rt(cfg);
    std::atomic<int> ran{0};
    bool threw = false;
    rt.run([&] {
        TaskGroup g(rt);
        for (int c = 0; c < 100; ++c) {
            g.run([&ran, c] {
                ran.fetch_add(1, std::memory_order_relaxed);
                if (c == 50)
                    throw std::runtime_error("inline");
            });
        }
        try {
            g.wait();
        } catch (const std::runtime_error &) {
            threw = true;
        }
        EXPECT_EQ(g.pending(), 0);
    });
    EXPECT_EQ(ran.load(), 100);
    EXPECT_TRUE(threw);
    EXPECT_GT(rt.stats().inlined, 0u);
}

TEST(TaskGroupRace, ExceptionsFromOwnerCountedAndRemoteChildren)
{
    // Each round's two children throw: one usually on the owner, one
    // usually on a thief (the owner holds off helping for it). wait()
    // rethrows exactly one, and the group is clean for reuse.
    auto &rt = sharedRuntime();
    int remote = 0;
    rt.run([&] {
        const auto self = Runtime::currentWorker();
        TaskGroup g(rt);
        for (int i = 0; i < kRaceIterations; ++i) {
            std::atomic<core::WorkerId> ran_on{core::invalidWorker};
            g.run([&ran_on] {
                ran_on.store(Runtime::currentWorker(),
                             std::memory_order_release);
                throw std::runtime_error("first");
            });
            const auto give_up = std::chrono::steady_clock::now()
                + std::chrono::milliseconds(1);
            while (ran_on.load(std::memory_order_acquire)
                       == core::invalidWorker
                   && std::chrono::steady_clock::now() < give_up)
                std::this_thread::yield();
            g.run([] { throw std::runtime_error("second"); });
            EXPECT_THROW(g.wait(), std::runtime_error);
            if (ran_on.load(std::memory_order_relaxed) != self)
                ++remote;
            // Reuse: no error and no count left behind.
            g.run([] {});
            g.wait();
            ASSERT_EQ(g.pending(), 0);
        }
    });
    EXPECT_GT(remote, kRaceIterations / 10)
        << "too few children threw on a thief";
}

TEST(TaskGroupRace, OwnerReusesGroupAfterStolenChildren)
{
    // The owner's counts are never reset: after a wait in which
    // thieves completed children, O equals R, and the next round
    // counts on from there.
    auto &rt = sharedRuntime();
    std::atomic<int> ran{0};
    rt.run([&] {
        TaskGroup g(rt);
        for (int i = 0; i < kRaceIterations; ++i) {
            for (int c = 0; c < 2; ++c)
                g.run([&ran] {
                    spinFor(2);
                    ran.fetch_add(1, std::memory_order_relaxed);
                });
            g.wait();
            ASSERT_EQ(g.pending(), 0);
        }
    });
    EXPECT_EQ(ran.load(), 2 * kRaceIterations);
}
