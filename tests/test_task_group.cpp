/** @file Unit tests for TaskGroup spawn/sync semantics. */

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

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
    const uint64_t before = rt.droppedHandleErrors();
    {
        runtime::SubmitHandle handle =
            rt.submit([] { throw std::runtime_error("boom"); });
        // Dropped without wait(): the release drain must swallow
        // the recorded exception (a deleter cannot throw)...
    }
    // ...but not silently — the swallow is counted, so a harness
    // that sheds handles can still assert nothing failed.
    EXPECT_EQ(rt.droppedHandleErrors(), before + 1);
    EXPECT_EQ(rt.stats().droppedHandleErrors, before + 1);

    // A waited handle consumes its error and adds nothing.
    runtime::SubmitHandle waited =
        rt.submit([] { throw std::runtime_error("boom"); });
    EXPECT_THROW(waited.wait(), std::runtime_error);
    waited = runtime::SubmitHandle();
    EXPECT_EQ(rt.droppedHandleErrors(), before + 1);
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
