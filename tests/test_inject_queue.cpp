/**
 * @file
 * The lock-free sharded inject path: per-cell sequence wrap-around,
 * capacity-full spillover ordering, exactly-once delivery under a
 * multi-producer × multi-consumer torture loop, and the
 * Runtime::submit API.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/inject_queue.hpp"
#include "runtime/scheduler.hpp"

using namespace hermes;
using runtime::InjectPolicy;
using runtime::InjectQueue;
using runtime::InjectRing;
using runtime::Runtime;
using runtime::RuntimeConfig;
using runtime::Task;
using runtime::TaskGroup;

namespace {

/** A task whose body records `value` into `sink` when executed. */
Task
marker(std::vector<int> &sink, int value)
{
    return Task([&sink, value] { sink.push_back(value); }, nullptr);
}

/** Run a popped task and return the recorded value. */
int
valueOf(Task &t, std::vector<int> &sink)
{
    sink.clear();
    t.body();
    return sink.empty() ? -1 : sink.back();
}

} // namespace

TEST(InjectRing, FifoWithinOneLap)
{
    InjectRing ring(8);
    std::vector<int> sink;
    for (int i = 0; i < 8; ++i)
        ASSERT_TRUE(ring.tryPush(marker(sink, i)));
    Task out;
    for (int i = 0; i < 8; ++i) {
        ASSERT_TRUE(ring.tryPop(out));
        EXPECT_EQ(valueOf(out, sink), i);
    }
    EXPECT_FALSE(ring.tryPop(out));
}

TEST(InjectRing, SequenceNumbersSurviveManyWrapArounds)
{
    // A 4-slot ring cycled far past its capacity: each lap reuses
    // every cell, so a stale per-cell sequence (not advanced by
    // capacity on pop) would wedge the ring or reorder tasks.
    InjectRing ring(4);
    ASSERT_EQ(ring.capacity(), 4u);
    std::vector<int> sink;
    Task out;
    int next_push = 0, next_pop = 0;
    for (int round = 0; round < 1000; ++round) {
        // Vary occupancy so claims land on every cell phase.
        const int burst = 1 + round % 3;
        for (int i = 0; i < burst; ++i)
            ASSERT_TRUE(ring.tryPush(marker(sink, next_push++)));
        for (int i = 0; i < burst; ++i) {
            ASSERT_TRUE(ring.tryPop(out));
            ASSERT_EQ(valueOf(out, sink), next_pop++);
        }
    }
    EXPECT_FALSE(ring.tryPop(out));
}

TEST(InjectRing, FullRingRejectsAndLeavesTaskIntact)
{
    InjectRing ring(3); // rounds up to 4
    ASSERT_EQ(ring.capacity(), 4u);
    std::vector<int> sink;
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(ring.tryPush(marker(sink, i)));
    Task extra = marker(sink, 99);
    EXPECT_FALSE(ring.tryPush(std::move(extra)));
    // The rejected task must still be runnable — the queue spills it.
    ASSERT_TRUE(static_cast<bool>(extra));
    EXPECT_EQ(valueOf(extra, sink), 99);
    Task out;
    ASSERT_TRUE(ring.tryPop(out));
    EXPECT_EQ(valueOf(out, sink), 0);
    // The freed cell is immediately reusable.
    EXPECT_TRUE(ring.tryPush(marker(sink, 4)));
}

TEST(InjectQueue, DrainBackRestoresFifoUnderSustainedOverflow)
{
    // One shard of 4: pushes 0-3 take the ring, 4-11 spill. Every
    // pop that frees a ring slot pulls the oldest spilled task into
    // the ring, so delivery is *exact* FIFO across the ring/spill
    // boundary and — once the spill has drained back — served from
    // the ring, not the spill mutex.
    InjectPolicy policy;
    policy.shardCapacity = 4;
    InjectQueue q(policy, 1);
    ASSERT_EQ(q.numShards(), 1u);

    std::vector<int> sink;
    for (int i = 0; i < 12; ++i) {
        const auto path = q.push(marker(sink, i), 0);
        EXPECT_EQ(path,
                  i < 4 ? InjectQueue::PushPath::Ring
                        : InjectQueue::PushPath::Spill)
            << "task " << i;
    }
    EXPECT_EQ(q.spillSizeApprox(), 8u);

    Task out;
    for (int i = 0; i < 12; ++i) {
        const auto src = q.tryPop(out, 0);
        // Each pop frees one slot and the drain-back refills it from
        // the spill head, so no pop ever has to fall through to the
        // spill path.
        EXPECT_EQ(src, InjectQueue::PopSource::PreferredShard)
            << "pop " << i;
        EXPECT_EQ(valueOf(out, sink), i) << "pop " << i;
    }
    EXPECT_EQ(q.tryPop(out, 0), InjectQueue::PopSource::None);
    EXPECT_EQ(q.spillSizeApprox(), 0u);
    EXPECT_EQ(q.drainBacks(), 8u);
}

TEST(InjectQueue, DrainBackBatchIsBoundedPerPop)
{
    // Shard 0 overflows by 20 tasks while shard 1 holds one. Popping
    // that one leaves shard 1 with 16 free slots, so only the batch
    // bound limits the drain-back: exactly 8 spilled tasks move per
    // pop (a bounded spill-mutex hold), not all 20 at once.
    InjectPolicy policy;
    policy.shardCapacity = 16;
    InjectQueue q(policy, 2);

    std::vector<int> sink;
    for (int i = 0; i < 36; ++i)
        q.push(marker(sink, i), 0);
    ASSERT_EQ(q.push(marker(sink, 100), 1),
              InjectQueue::PushPath::Ring);
    ASSERT_EQ(q.spillSizeApprox(), 20u);

    Task out;
    ASSERT_EQ(q.tryPop(out, 1), InjectQueue::PopSource::PreferredShard);
    EXPECT_EQ(valueOf(out, sink), 100);
    EXPECT_EQ(q.drainBacks(), 8u);
    EXPECT_EQ(q.spillSizeApprox(), 12u);

    // The oldest spilled tasks moved, in order, into shard 1.
    std::vector<int> seen;
    for (int i = 16; i < 24; ++i) {
        ASSERT_EQ(q.tryPop(out, 1),
                  InjectQueue::PopSource::PreferredShard);
        seen.push_back(valueOf(out, sink));
        EXPECT_EQ(seen.back(), i);
    }

    // Every task is still delivered exactly once.
    while (q.tryPop(out, 0) != InjectQueue::PopSource::None)
        seen.push_back(valueOf(out, sink));
    std::sort(seen.begin(), seen.end());
    std::vector<int> expected(36);
    for (int i = 0; i < 36; ++i)
        expected[i] = i;
    EXPECT_EQ(seen, expected);
    EXPECT_EQ(q.spillSizeApprox(), 0u);
}

TEST(InjectQueue, ConsumerDrainsOwnDomainShardFirst)
{
    InjectPolicy policy;
    policy.shardCapacity = 16;
    InjectQueue q(policy, 2);
    ASSERT_EQ(q.numShards(), 2u);

    std::vector<int> sink;
    // Domain-0 producers push 0-3, domain-1 producers push 10-13.
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(q.push(marker(sink, i), 0),
                  InjectQueue::PushPath::Ring);
    for (int i = 10; i < 14; ++i)
        EXPECT_EQ(q.push(marker(sink, i), 1),
                  InjectQueue::PushPath::Ring);

    // A domain-1 consumer sees its own shard's tasks first…
    Task out;
    for (int i = 10; i < 14; ++i) {
        ASSERT_EQ(q.tryPop(out, 1),
                  InjectQueue::PopSource::PreferredShard);
        EXPECT_EQ(valueOf(out, sink), i);
    }
    // …then falls over to the other domain's shard.
    for (int i = 0; i < 4; ++i) {
        ASSERT_EQ(q.tryPop(out, 1), InjectQueue::PopSource::OtherShard);
        EXPECT_EQ(valueOf(out, sink), i);
    }
    EXPECT_EQ(q.tryPop(out, 1), InjectQueue::PopSource::None);
}

TEST(InjectQueueTorture, ExactlyOnceUnderProducersAndConsumers)
{
    // N producers × M consumers over a deliberately tiny ring so the
    // torture covers ring claims, wrap-around, and the spillover
    // path at once. Every task must be delivered exactly once.
    constexpr int kProducers = 4;
    constexpr int kConsumers = 4;
    constexpr int kPerProducer = 2000;
    constexpr int kTotal = kProducers * kPerProducer;

    InjectPolicy policy;
    policy.shardCapacity = 16;
    InjectQueue q(policy, 2);

    std::vector<std::atomic<int>> hits(kTotal);
    for (auto &h : hits)
        h.store(0);
    std::atomic<int> delivered{0};
    std::atomic<uint64_t> spills{0};

    std::vector<std::thread> threads;
    for (int p = 0; p < kProducers; ++p) {
        threads.emplace_back([&, p] {
            for (int k = 0; k < kPerProducer; ++k) {
                const int idx = p * kPerProducer + k;
                Task t([&hits, idx] {
                    hits[idx].fetch_add(1,
                                        std::memory_order_relaxed);
                }, nullptr);
                if (q.push(std::move(t),
                           static_cast<unsigned>(p))
                    == InjectQueue::PushPath::Spill)
                    spills.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }
    for (int c = 0; c < kConsumers; ++c) {
        threads.emplace_back([&, c] {
            Task out;
            while (delivered.load(std::memory_order_acquire)
                   < kTotal) {
                if (q.tryPop(out, static_cast<unsigned>(c))
                    != InjectQueue::PopSource::None) {
                    out.body();
                    delivered.fetch_add(1,
                                        std::memory_order_release);
                } else {
                    std::this_thread::yield();
                }
            }
        });
    }
    for (auto &t : threads)
        t.join();

    EXPECT_EQ(delivered.load(), kTotal);
    for (int i = 0; i < kTotal; ++i)
        ASSERT_EQ(hits[i].load(), 1) << "task " << i;
    // With 16-slot shards and 2000-task producers the ring must have
    // overflowed at least once — otherwise the spill path was not
    // actually exercised.
    EXPECT_GT(spills.load(), 0u);
    EXPECT_EQ(q.spillSizeApprox(), 0u);
}

namespace {

RuntimeConfig
config(unsigned workers)
{
    RuntimeConfig cfg;
    cfg.numWorkers = workers;
    return cfg;
}

} // namespace

TEST(Submit, ExternalThreadSubmissionRunsAndWaits)
{
    Runtime rt(config(4));
    std::atomic<bool> ran{false};
    auto handle = rt.submit([&] { ran.store(true); });
    ASSERT_TRUE(handle.valid());
    handle.wait();
    EXPECT_TRUE(ran.load());
    const auto s = rt.stats();
    EXPECT_GE(s.injected, 1u);
    // Every inject was routed through the lock-free path.
    EXPECT_EQ(s.injectFastPath + s.injectSpill, s.injected);
}

TEST(Submit, HandleWaitRethrowsTaskException)
{
    Runtime rt(config(2));
    auto handle = rt.submit(
        [] { throw std::runtime_error("inject boom"); });
    EXPECT_THROW(handle.wait(), std::runtime_error);
}

TEST(Submit, DroppedHandleDrainsBeforeDestruction)
{
    Runtime rt(config(2));
    std::atomic<bool> ran{false};
    {
        auto handle = rt.submit([&] {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(5));
            ran.store(true);
        });
        // handle goes out of scope without wait(): the release of
        // the last reference must drain the group rather than abort
        // on pending tasks.
    }
    EXPECT_TRUE(ran.load());
}

TEST(Submit, ReassignedHandleDrainsTheReplacedSubmission)
{
    // Overwriting the only handle to a still-pending submission is
    // a last-reference release too: the first task must complete
    // before the assignment returns, not leak a pending group.
    Runtime rt(config(2));
    std::atomic<bool> first{false};
    std::atomic<bool> second{false};
    auto handle = rt.submit([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        first.store(true);
    });
    handle = rt.submit([&] { second.store(true); });
    EXPECT_TRUE(first.load());
    handle.wait();
    EXPECT_TRUE(second.load());
}

TEST(Submit, WorkerThreadSubmissionUsesDeque)
{
    // submit() from inside a task runs on a worker: the task takes
    // the deque path, not the inject path.
    Runtime rt(config(2));
    const auto injected_before = rt.stats().injected;
    std::atomic<int> value{0};
    rt.run([&] {
        auto inner = rt.submit([&] { value.store(42); });
        inner.wait();
    });
    EXPECT_EQ(value.load(), 42);
    // Only the outer run() injected; the inner submit did not.
    EXPECT_EQ(rt.stats().injected, injected_before + 1);
}

TEST(InjectPath, BurstAccountsFastPathSpillAndDrain)
{
    // Force spillover with a tiny shard so all three outcome
    // counters move, then check they reconcile: every injected task
    // went ring or spill, and every one was drained exactly once
    // (the drain histogram sums to the injected count).
    auto cfg = config(4);
    cfg.inject.shardCapacity = 8;
    Runtime rt(cfg);

    constexpr int kTasks = 512;
    std::atomic<int> done{0};
    TaskGroup group(rt);
    for (int i = 0; i < kTasks; ++i) {
        group.run(
            [&] { done.fetch_add(1, std::memory_order_relaxed); });
    }
    group.wait();
    EXPECT_EQ(done.load(), kTasks);

    const auto s = rt.stats();
    EXPECT_EQ(s.injected, static_cast<uint64_t>(kTasks));
    EXPECT_EQ(s.injectFastPath + s.injectSpill, s.injected);
    EXPECT_GT(s.injectFastPath, 0u);
    uint64_t drained = 0;
    for (unsigned b = 0; b < runtime::RuntimeStats::kInjectDrainBuckets;
         ++b)
        drained += s.injectDrain[b];
    EXPECT_EQ(drained, s.injected);
    EXPECT_LE(s.injectShardHits, drained);
    EXPECT_EQ(s.injectFastFraction(),
              static_cast<double>(s.injectFastPath)
                  / static_cast<double>(kTasks));
}

TEST(InjectPath, SustainedOverflowDrainsBackAndAccountsEveryTask)
{
    // Sustained overflow of a tiny shard: the spill must engage, the
    // opportunistic drain-back must move spilled tasks back into the
    // ring (the FIFO-recovery ROADMAP item), and the existing drain
    // accounting must still reconcile — the injectDrain histogram
    // sums to the injected count and every task runs exactly once
    // regardless of which of the three storages (ring, spill,
    // drained-back ring slot) it traversed.
    auto cfg = config(2);
    cfg.inject.shardCapacity = 4;
    Runtime rt(cfg);

    constexpr int kProducers = 2;
    constexpr int kPerProducer = 1000;
    constexpr int kTotal = kProducers * kPerProducer;
    std::vector<std::atomic<int>> hits(kTotal);
    for (auto &h : hits)
        h.store(0);

    TaskGroup group(rt);
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&, p] {
            for (int k = 0; k < kPerProducer; ++k) {
                const int idx = p * kPerProducer + k;
                group.run([&hits, idx] {
                    hits[idx].fetch_add(1,
                                        std::memory_order_relaxed);
                });
            }
        });
    }
    for (auto &t : producers)
        t.join();
    group.wait();

    for (int i = 0; i < kTotal; ++i)
        ASSERT_EQ(hits[i].load(), 1) << "task " << i;
    const auto s = rt.stats();
    EXPECT_EQ(s.injected, static_cast<uint64_t>(kTotal));
    EXPECT_EQ(s.injectFastPath + s.injectSpill, s.injected);
    // A 4-slot shard under 2000 offered tasks must have spilled, and
    // ring pops with a non-empty spill must have drained some back.
    EXPECT_GT(s.injectSpill, 0u);
    EXPECT_GT(s.injectDrainBack, 0u);
    EXPECT_LE(s.injectDrainBack, s.injectSpill);
    // Ordering/accounting: every injected task was observed by
    // exactly one successful inject pop, drain-back moves included.
    uint64_t drained = 0;
    for (unsigned b = 0;
         b < runtime::RuntimeStats::kInjectDrainBuckets; ++b)
        drained += s.injectDrain[b];
    EXPECT_EQ(drained, s.injected);
}

TEST(InjectPath, MultiProducerSubmitTortureDeliversExactlyOnce)
{
    // External producer threads hammer submit()-style injection into
    // a small-shard runtime while the workers drain: the runtime
    // analogue of the raw queue torture, crossing the full
    // inject → popInjected → execute → TaskGroup path.
    auto cfg = config(4);
    cfg.inject.shardCapacity = 8;
    Runtime rt(cfg);

    constexpr int kProducers = 4;
    constexpr int kPerProducer = 500;
    constexpr int kTotal = kProducers * kPerProducer;
    std::vector<std::atomic<int>> hits(kTotal);
    for (auto &h : hits)
        h.store(0);

    TaskGroup group(rt);
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&, p] {
            for (int k = 0; k < kPerProducer; ++k) {
                const int idx = p * kPerProducer + k;
                group.run([&hits, idx] {
                    hits[idx].fetch_add(1,
                                        std::memory_order_relaxed);
                });
            }
        });
    }
    for (auto &t : producers)
        t.join();
    group.wait();

    for (int i = 0; i < kTotal; ++i)
        ASSERT_EQ(hits[i].load(), 1) << "task " << i;
    const auto s = rt.stats();
    EXPECT_EQ(s.injected, static_cast<uint64_t>(kTotal));
    EXPECT_EQ(s.injectFastPath + s.injectSpill, s.injected);
    // Every injected task was claimed by exactly one inject pop.
    uint64_t drained = 0;
    for (unsigned b = 0;
         b < runtime::RuntimeStats::kInjectDrainBuckets; ++b)
        drained += s.injectDrain[b];
    EXPECT_EQ(drained, s.injected);
}
