/** @file Unit tests for the threaded work-stealing runtime. */

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include <sys/resource.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <gtest/gtest.h>

#include "runtime/parallel.hpp"
#include "runtime/scheduler.hpp"
#include "workloads/registry.hpp"

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

TEST(Runtime, SingleWorkerRunsToCompletion)
{
    Runtime rt(config(1));
    long result = 0;
    rt.run([&] { result = fib(rt, 20); });
    EXPECT_EQ(result, 6765);
}

TEST(Runtime, FibParallelCorrect)
{
    Runtime rt(config(8));
    long result = 0;
    rt.run([&] { result = fib(rt, 27); });
    EXPECT_EQ(result, 196418);
}

TEST(Runtime, ParallelForCoversRangeExactlyOnce)
{
    Runtime rt(config(8));
    constexpr size_t n = 100000;
    std::vector<std::atomic<int>> hits(n);
    for (auto &h : hits)
        h.store(0);
    rt.run([&] {
        runtime::parallelFor(rt, 0, n, 128, [&](size_t i) {
            hits[i].fetch_add(1, std::memory_order_relaxed);
        });
    });
    for (size_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(Runtime, ParallelForEmptyAndTinyRanges)
{
    Runtime rt(config(4));
    std::atomic<int> count{0};
    rt.run([&] {
        runtime::parallelFor(rt, 5, 5, 8,
                             [&](size_t) { count.fetch_add(1); });
        runtime::parallelFor(rt, 0, 1, 8,
                             [&](size_t) { count.fetch_add(1); });
    });
    EXPECT_EQ(count.load(), 1);
}

TEST(Runtime, ParallelReduceSum)
{
    Runtime rt(config(8));
    long total = 0;
    rt.run([&] {
        total = runtime::parallelReduce<long>(
            rt, 1, 100001, 256,
            [](size_t lo, size_t hi) {
                long s = 0;
                for (size_t i = lo; i < hi; ++i)
                    s += static_cast<long>(i);
                return s;
            },
            [](long a, long b) { return a + b; });
    });
    EXPECT_EQ(total, 100000L * 100001L / 2);
}

TEST(Runtime, ParallelInvokeThreeWay)
{
    Runtime rt(config(4));
    int a = 0, b = 0, c = 0;
    rt.run([&] {
        runtime::parallelInvoke(rt, [&] { a = 1; }, [&] { b = 2; },
                                [&] { c = 3; });
    });
    EXPECT_EQ(a + b + c, 6);
}

TEST(Runtime, NestedTaskGroups)
{
    Runtime rt(config(4));
    std::atomic<int> leaves{0};
    rt.run([&] {
        TaskGroup outer(rt);
        for (int i = 0; i < 8; ++i) {
            outer.run([&] {
                TaskGroup inner(rt);
                for (int j = 0; j < 8; ++j)
                    inner.run([&] { leaves.fetch_add(1); });
                inner.wait();
            });
        }
        outer.wait();
    });
    EXPECT_EQ(leaves.load(), 64);
}

TEST(Runtime, ExceptionPropagatesFromTask)
{
    Runtime rt(config(4));
    EXPECT_THROW(
        rt.run([&] { throw std::runtime_error("task failed"); }),
        std::runtime_error);
    // The runtime stays usable afterwards.
    long result = 0;
    rt.run([&] { result = fib(rt, 15); });
    EXPECT_EQ(result, 610);
}

TEST(Runtime, StatsAccountForAllTasks)
{
    Runtime rt(config(4));
    std::atomic<int> n{0};
    rt.run([&] {
        runtime::parallelFor(rt, 0, 5000, 16,
                             [&](size_t) { n.fetch_add(1); });
    });
    const auto s = rt.stats();
    EXPECT_EQ(n.load(), 5000);
    // Every executed task entered via pop, steal, inject or inline.
    EXPECT_EQ(s.executed,
              s.pops + s.steals + s.injected + s.inlined);
    EXPECT_GT(s.pushes, 0u);
}

namespace {

using runtime::RuntimeStats;

/** Every scalar RuntimeStats field, for field-by-field checks. */
constexpr std::pair<const char *, uint64_t RuntimeStats::*>
    kStatFields[] = {
        {"pushes", &RuntimeStats::pushes},
        {"pops", &RuntimeStats::pops},
        {"steals", &RuntimeStats::steals},
        {"failedSteals", &RuntimeStats::failedSteals},
        {"executed", &RuntimeStats::executed},
        {"inlined", &RuntimeStats::inlined},
        {"affinitySets", &RuntimeStats::affinitySets},
        {"injected", &RuntimeStats::injected},
        {"parks", &RuntimeStats::parks},
        {"wakes", &RuntimeStats::wakes},
        {"spuriousWakes", &RuntimeStats::spuriousWakes},
        {"parkedNanos", &RuntimeStats::parkedNanos},
        {"bulkSteals", &RuntimeStats::bulkSteals},
        {"stolenTasks", &RuntimeStats::stolenTasks},
        {"localHits", &RuntimeStats::localHits},
        {"remoteHits", &RuntimeStats::remoteHits},
        {"localWakes", &RuntimeStats::localWakes},
        {"remoteWakes", &RuntimeStats::remoteWakes},
        {"injectFastPath", &RuntimeStats::injectFastPath},
        {"injectSpill", &RuntimeStats::injectSpill},
        {"injectShardHits", &RuntimeStats::injectShardHits},
        {"injectDrainBack", &RuntimeStats::injectDrainBack},
        {"stealCasRetries", &RuntimeStats::stealCasRetries},
        {"popCasLosses", &RuntimeStats::popCasLosses},
        {"droppedHandleErrors", &RuntimeStats::droppedHandleErrors},
};

// A field added to RuntimeStats must join the table above.
static_assert(sizeof(RuntimeStats)
                  == sizeof(uint64_t)
                      * (std::size(kStatFields)
                         + RuntimeStats::kStealSizeBuckets
                         + RuntimeStats::kInjectDrainBuckets),
              "kStatFields is missing a RuntimeStats field");

/** Name of the first field of `later` below its value in `earlier`,
 * or an empty string when every field is monotone. */
std::string
firstDecrease(const RuntimeStats &earlier, const RuntimeStats &later)
{
    for (const auto &[name, field] : kStatFields) {
        if (later.*field < earlier.*field)
            return std::string(name) + " " + std::to_string(earlier.*field)
                + " -> " + std::to_string(later.*field);
    }
    for (unsigned b = 0; b < RuntimeStats::kStealSizeBuckets; ++b) {
        if (later.stealSize[b] < earlier.stealSize[b])
            return "stealSize[" + std::to_string(b) + "]";
    }
    for (unsigned b = 0; b < RuntimeStats::kInjectDrainBuckets; ++b) {
        if (later.injectDrain[b] < earlier.injectDrain[b])
            return "injectDrain[" + std::to_string(b) + "]";
    }
    return {};
}

} // namespace

TEST(Runtime, StatsStayMonotoneUnderConcurrentReads)
{
    // Single-writer counters are bumped with a plain load + store;
    // a reader on another thread must still never see one go back,
    // and parked time (credited up to the reader's clock while a
    // worker is blocked) must never shrink when the block ends.
    Runtime rt(config(4));
    std::atomic<bool> done{false};
    uint64_t reads = 0;
    std::string decrease;
    std::thread reader([&] {
        RuntimeStats prev = rt.stats();
        while (!done.load(std::memory_order_acquire)) {
            const RuntimeStats cur = rt.stats();
            decrease = firstDecrease(prev, cur);
            if (!decrease.empty())
                return;
            prev = cur;
            ++reads;
        }
    });
    for (int round = 0; round < 20; ++round) {
        long result = 0;
        rt.run([&] { result = fib(rt, 22); });
        ASSERT_EQ(result, 17711);
        // Let the pool park between rounds so the parked-time clock
        // crosses park and wake edges under the reader.
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    done.store(true, std::memory_order_release);
    reader.join();
    EXPECT_TRUE(decrease.empty()) << "decreased: " << decrease;
    EXPECT_GT(reads, 0u);

    // Quiescent: the owner-written counters reconcile exactly.
    const auto s = rt.stats();
    EXPECT_EQ(s.executed, s.pops + s.steals + s.injected + s.inlined);
    EXPECT_GT(s.parks, 0u);
    EXPECT_GT(s.parkedNanos, 0u);
}

TEST(Runtime, StealsHappenAcrossWorkers)
{
    Runtime rt(config(8));
    // A single short fib lasts only a few ms — on an oversubscribed
    // host the kernel may not schedule a single thief before the run
    // drains. Several multi-ms generations keep the pool warm:
    // thieves that joined late are already hunting when the next
    // root task arrives, so steals occur reliably even on one core.
    long result = 0;
    for (int rep = 0; rep < 3; ++rep) {
        result = 0;
        rt.run([&] { result = fib(rt, 30); });
        ASSERT_EQ(result, 832040);
    }
    EXPECT_GT(rt.stats().steals, 0u);
}

TEST(Runtime, StealParticipationUnderSustainedLoad)
{
    // Regression test for the idle-worker protocol: thieves used to
    // fall into a permanent 50 us sleep before the workload even
    // started and then probe a single victim per wake, so a pool of
    // workers executed ~everything on one worker with zero steals.
    constexpr unsigned kWorkers = 4;
    constexpr size_t kTasks = 2000;

    Runtime rt(config(kWorkers));
    std::atomic<size_t> done{0};
    rt.run([&] {
        runtime::parallelFor(rt, 0, kTasks, 1, [&](size_t) {
            // Spin ~20 us so the workload spans many scheduler
            // quanta and thieves have real time to participate.
            const auto until = std::chrono::steady_clock::now()
                + std::chrono::microseconds(20);
            while (std::chrono::steady_clock::now() < until) {
            }
            done.fetch_add(1, std::memory_order_relaxed);
        });
    });
    EXPECT_EQ(done.load(), kTasks);

    const auto total = rt.stats();
    EXPECT_GT(total.steals, 0u) << "no worker ever stole";

    uint64_t max_executed = 0;
    for (unsigned w = 0; w < kWorkers; ++w) {
        max_executed = std::max(
            max_executed, rt.workerStats(w).executed);
    }
    ASSERT_GT(total.executed, 0u);
    EXPECT_LE(static_cast<double>(max_executed),
              0.9 * static_cast<double>(total.executed))
        << "one worker executed " << max_executed << " of "
        << total.executed << " tasks";
}

TEST(Runtime, TinyDequeInlinesInsteadOfDeadlocking)
{
    auto cfg = config(2);
    cfg.dequeCapacity = 2;
    Runtime rt(cfg);
    std::atomic<int> n{0};
    rt.run([&] {
        runtime::parallelFor(rt, 0, 2000, 4,
                             [&](size_t) { n.fetch_add(1); });
    });
    EXPECT_EQ(n.load(), 2000);
    EXPECT_GT(rt.stats().inlined, 0u);
}

TEST(Runtime, TempoEnabledRunIsCorrectAndActive)
{
    Runtime rt(config(8, true));
    long result = 0;
    rt.run([&] { result = fib(rt, 26); });
    EXPECT_EQ(result, 121393);
    ASSERT_NE(rt.tempo(), nullptr);
    const auto k = rt.tempo()->counters();
    EXPECT_GT(k.outOfWorkEvents, 0u);
    // Ladder resolved to the host profile's default pair.
    EXPECT_EQ(rt.tempo()->ladder().size(), 2u);
}

TEST(Runtime, ThrottleModeStretchesSlowWorkers)
{
    auto cfg = config(4, true);
    cfg.throttle = runtime::ThrottleMode::PostTaskSpin;
    Runtime rt(cfg);
    long result = 0;
    rt.run([&] { result = fib(rt, 22); });
    EXPECT_EQ(result, 17711);
}

TEST(Runtime, CurrentIsNullOnExternalThread)
{
    Runtime rt(config(2));
    EXPECT_EQ(Runtime::current(), nullptr);
    EXPECT_EQ(Runtime::currentWorker(), core::invalidWorker);
    bool saw_worker_context = false;
    rt.run([&] {
        saw_worker_context = Runtime::current() == &rt
            && Runtime::currentWorker() != core::invalidWorker;
    });
    EXPECT_TRUE(saw_worker_context);
}

TEST(Runtime, PackagePowerIsPositiveAndBounded)
{
    Runtime rt(config(4, true));
    const energy::PowerModel model(rt.config().profile);
    const double p = rt.packagePower(model);
    EXPECT_GT(p, 0.0);
    const auto &profile = rt.config().profile;
    const double ceiling = model.uncorePower()
        + profile.topology.numCores()
            * model.coreActivePower(profile.ladder.fastest())
        + 1.0;
    EXPECT_LT(p, ceiling);

    // The same reads while the frequency words move: a reader thread
    // polls packagePower() and every domain's word while the
    // workload policy drives the registry kernels. The controller
    // stores the words without a lock, so every read must still be a
    // rung, and every power reading in range.
    auto cfg = config(3, true);
    cfg.tempo.policy = core::TempoPolicy::WorkloadOnly;
    Runtime busy(cfg);
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> reads{0};
    uint64_t off_ladder = 0, out_of_range = 0;
    std::thread reader([&] {
        while (!stop.load(std::memory_order_acquire)) {
            const double watts = busy.packagePower(model);
            if (!(watts > 0.0 && watts < ceiling))
                ++out_of_range;
            const auto &backend = busy.backend();
            for (platform::DomainId d = 0; d < backend.numDomains(); ++d) {
                if (!profile.ladder.contains(backend.domainFreq(d)))
                    ++off_ladder;
            }
            reads.fetch_add(1, std::memory_order_release);
            std::this_thread::yield();
        }
    });
    // The kernels start only once the reader is polling.
    while (reads.load(std::memory_order_acquire) == 0)
        std::this_thread::yield();
    for (const auto &name : workloads::workloadNames())
        EXPECT_NE(workloads::runWorkload(busy, name, 30000, 5), 0u)
            << name;
    stop.store(true, std::memory_order_release);
    reader.join();
    EXPECT_EQ(off_ladder, 0u);
    EXPECT_EQ(out_of_range, 0u);
    EXPECT_GT(busy.backend().transitionCount(), 0u);
}

namespace {

/** Minor page faults the process takes while building a 3-worker
 * Runtime whose deques and inject shards each hold `capacity` tasks.
 * Only the construction is counted: the destructor unmaps. */
long
constructionFaults(size_t capacity)
{
    auto cfg = config(3);
    cfg.dequeCapacity = capacity;
    cfg.inject.shardCapacity = capacity;
#if defined(__GLIBC__)
    // Return freed heap pages to the kernel first, so an allocator
    // reusing resident memory cannot hide writes the build makes.
    malloc_trim(0);
#endif
    rusage before{}, after{};
    getrusage(RUSAGE_SELF, &before);
    auto rt = std::make_unique<Runtime>(cfg);
    getrusage(RUSAGE_SELF, &after);
    return after.ru_minflt - before.ru_minflt;
}

} // namespace

TEST(Runtime, ConstructionCostDoesNotScaleWithRingCapacity)
{
    // The deque and inject rings sit on zero pages the kernel fills on
    // first touch, so building a Runtime writes none of their slots:
    // 64x the capacity must not cost more page faults. Rings that are
    // written at construction cost about 9,800 more pages here.
    const long small = constructionFaults(1 << 10);
    const long large = constructionFaults(1 << 16);
    EXPECT_LT(std::labs(large - small), 64)
        << "faults at capacity 2^10: " << small
        << ", at 2^16: " << large;
}

TEST(Runtime, SequentialRuntimesAreIndependent)
{
    for (int round = 0; round < 3; ++round) {
        Runtime rt(config(4));
        long result = 0;
        rt.run([&] { result = fib(rt, 20); });
        EXPECT_EQ(result, 6765);
    }
}
