/**
 * @file
 * Micro-benchmarks of the split work-stealing deque
 * (Algorithms 2.2-2.4): owner push/pop throughput (the private part),
 * steal and bulk steal throughput (of a shared part stocked with
 * shareAll()), the mixed owner-vs-thief contention case, where the
 * share rule feeds the thieves, and many-thief drains.
 * `benchContended` reports the stolen count and the CAS-retry
 * counters.
 */

#include <atomic>
#include <thread>

#include <benchmark/benchmark.h>

#include "runtime/deque.hpp"

using hermes::runtime::Task;
using hermes::runtime::WsDeque;

namespace {

Task
noopTask()
{
    return Task([] {}, nullptr);
}

/** Owner-only throughput: the push/pop fast path. */
void
benchPushPop(benchmark::State &state)
{
    WsDeque deque(1 << 12);
    Task out;
    for (auto _ : state) {
        for (int i = 0; i < 64; ++i)
            benchmark::DoNotOptimize(deque.push(noopTask()).done);
        for (int i = 0; i < 64; ++i)
            benchmark::DoNotOptimize(deque.pop(out).done);
    }
    state.SetItemsProcessed(state.iterations() * 128);
}

/** Uncontended steal drain: one CAS per task. */
void
benchStealOnly(benchmark::State &state)
{
    WsDeque deque(1 << 12);
    size_t size_after = 0;
    Task out;
    for (auto _ : state) {
        state.PauseTiming();
        for (int i = 0; i < 64; ++i)
            deque.push(noopTask());
        deque.shareAll();
        state.ResumeTiming();
        for (int i = 0; i < 64; ++i)
            benchmark::DoNotOptimize(deque.steal(out, size_after));
    }
    state.SetItemsProcessed(state.iterations() * 64);
}

/** Bulk drain via stealHalf: the same 64 tasks leave in ~6 grabs
 * (ceil-half each) instead of 64 single claims. */
void
benchStealHalf(benchmark::State &state)
{
    WsDeque deque(1 << 12);
    size_t size_after = 0;
    std::vector<Task> batch;
    batch.reserve(64);
    for (auto _ : state) {
        state.PauseTiming();
        for (int i = 0; i < 64; ++i)
            deque.push(noopTask());
        deque.shareAll();
        batch.clear();
        state.ResumeTiming();
        while (deque.stealHalf(batch, size_after) > 0) {
        }
        benchmark::DoNotOptimize(batch.data());
    }
    state.SetItemsProcessed(state.iterations() * 64);
}

/**
 * Owner pushes and pops while `thieves` (arg 0) steal concurrently
 * what the share rule publishes: thieves collide only on the head
 * CAS, and the owner only on a reclaim's last task.
 * items_per_second counts tasks consumed by either side; `stolen`
 * isolates thief throughput, `steal_retries`/`pop_losses` show the
 * contention the CAS absorbed.
 */
void
benchContended(benchmark::State &state)
{
    const int thieves = static_cast<int>(state.range(0));
    WsDeque deque(1 << 14);
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> stolen{0};

    std::vector<std::thread> pool;
    pool.reserve(thieves);
    for (int t = 0; t < thieves; ++t) {
        pool.emplace_back([&] {
            Task out;
            size_t sz = 0;
            while (!stop.load(std::memory_order_acquire)) {
                if (deque.steal(out, sz))
                    stolen.fetch_add(1,
                                     std::memory_order_relaxed);
            }
        });
    }

    Task out;
    uint64_t popped = 0;
    for (auto _ : state) {
        for (int i = 0; i < 64; ++i)
            deque.push(noopTask());
        for (int i = 0; i < 64; ++i) {
            if (deque.pop(out))
                ++popped;
        }
    }
    stop.store(true, std::memory_order_release);
    for (auto &th : pool)
        th.join();

    state.SetItemsProcessed(
        static_cast<int64_t>(popped + stolen.load()));
    state.counters["stolen"] =
        static_cast<double>(stolen.load());
    state.counters["steal_retries"] =
        static_cast<double>(deque.stealCasRetries());
    state.counters["pop_losses"] =
        static_cast<double>(deque.popCasLosses());
}

/** Many thieves, no owner interference: pure steal scalability
 * (arg 0 = thieves, all draining in parallel). */
void
benchMultiThiefDrain(benchmark::State &state)
{
    const int thieves = static_cast<int>(state.range(0));
    WsDeque deque(1 << 14);
    constexpr int kBatch = 4096;

    uint64_t total = 0;
    for (auto _ : state) {
        state.PauseTiming();
        for (int i = 0; i < kBatch; ++i)
            deque.push(noopTask());
        deque.shareAll();
        std::atomic<uint64_t> drained{0};
        state.ResumeTiming();

        std::vector<std::thread> pool;
        pool.reserve(thieves);
        for (int t = 0; t < thieves; ++t) {
            pool.emplace_back([&] {
                Task out;
                size_t s = 0;
                // A false return is not proof of emptiness: a lost
                // head CAS on a non-empty deque also returns false,
                // and exiting on it would degenerate the run to one
                // thief. Drain until every task of the batch is
                // accounted for.
                while (drained.load(std::memory_order_relaxed)
                       < static_cast<uint64_t>(kBatch)) {
                    if (deque.steal(out, s))
                        drained.fetch_add(
                            1, std::memory_order_relaxed);
                }
            });
        }
        for (auto &th : pool)
            th.join();
        total += drained.load();
    }
    state.SetItemsProcessed(static_cast<int64_t>(total));
    state.counters["steal_retries"] =
        static_cast<double>(deque.stealCasRetries());
}

} // namespace

BENCHMARK(benchPushPop);
BENCHMARK(benchStealOnly);
BENCHMARK(benchStealHalf);
// Arg: thieves.
BENCHMARK(benchContended)->Arg(1)->Arg(2)->Arg(4);
BENCHMARK(benchMultiThiefDrain)->Arg(2)->Arg(4)->UseRealTime();

BENCHMARK_MAIN();
