/**
 * @file
 * Micro-benchmarks of the threaded work-stealing runtime: spawn/sync
 * overhead (fib), parallel-for scaling, a real workload (radix sort)
 * under baseline vs unified tempo policies — the scheduler-overhead
 * side of the paper's Section 3.4 discussion — and a fork-join burst
 * that surfaces the stealing-policy counters (tasks_per_steal,
 * bulk/local fractions, wake split; docs/STEALING.md).
 */

#include <chrono>

#include <benchmark/benchmark.h>

#include "runtime/parallel.hpp"
#include "runtime/scheduler.hpp"
#include "workloads/registry.hpp"

using namespace hermes;

namespace {

long
fib(runtime::Runtime &rt, long n)
{
    if (n < 2)
        return n;
    if (n < 14)
        return fib(rt, n - 1) + fib(rt, n - 2);
    long a = 0, b = 0;
    runtime::parallelInvoke(rt, [&] { a = fib(rt, n - 1); },
                            [&] { b = fib(rt, n - 2); });
    return a + b;
}

runtime::RuntimeConfig
configFor(bool tempo, unsigned workers)
{
    runtime::RuntimeConfig cfg;
    cfg.numWorkers = workers;
    cfg.enableTempo = tempo;
    cfg.tempo.policy = core::TempoPolicy::Unified;
    return cfg;
}

/** Attach park/wake behavior of the run to the benchmark output:
 * parked-time fraction of total worker-time plus wake totals. */
void
reportParking(benchmark::State &state, const runtime::Runtime &rt,
              const runtime::RuntimeStats &before, double seconds)
{
    const auto after = rt.stats();
    const double worker_ns =
        seconds * static_cast<double>(rt.numWorkers()) * 1e9;
    state.counters["parked_frac"] = benchmark::Counter(
        worker_ns > 0.0
            ? static_cast<double>(after.parkedNanos
                                  - before.parkedNanos)
                / worker_ns
            : 0.0);
    state.counters["wakes"] = benchmark::Counter(
        static_cast<double>(after.wakes - before.wakes));
    state.counters["spurious"] = benchmark::Counter(
        static_cast<double>(after.spuriousWakes
                            - before.spuriousWakes));
}

/** Attach the stealing-policy outcome of the run: mean tasks landed
 * per steal, the bulk and same-domain hit fractions, and the wake
 * split (docs/STEALING.md). */
void
reportStealing(benchmark::State &state, const runtime::Runtime &rt,
               const runtime::RuntimeStats &before)
{
    const auto after = rt.stats();
    const double steals =
        static_cast<double>(after.steals - before.steals);
    state.counters["tasks_per_steal"] = benchmark::Counter(
        steals > 0.0 ? static_cast<double>(after.stolenTasks
                                           - before.stolenTasks)
                / steals
                     : 0.0);
    state.counters["bulk_frac"] = benchmark::Counter(
        steals > 0.0 ? static_cast<double>(after.bulkSteals
                                           - before.bulkSteals)
                / steals
                     : 0.0);
    state.counters["local_frac"] = benchmark::Counter(
        steals > 0.0 ? static_cast<double>(after.localHits
                                           - before.localHits)
                / steals
                     : 0.0);
    state.counters["local_wakes"] = benchmark::Counter(
        static_cast<double>(after.localWakes - before.localWakes));
    state.counters["remote_wakes"] = benchmark::Counter(
        static_cast<double>(after.remoteWakes - before.remoteWakes));
    // Share of external submissions that took the lock-free inject
    // fast path (docs/ARCHITECTURE.md, "The inject path"); root
    // tasks are the only injects here, so expect 1.0 unless
    // shardCapacity is tiny.
    const double routed =
        static_cast<double>(after.injectFastPath
                            - before.injectFastPath)
        + static_cast<double>(after.injectSpill
                              - before.injectSpill);
    state.counters["inject_fast_frac"] = benchmark::Counter(
        routed > 0.0 ? static_cast<double>(after.injectFastPath
                                           - before.injectFastPath)
                / routed
                     : 0.0);
    // Deque contention absorbed by the lock-free protocol: failed
    // steal claims and owner last-task losses (docs/STEALING.md).
    state.counters["steal_cas_retries"] = benchmark::Counter(
        static_cast<double>(after.stealCasRetries
                            - before.stealCasRetries));
    state.counters["pop_cas_losses"] = benchmark::Counter(
        static_cast<double>(after.popCasLosses
                            - before.popCasLosses));
}

void
benchFib(benchmark::State &state)
{
    runtime::Runtime rt(
        configFor(state.range(1) != 0,
                  static_cast<unsigned>(state.range(0))));
    const auto before = rt.stats();
    const auto t0 = std::chrono::steady_clock::now();
    for (auto _ : state) {
        long result = 0;
        rt.run([&] { result = fib(rt, 26); });
        benchmark::DoNotOptimize(result);
    }
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    reportParking(state, rt, before, dt.count());
}

void
benchParallelFor(benchmark::State &state)
{
    runtime::Runtime rt(
        configFor(state.range(1) != 0,
                  static_cast<unsigned>(state.range(0))));
    std::vector<double> data(1 << 18, 1.0);
    const auto before = rt.stats();
    const auto t0 = std::chrono::steady_clock::now();
    for (auto _ : state) {
        rt.run([&] {
            runtime::parallelFor(rt, 0, data.size(), 1024,
                                 [&](size_t i) {
                                     data[i] = data[i] * 1.0001
                                         + 0.5;
                                 });
        });
        benchmark::DoNotOptimize(data.data());
    }
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    reportParking(state, rt, before, dt.count());
    state.SetItemsProcessed(state.iterations()
                            * static_cast<int64_t>(data.size()));
}

/**
 * Fork-join burst: repeated rounds of a recursively split
 * parallel-for over tiny spinning tasks. Each round stocks every
 * deque with several tasks at once, which is exactly the shape
 * steal-half amortizes: tasks_per_steal rises above 1.
 * Arg: {workers}.
 */
void
benchForkJoinBurst(benchmark::State &state)
{
    runtime::RuntimeConfig cfg;
    cfg.numWorkers = static_cast<unsigned>(state.range(0));
    runtime::Runtime rt(cfg);

    const auto before = rt.stats();
    const auto t0 = std::chrono::steady_clock::now();
    for (auto _ : state) {
        rt.run([&] {
            runtime::parallelFor(rt, 0, 512, 1, [&](size_t) {
                const auto until = std::chrono::steady_clock::now()
                    + std::chrono::microseconds(5);
                while (std::chrono::steady_clock::now() < until) {
                }
            });
        });
    }
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    reportParking(state, rt, before, dt.count());
    reportStealing(state, rt, before);
    const auto after = rt.stats();
    state.counters["failed_hunts"] = benchmark::Counter(
        static_cast<double>(after.failedSteals
                            - before.failedSteals));
    state.SetItemsProcessed(state.iterations() * 512);
}

void
benchRadixSort(benchmark::State &state)
{
    runtime::Runtime rt(
        configFor(state.range(1) != 0,
                  static_cast<unsigned>(state.range(0))));
    for (auto _ : state) {
        const uint64_t checksum = workloads::runWorkload(
            rt, "sort", 1 << 20, 42);
        benchmark::DoNotOptimize(checksum);
    }
    state.SetItemsProcessed(state.iterations() * (1 << 20));
}

} // namespace

// Args: {workers, tempo-enabled}. UseRealTime: the calling thread
// blocks on a condition variable while workers compute, so CPU-time
// calibration would run forever.
BENCHMARK(benchFib)->Args({4, 0})->Args({4, 1})->Args({8, 0})
    ->Args({8, 1})->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(benchParallelFor)->Args({4, 0})->Args({4, 1})
    ->Args({8, 0})->Args({8, 1})->Unit(benchmark::kMillisecond)
    ->UseRealTime();
// Arg: workers.
BENCHMARK(benchForkJoinBurst)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(benchRadixSort)->Args({8, 0})->Args({8, 1})
    ->Unit(benchmark::kMillisecond)->UseRealTime();

BENCHMARK_MAIN();
