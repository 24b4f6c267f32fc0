/**
 * @file
 * Micro-benchmarks of the external-submission (inject) path: the
 * lock-free sharded MPMC queue alone against a mutex-guarded deque
 * (the structure it replaced), and the full `Runtime::inject` entry
 * path end to end by producer count (docs/ARCHITECTURE.md, "The
 * inject path").
 */

#include <atomic>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include <benchmark/benchmark.h>

#include "runtime/inject_queue.hpp"
#include "runtime/scheduler.hpp"

using namespace hermes;

namespace {

/**
 * Raw queue throughput: P producer threads push empty tasks while
 * one drainer pops until every task is through — no runtime, no
 * workers, just the queue under producer contention.
 * Args: {producers, useLockFree}.
 */
void
benchRawInject(benchmark::State &state)
{
    const int producers = static_cast<int>(state.range(0));
    const bool lock_free = state.range(1) != 0;
    constexpr int kPerProducer = 4096;
    const int total = producers * kPerProducer;

    // Size each shard for the full offered burst: on an
    // oversubscribed host a producer can run a whole scheduler
    // quantum ahead of the drainer, and a ring smaller than the
    // burst would measure the spill mutex instead of the ring.
    runtime::InjectPolicy policy;
    policy.shardCapacity = kPerProducer;

    for (auto _ : state) {
        // The legacy side is the exact pre-replacement structure: a
        // mutex around a std::deque, every producer and the drainer
        // serializing on it.
        std::mutex legacy_mutex;
        std::deque<runtime::Task> legacy;
        runtime::InjectQueue queue(policy,
                                   static_cast<unsigned>(producers));

        std::atomic<int> drained{0};
        std::vector<std::thread> threads;
        for (int p = 0; p < producers; ++p) {
            threads.emplace_back([&, p] {
                for (int k = 0; k < kPerProducer; ++k) {
                    runtime::Task t([] {}, nullptr);
                    if (lock_free) {
                        queue.push(std::move(t),
                                   static_cast<unsigned>(p));
                    } else {
                        std::lock_guard<std::mutex> lock(
                            legacy_mutex);
                        legacy.push_back(std::move(t));
                    }
                }
            });
        }
        threads.emplace_back([&] {
            runtime::Task out;
            while (drained.load(std::memory_order_relaxed)
                   < total) {
                bool got = false;
                if (lock_free) {
                    got = queue.tryPop(out, 0)
                        != runtime::InjectQueue::PopSource::None;
                } else {
                    std::lock_guard<std::mutex> lock(legacy_mutex);
                    if (!legacy.empty()) {
                        out = std::move(legacy.front());
                        legacy.pop_front();
                        got = true;
                    }
                }
                if (got)
                    drained.fetch_add(1, std::memory_order_relaxed);
                else
                    std::this_thread::yield();
            }
        });
        for (auto &t : threads)
            t.join();
        benchmark::DoNotOptimize(drained.load());
    }
    state.SetItemsProcessed(state.iterations() * total);
}

/**
 * End-to-end submission throughput: P external producer threads
 * drive tasks through `TaskGroup::run` → `Runtime::inject` into a
 * worker pool that drains them — the full entry path including the
 * Dekker publish and wake notifications.
 * Args: {producers}.
 */
void
benchSubmitThroughput(benchmark::State &state)
{
    const int producers = static_cast<int>(state.range(0));
    constexpr int kPerProducer = 2048;

    runtime::RuntimeConfig cfg;
    cfg.numWorkers = 2;
    // Absorb a worst-case burst (every producer a full quantum ahead
    // of the workers, all landing in one shard on single-domain
    // hosts) without spilling; see benchRawInject.
    cfg.inject.shardCapacity =
        static_cast<size_t>(producers) * kPerProducer;
    runtime::Runtime rt(cfg);

    std::atomic<uint64_t> sink{0};
    for (auto _ : state) {
        runtime::TaskGroup group(rt);
        std::vector<std::thread> threads;
        for (int p = 0; p < producers; ++p) {
            threads.emplace_back([&] {
                for (int k = 0; k < kPerProducer; ++k) {
                    group.run([&] {
                        sink.fetch_add(1,
                                       std::memory_order_relaxed);
                    });
                }
            });
        }
        for (auto &t : threads)
            t.join();
        group.wait();
    }
    benchmark::DoNotOptimize(sink.load());

    const auto s = rt.stats();
    state.counters["inject_fast_frac"] =
        benchmark::Counter(s.injectFastFraction());
    state.counters["inject_spill"] = benchmark::Counter(
        static_cast<double>(s.injectSpill));
    state.SetItemsProcessed(state.iterations() * producers
                            * kPerProducer);
}

} // namespace

// benchRawInject Args: {producers, useLockFree}, an A/B pair per
// producer count; benchSubmitThroughput Args: {producers}.
// UseRealTime: producer threads block and join outside the calling
// thread's CPU time.
BENCHMARK(benchRawInject)
    ->Args({1, 0})->Args({1, 1})
    ->Args({2, 0})->Args({2, 1})
    ->Args({4, 0})->Args({4, 1})
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(benchSubmitThroughput)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

BENCHMARK_MAIN();
