/**
 * @file
 * Concurrency stress for the Chase-Lev deque: an owner
 * pushing/popping against multiple thieves — single-task steal() and
 * bulk stealHalf() mixed — must hand every task to exactly one
 * consumer, no losses, no duplicates. The races are the steal CAS
 * vs the owner's retract/last-task CAS, and the torn-copy-discard
 * rule of the slot words. The wrap-around torture uses a tiny ring
 * so the one-vacant-slot rule and the
 * overwrite-implies-CAS-failure argument (docs/STEALING.md) are
 * exercised thousands of laps deep. These suites are part of the
 * TSan/ASan CI matrix and the multicore-stress --repeat job.
 */

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/deque.hpp"
#include "util/rng.hpp"

using hermes::runtime::Task;
using hermes::runtime::WsDeque;

namespace {

struct StressParams
{
    int thieves;
    int items;
    uint64_t seed;
};

class DequeStress : public testing::TestWithParam<StressParams>
{};

} // namespace

TEST_P(DequeStress, EveryTaskConsumedExactlyOnce)
{
    const auto p = GetParam();
    WsDeque deque(1 << 12);
    std::vector<std::atomic<int>> consumed(
        static_cast<size_t>(p.items));
    for (auto &c : consumed)
        c.store(0);

    std::atomic<bool> done{false};
    std::atomic<long> stolen{0};

    std::vector<std::thread> thieves;
    thieves.reserve(p.thieves);
    for (int t = 0; t < p.thieves; ++t) {
        thieves.emplace_back([&] {
            Task out;
            size_t sz = 0;
            while (!done.load(std::memory_order_acquire)) {
                if (deque.steal(out, sz)) {
                    out.body();
                    stolen.fetch_add(1,
                                     std::memory_order_relaxed);
                }
            }
            // Final drain so nothing is stranded at shutdown.
            while (deque.steal(out, sz)) {
                out.body();
                stolen.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }

    // Owner: pushes every item, popping intermittently — including
    // long stretches where the deque holds one item, the contended
    // last-task case both protocols exist for.
    long popped = 0;
    {
        Task out;
        size_t sz = 0;
        for (int i = 0; i < p.items; ++i) {
            auto body = [i, &consumed] {
                consumed[static_cast<size_t>(i)].fetch_add(1);
            };
            while (!deque.push(Task(body, nullptr), sz)) {
                if (deque.pop(out, sz)) {
                    out.body();
                    ++popped;
                }
            }
            if ((i % 3) == 0 && deque.pop(out, sz)) {
                out.body();
                ++popped;
            }
        }
        while (deque.pop(out, sz)) {
            out.body();
            ++popped;
        }
    }
    done.store(true, std::memory_order_release);
    for (auto &t : thieves)
        t.join();

    for (int i = 0; i < p.items; ++i) {
        ASSERT_EQ(consumed[static_cast<size_t>(i)].load(), 1)
            << "task " << i << " consumed wrong number of times";
    }
    EXPECT_EQ(popped + stolen.load(), p.items);
}

INSTANTIATE_TEST_SUITE_P(
    Mixes, DequeStress,
    testing::Values(
        StressParams{1, 20000, 1},
        StressParams{2, 20000, 2},
        StressParams{4, 40000, 3},
        StressParams{8, 40000, 4}),
    [](const testing::TestParamInfo<StressParams> &info) {
        return std::to_string(info.param.thieves) + "Thieves";
    });

namespace {

struct BulkStressParams
{
    int singleThieves;
    int bulkThieves;
    int items;
};

class DequeBulkStress
    : public testing::TestWithParam<BulkStressParams>
{};

} // namespace

TEST_P(DequeBulkStress, MixedSingleAndBulkThievesLoseNothing)
{
    // Steal-half torture: bulk thieves grab ceil(n/2) at a time while
    // single thieves and the owner's push/pop loop race them. Every
    // task must be consumed exactly once — a lost task shows up as a
    // zero count, a duplicated one as a count above 1 (the
    // exactly-once claim of docs/STEALING.md; this is precisely what
    // the per-task claim CAS buys over a bulk head CAS).
    const auto p = GetParam();
    WsDeque deque(1 << 10); // small: wrap-around
    std::vector<std::atomic<int>> consumed(
        static_cast<size_t>(p.items));
    for (auto &c : consumed)
        c.store(0);

    std::atomic<bool> done{false};
    std::atomic<long> stolen{0};

    std::vector<std::thread> thieves;
    thieves.reserve(
        static_cast<size_t>(p.singleThieves + p.bulkThieves));
    for (int t = 0; t < p.singleThieves; ++t) {
        thieves.emplace_back([&] {
            Task out;
            size_t sz = 0;
            while (!done.load(std::memory_order_acquire)) {
                if (deque.steal(out, sz)) {
                    out.body();
                    stolen.fetch_add(1,
                                     std::memory_order_relaxed);
                }
            }
            while (deque.steal(out, sz)) {
                out.body();
                stolen.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }
    for (int t = 0; t < p.bulkThieves; ++t) {
        thieves.emplace_back([&] {
            std::vector<Task> batch;
            size_t sz = 0;
            const auto drain = [&] {
                for (auto &task : batch)
                    task.body();
                stolen.fetch_add(static_cast<long>(batch.size()),
                                 std::memory_order_relaxed);
                batch.clear();
            };
            while (!done.load(std::memory_order_acquire)) {
                if (deque.stealHalf(batch, sz) > 0)
                    drain();
            }
            while (deque.stealHalf(batch, sz) > 0)
                drain();
        });
    }

    // Owner: pushes every item, popping intermittently so the
    // tail-side race stays hot against the bulk grabs.
    long popped = 0;
    {
        Task out;
        size_t sz = 0;
        for (int i = 0; i < p.items; ++i) {
            auto body = [i, &consumed] {
                consumed[static_cast<size_t>(i)].fetch_add(1);
            };
            while (!deque.push(Task(body, nullptr), sz)) {
                if (deque.pop(out, sz)) {
                    out.body();
                    ++popped;
                }
            }
            if ((i % 5) == 0 && deque.pop(out, sz)) {
                out.body();
                ++popped;
            }
        }
        while (deque.pop(out, sz)) {
            out.body();
            ++popped;
        }
    }
    done.store(true, std::memory_order_release);
    for (auto &t : thieves)
        t.join();

    for (int i = 0; i < p.items; ++i) {
        ASSERT_EQ(consumed[static_cast<size_t>(i)].load(), 1)
            << "task " << i << " consumed wrong number of times";
    }
    EXPECT_EQ(popped + stolen.load(), p.items);
}

INSTANTIATE_TEST_SUITE_P(
    Mixes, DequeBulkStress,
    testing::Values(
        BulkStressParams{0, 1, 20000},
        BulkStressParams{0, 4, 40000},
        BulkStressParams{2, 2, 40000},
        BulkStressParams{4, 4, 60000}),
    [](const testing::TestParamInfo<BulkStressParams> &info) {
        return std::to_string(info.param.singleThieves) + "Single"
            + std::to_string(info.param.bulkThieves) + "Bulk";
    });

TEST(DequeWrapTorture, TinyRingManyLapsMixedOps)
{
    // The dedicated wrap-around torture: a 64-slot ring cycled
    // thousands of laps
    // while 4 thieves mix single steals and bulk grabs against the
    // owner's push/pop loop. Index wrap-around means every physical
    // slot is reused constantly, so a thief's pre-CAS slot copy
    // regularly races the owner's overwrite — the
    // torn-copy-must-lose-its-CAS rule (docs/STEALING.md) is load-
    // bearing here, and TSan sees the relaxed word traffic directly.
    constexpr int kItems = 60000;
    constexpr int kThieves = 4;
    WsDeque deque(64);
    std::vector<std::atomic<int>> consumed(kItems);
    for (auto &c : consumed)
        c.store(0);

    std::atomic<bool> done{false};
    std::atomic<long> stolen{0};

    std::vector<std::thread> thieves;
    thieves.reserve(kThieves);
    for (int t = 0; t < kThieves; ++t) {
        thieves.emplace_back([&, t] {
            hermes::util::Rng rng(
                hermes::util::mix64(0x7edbeef5u, t));
            Task out;
            std::vector<Task> batch;
            size_t sz = 0;
            const auto grabOnce = [&] {
                // Mixed flavors, biased toward bulk grabs so both
                // claim paths stay hot on every lap.
                if (rng.uniformInt(0, 2) == 0) {
                    if (deque.steal(out, sz)) {
                        out.body();
                        stolen.fetch_add(
                            1, std::memory_order_relaxed);
                    }
                } else if (deque.stealHalf(batch, sz) > 0) {
                    for (auto &task : batch)
                        task.body();
                    stolen.fetch_add(
                        static_cast<long>(batch.size()),
                        std::memory_order_relaxed);
                    batch.clear();
                }
            };
            while (!done.load(std::memory_order_acquire))
                grabOnce();
            // Final drain so nothing is stranded at shutdown.
            Task last;
            while (deque.steal(last, sz)) {
                last.body();
                stolen.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }

    long popped = 0;
    {
        Task out;
        size_t sz = 0;
        for (int i = 0; i < kItems; ++i) {
            auto body = [i, &consumed] {
                consumed[static_cast<size_t>(i)].fetch_add(1);
            };
            // The 64-slot ring fills after a few pushes, so the
            // owner alternates hard between push, inline pop, and
            // the thieves' drain — thousands of full index laps.
            while (!deque.push(Task(body, nullptr), sz)) {
                if (deque.pop(out, sz)) {
                    out.body();
                    ++popped;
                }
            }
            if ((i & 7) == 0 && deque.pop(out, sz)) {
                out.body();
                ++popped;
            }
        }
        while (deque.pop(out, sz)) {
            out.body();
            ++popped;
        }
    }
    done.store(true, std::memory_order_release);
    for (auto &t : thieves)
        t.join();

    for (int i = 0; i < kItems; ++i) {
        ASSERT_EQ(consumed[static_cast<size_t>(i)].load(), 1)
            << "task " << i << " consumed wrong number of times";
    }
    EXPECT_EQ(popped + stolen.load(), kItems);
}

TEST(DequeContention, SingleItemTugOfWar)
{
    // One item at a time, owner and thief racing for it — the
    // last-task CAS arbitration (Chase-Lev) on its hottest path.
    WsDeque deque(8);
    std::atomic<long> total{0};
    std::atomic<bool> done{false};

    std::thread thief([&] {
        Task out;
        size_t sz = 0;
        while (!done.load(std::memory_order_acquire)) {
            if (deque.steal(out, sz))
                out.body();
        }
    });

    constexpr int rounds = 50000;
    Task out;
    size_t sz = 0;
    for (int i = 0; i < rounds; ++i) {
        while (!deque.push(
            Task([&total] { total.fetch_add(1); }, nullptr), sz)) {
        }
        if (deque.pop(out, sz))
            out.body();
    }
    done.store(true, std::memory_order_release);
    thief.join();
    Task leftover;
    while (deque.steal(leftover, sz))
        leftover.body();

    EXPECT_EQ(total.load(), rounds);
}
