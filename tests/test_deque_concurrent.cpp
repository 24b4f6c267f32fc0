/**
 * @file
 * Concurrency stress for the split deque: an owner pushing/popping
 * against multiple thieves — single-task steal() and bulk
 * stealHalf() mixed — must hand every task to exactly one consumer,
 * no losses, no duplicates. The owner's loop drives both moves
 * between the parts: the share rule publishes private tasks whenever
 * the thieves empty the shared part, a periodic shareAll() publishes
 * everything, and the pops right after it reclaim shared tasks. The races
 * are the steal CAS vs the owner's retract/last-task CAS, and the
 * torn-copy-discard rule of the slot words. Each suite also checks
 * that the thieves claimed tasks and that the owner shared: an
 * exactly-once check over tasks no thief could see would pass
 * vacuously. The wrap-around torture uses a tiny ring so the
 * one-vacant-slot rule and the overwrite-implies-CAS-failure argument
 * (docs/STEALING.md) are exercised thousands of laps deep. These
 * suites are part of the TSan/ASan CI matrix and the
 * multicore-stress --repeat job.
 */

#include <atomic>
#include <thread>
#include <utility>
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

/**
 * The owner's side of every stress test: push items 0..items-1 (each
 * body counts its own consumption), popping every `pop_every`-th
 * iteration and on a full ring; every 64 items publish everything
 * and pop twice, which reclaims from the shared part; finally
 * publish everything and drain by reclaims. Waits for `thieves` to
 * report ready first, and for them to drain the first 64 items'
 * shared part.
 * @return {tasks popped, owner operations that published}
 */
std::pair<long, long>
runOwner(WsDeque &deque, std::vector<std::atomic<int>> &consumed,
         int items, int pop_every, std::atomic<int> &ready,
         int thieves)
{
    while (ready.load(std::memory_order_acquire) < thieves)
        std::this_thread::yield();
    long popped = 0;
    long shares = 0;
    Task out;
    const auto pop = [&] {
        const auto r = deque.pop(out);
        if (!r)
            return false;
        shares += r.published;
        out.body();
        ++popped;
        return true;
    };
    for (int i = 0; i < items; ++i) {
        auto body = [i, &consumed] {
            consumed[static_cast<size_t>(i)].fetch_add(1);
        };
        for (;;) {
            const auto r = deque.push(Task(body, nullptr));
            if (r) {
                shares += r.published;
                break;
            }
            pop();
        }
        if ((i % pop_every) == 0)
            pop();
        if ((i % 64) == 63) {
            shares += deque.shareAll();
            // Once, let the thieves empty the shared part, so they
            // claim tasks however the host schedules them.
            while (i == 63 && deque.stealable())
                std::this_thread::yield();
            // The private part is empty now, so these pops are
            // reclaims, racing the thieves for the newest shared
            // tasks.
            pop();
            pop();
        }
    }
    shares += deque.shareAll();
    while (pop()) {
    }
    return {popped, shares};
}

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
    std::atomic<int> ready{0};

    std::vector<std::thread> thieves;
    thieves.reserve(p.thieves);
    for (int t = 0; t < p.thieves; ++t) {
        thieves.emplace_back([&] {
            Task out;
            size_t sz = 0;
            ready.fetch_add(1, std::memory_order_release);
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
    // last-task case the reclaim's CAS exists for.
    const auto [popped, shares] =
        runOwner(deque, consumed, p.items, 3, ready, p.thieves);
    done.store(true, std::memory_order_release);
    for (auto &t : thieves)
        t.join();

    for (int i = 0; i < p.items; ++i) {
        ASSERT_EQ(consumed[static_cast<size_t>(i)].load(), 1)
            << "task " << i << " consumed wrong number of times";
    }
    EXPECT_EQ(popped + stolen.load(), p.items);
    EXPECT_GT(stolen.load(), 0) << "no thief ever saw a task";
    EXPECT_GT(shares, 0) << "the owner never shared";
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
    std::atomic<int> ready{0};

    std::vector<std::thread> thieves;
    thieves.reserve(
        static_cast<size_t>(p.singleThieves + p.bulkThieves));
    for (int t = 0; t < p.singleThieves; ++t) {
        thieves.emplace_back([&] {
            Task out;
            size_t sz = 0;
            ready.fetch_add(1, std::memory_order_release);
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
            ready.fetch_add(1, std::memory_order_release);
            while (!done.load(std::memory_order_acquire)) {
                if (deque.stealHalf(batch, sz) > 0)
                    drain();
            }
            while (deque.stealHalf(batch, sz) > 0)
                drain();
        });
    }

    // Owner: pushes every item, popping intermittently so the
    // split-side race (reclaims after each shareAll) stays hot
    // against the bulk grabs.
    const auto [popped, shares] = runOwner(
        deque, consumed, p.items, 5, ready,
        p.singleThieves + p.bulkThieves);
    done.store(true, std::memory_order_release);
    for (auto &t : thieves)
        t.join();

    for (int i = 0; i < p.items; ++i) {
        ASSERT_EQ(consumed[static_cast<size_t>(i)].load(), 1)
            << "task " << i << " consumed wrong number of times";
    }
    EXPECT_EQ(popped + stolen.load(), p.items);
    EXPECT_GT(stolen.load(), 0) << "no thief ever saw a task";
    EXPECT_GT(shares, 0) << "the owner never shared";
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
    std::atomic<int> ready{0};

    std::vector<std::thread> thieves;
    thieves.reserve(kThieves);
    for (int t = 0; t < kThieves; ++t) {
        thieves.emplace_back([&, t] {
            hermes::util::Rng rng(
                hermes::util::mix64(0x7edbeef5u, t));
            ready.fetch_add(1, std::memory_order_release);
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

    // The 64-slot ring fills after a few pushes, so the owner
    // alternates hard between push, inline pop, shareAll and the
    // thieves' drain — thousands of full index laps.
    const auto [popped, shares] =
        runOwner(deque, consumed, kItems, 8, ready, kThieves);
    done.store(true, std::memory_order_release);
    for (auto &t : thieves)
        t.join();

    for (int i = 0; i < kItems; ++i) {
        ASSERT_EQ(consumed[static_cast<size_t>(i)].load(), 1)
            << "task " << i << " consumed wrong number of times";
    }
    EXPECT_EQ(popped + stolen.load(), kItems);
    EXPECT_GT(stolen.load(), 0) << "no thief ever saw a task";
    EXPECT_GT(shares, 0) << "the owner never shared";
}

TEST(DequeContention, SingleItemTugOfWar)
{
    // One item at a time, owner and thief racing for it — the push
    // into an empty deque shares it, so the pop is a reclaim: the
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
    for (int i = 0; i < rounds; ++i) {
        while (!deque.push(
            Task([&total] { total.fetch_add(1); }, nullptr))) {
        }
        if (deque.pop(out))
            out.body();
    }
    done.store(true, std::memory_order_release);
    thief.join();
    Task leftover;
    size_t sz = 0;
    while (deque.steal(leftover, sz))
        leftover.body();

    EXPECT_EQ(total.load(), rounds);
}
