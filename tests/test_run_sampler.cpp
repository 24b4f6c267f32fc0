/**
 * @file
 * harness::RunSampler, the one thread that samples a run: its joules
 * hold each row's power until the next row and the last until stop()
 * (so a 15 ms run at 100 Hz is charged 15 ms, not 10 or 20), stop()
 * wakes the thread instead of sleeping out a period, a second stop()
 * changes nothing, and the hook sees every periodic row but not the
 * construction row.
 */

#include <chrono>
#include <thread>

#include <gtest/gtest.h>

#include "energy/power_model.hpp"
#include "harness/run_sampler.hpp"
#include "runtime/scheduler.hpp"
#include "util/time.hpp"

using namespace hermes;
using hermes::harness::RunSample;
using hermes::harness::RunSampler;

namespace {

runtime::RuntimeConfig
twoWorkers()
{
    runtime::RuntimeConfig config;
    config.numWorkers = 2;
    return config;
}

/** Wait (up to 2 s) until every worker is parked, so the modeled
 * package power holds still. */
bool
quiesce(const runtime::Runtime &rt)
{
    const uint64_t deadline = util::nowNanos() + 2'000'000'000ULL;
    while (rt.parkedWorkers() < rt.numWorkers()) {
        if (util::nowNanos() > deadline)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
}

} // namespace

TEST(RunSampler, JoulesArePowerTimesElapsedNotWholePeriods)
{
    runtime::Runtime rt(twoWorkers());
    const energy::PowerModel model(rt.config().profile);
    ASSERT_TRUE(quiesce(rt));
    const double watts = rt.packagePower(model);
    ASSERT_GT(watts, 0.0);

    const uint64_t start = util::nowNanos();
    RunSampler sampler(rt, model, 100.0);
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
    const uint64_t end = util::nowNanos();
    sampler.stop();
    const double elapsed = static_cast<double>(end - start) / 1e9;

    // A meter that charges whole 10 ms periods reads 10 or 20 ms
    // here; holding each row until the next (and the last until
    // stop) charges the 15 ms the run took. `end` is read before
    // stop() because the integral ends where stop() reads the clock,
    // not after the join, which a loaded host can delay by
    // milliseconds.
    EXPECT_NEAR(sampler.joules(), watts * elapsed,
                0.1 * watts * elapsed);
    ASSERT_FALSE(sampler.samples().empty());
    EXPECT_LT(sampler.samples().front().tSec, 0.001);
}

TEST(RunSampler, StopDoesNotWaitOutThePeriod)
{
    runtime::Runtime rt(twoWorkers());
    const energy::PowerModel model(rt.config().profile);
    RunSampler sampler(rt, model, 10.0); // 100 ms period
    std::this_thread::sleep_for(std::chrono::milliseconds(20));

    const uint64_t before = util::nowNanos();
    sampler.stop();
    const uint64_t stop_nanos = util::nowNanos() - before;
    EXPECT_LT(stop_nanos, 50'000'000u);
    // Only the construction row: the first periodic row was due at
    // 100 ms.
    EXPECT_EQ(sampler.samples().size(), 1u);
    EXPECT_GT(sampler.joules(), 0.0);
}

TEST(RunSampler, SecondStopIsANoOp)
{
    runtime::Runtime rt(twoWorkers());
    const energy::PowerModel model(rt.config().profile);
    RunSampler sampler(rt, model, 100.0);
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    sampler.stop();
    const double joules = sampler.joules();
    const size_t rows = sampler.samples().size();

    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    sampler.stop();
    EXPECT_EQ(sampler.joules(), joules);
    EXPECT_EQ(sampler.samples().size(), rows);
}

TEST(RunSampler, HookSeesEveryPeriodicRowButNotTheFirst)
{
    runtime::Runtime rt(twoWorkers());
    const energy::PowerModel model(rt.config().profile);
    size_t hook_calls = 0; // sampler thread only until stop() joins
    RunSampler sampler(rt, model, 200.0, [&hook_calls](RunSample &row) {
        ++hook_calls;
        row.stalledWorkers = 1;
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    sampler.stop();

    const auto &rows = sampler.samples();
    ASSERT_GE(rows.size(), 2u);
    EXPECT_EQ(hook_calls, rows.size() - 1);
    EXPECT_EQ(rows.front().stalledWorkers, 0u);
    for (size_t i = 1; i < rows.size(); ++i) {
        EXPECT_EQ(rows[i].stalledWorkers, 1u) << i;
        EXPECT_GT(rows[i].tSec, rows[i - 1].tSec) << i;
    }
}
