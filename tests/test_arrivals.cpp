/**
 * @file
 * The serving harness's arrival generator: fixed seed → bitwise-
 * stable Poisson schedule (as data and as CSV bytes), decorrelated
 * sub-streams (mix changes cannot move arrival times), statistical
 * sanity of rate and mix, exact trace replay through the CSV
 * round-trip, and the open-loop invariant — the schedule is pure
 * data, so an arbitrarily slow consumer observes exactly the
 * arrival times a fast one does. MMPP mode gets the same contract:
 * bitwise stability, realized per-state rates and dwell times near
 * their configured means, exact reduction to Poisson when both
 * state rates coincide, and open-loop independence under bursts.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/serve/arrivals.hpp"
#include "util/csv.hpp"

using namespace hermes::harness::serve;
using hermes::util::CsvWriter;

namespace {

ArrivalConfig
baseConfig()
{
    ArrivalConfig config;
    config.seed = 0x5eed;
    config.ratePerSec = 10'000.0;
    config.durationSec = 0.5;
    return config;
}

std::string
scheduleCsvString(const std::vector<Arrival> &schedule)
{
    CsvWriter csv; // in-memory
    writeScheduleCsv(csv, schedule);
    return csv.str();
}

ArrivalConfig
mmppConfig()
{
    ArrivalConfig config;
    config.mode = ArrivalMode::kMmpp;
    config.seed = 0x5eed;
    config.durationSec = 2.0;
    config.mmpp.baseRatePerSec = 2'000.0;
    config.mmpp.burstRatePerSec = 20'000.0;
    config.mmpp.baseDwellSec = 0.05;
    config.mmpp.burstDwellSec = 0.01;
    return config;
}

} // namespace

TEST(Arrivals, FixedSeedIsBitwiseStable)
{
    const auto config = baseConfig();
    const auto first = generateSchedule(config);
    const auto second = generateSchedule(config);
    ASSERT_FALSE(first.empty());
    EXPECT_EQ(first, second);
    // Byte-identical, not merely value-equal: the CSV is what trace
    // replay reads back.
    EXPECT_EQ(scheduleCsvString(first), scheduleCsvString(second));
}

TEST(Arrivals, DifferentSeedsProduceDifferentSchedules)
{
    auto config = baseConfig();
    const auto first = generateSchedule(config);
    config.seed ^= 1;
    const auto second = generateSchedule(config);
    EXPECT_NE(first, second);
}

TEST(Arrivals, OffsetsAreOrderedAndInsideTheHorizon)
{
    const auto schedule = generateSchedule(baseConfig());
    const uint64_t horizon =
        static_cast<uint64_t>(baseConfig().durationSec * 1e9);
    uint64_t prev = 0;
    for (const Arrival &a : schedule) {
        EXPECT_GE(a.offsetNanos, prev);
        EXPECT_LE(a.offsetNanos, horizon);
        prev = a.offsetNanos;
    }
}

TEST(Arrivals, RealizedRateIsNearTheConfiguredRate)
{
    const auto schedule = generateSchedule(baseConfig());
    // Poisson(n = rate * duration = 5000): 5 sigma ~ 354.
    const double expected =
        baseConfig().ratePerSec * baseConfig().durationSec;
    EXPECT_NEAR(static_cast<double>(schedule.size()), expected,
                5.0 * std::sqrt(expected));
}

TEST(Arrivals, MixWeightsSteerMixIndicesWithoutMovingArrivals)
{
    auto config = baseConfig();
    config.mixWeights = {1.0, 3.0};
    const auto schedule = generateSchedule(config);

    size_t heavy = 0;
    for (const Arrival &a : schedule) {
        ASSERT_LT(a.mixIndex, 2u);
        heavy += a.mixIndex == 1 ? 1 : 0;
    }
    const double frac =
        static_cast<double>(heavy)
        / static_cast<double>(schedule.size());
    EXPECT_NEAR(frac, 0.75, 0.05);

    // Decorrelated sub-streams: reweighting the mix must not move a
    // single arrival time or per-request seed.
    auto reweighted = config;
    reweighted.mixWeights = {5.0, 1.0, 1.0};
    const auto other = generateSchedule(reweighted);
    ASSERT_EQ(other.size(), schedule.size());
    for (size_t i = 0; i < schedule.size(); ++i) {
        EXPECT_EQ(other[i].offsetNanos, schedule[i].offsetNanos);
        EXPECT_EQ(other[i].requestSeed, schedule[i].requestSeed);
    }
}

TEST(Arrivals, RequestSeedsAreDistinct)
{
    const auto schedule = generateSchedule(baseConfig());
    std::vector<uint64_t> seeds;
    seeds.reserve(schedule.size());
    for (const Arrival &a : schedule)
        seeds.push_back(a.requestSeed);
    std::sort(seeds.begin(), seeds.end());
    EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()),
              seeds.end());
}

TEST(Arrivals, TraceModeReplaysARecordedScheduleExactly)
{
    const auto original = generateSchedule(baseConfig());

    const std::string path =
        testing::TempDir() + "arrivals_trace.csv";
    {
        CsvWriter csv(path);
        writeScheduleCsv(csv, original);
    }

    ArrivalConfig replay;
    replay.mode = ArrivalMode::kTrace;
    replay.tracePath = path;
    // Seed and rate are ignored in trace mode — set them to junk to
    // prove it.
    replay.seed = 0xdead;
    replay.ratePerSec = 1.0;
    const auto replayed = generateSchedule(replay);

    EXPECT_EQ(replayed, original);
    std::remove(path.c_str());
}

TEST(MmppArrivals, FixedSeedIsBitwiseStable)
{
    const auto config = mmppConfig();
    const auto first = generateSchedule(config);
    const auto second = generateSchedule(config);
    ASSERT_FALSE(first.empty());
    EXPECT_EQ(first, second);
    // Byte-identical as CSV too — MMPP schedules carry the same
    // replay contract as Poisson ones.
    EXPECT_EQ(scheduleCsvString(first), scheduleCsvString(second));

    auto reseeded = config;
    reseeded.seed ^= 1;
    EXPECT_NE(generateSchedule(reseeded), first);
}

TEST(MmppArrivals, CsvRoundTripReplaysExactly)
{
    const auto original = generateSchedule(mmppConfig());

    const std::string path = testing::TempDir() + "mmpp_trace.csv";
    {
        CsvWriter csv(path);
        writeScheduleCsv(csv, original);
    }

    ArrivalConfig replay;
    replay.mode = ArrivalMode::kTrace;
    replay.tracePath = path;
    const auto replayed = generateSchedule(replay);
    EXPECT_EQ(replayed, original);
    std::remove(path.c_str());
}

TEST(MmppArrivals, StateTimelineCoversTheHorizonAndAlternates)
{
    const auto config = mmppConfig();
    const auto timeline = mmppStateTimeline(config);
    ASSERT_FALSE(timeline.empty());
    EXPECT_EQ(timeline.front().startNanos, 0u);
    EXPECT_FALSE(timeline.front().burst); // starts in the base state
    const uint64_t horizon =
        static_cast<uint64_t>(config.durationSec * 1e9);
    EXPECT_EQ(timeline.back().endNanos, horizon);
    for (size_t i = 1; i < timeline.size(); ++i) {
        EXPECT_EQ(timeline[i].startNanos, timeline[i - 1].endNanos);
        EXPECT_NE(timeline[i].burst, timeline[i - 1].burst);
    }
}

TEST(MmppArrivals, RealizedDwellTimesAreNearTheConfiguredMeans)
{
    // Long horizon so each state accumulates many dwells: 100 s at
    // mean dwells of 50/10 ms is ~1600 complete segments per state.
    auto config = mmppConfig();
    config.durationSec = 100.0;
    const auto timeline = mmppStateTimeline(config);

    double base_total = 0.0, burst_total = 0.0;
    size_t base_n = 0, burst_n = 0;
    // Skip the final (horizon-clamped) segment — its dwell is
    // censored.
    for (size_t i = 0; i + 1 < timeline.size(); ++i) {
        const double dwell_sec =
            static_cast<double>(timeline[i].endNanos
                                - timeline[i].startNanos) / 1e9;
        if (timeline[i].burst) {
            burst_total += dwell_sec;
            ++burst_n;
        } else {
            base_total += dwell_sec;
            ++base_n;
        }
    }
    ASSERT_GT(base_n, 100u);
    ASSERT_GT(burst_n, 100u);
    // Exponential(mean m) has sigma = m, so the sample mean over n
    // dwells has sigma m/sqrt(n): 5-sigma tolerances.
    EXPECT_NEAR(base_total / base_n, config.mmpp.baseDwellSec,
                5.0 * config.mmpp.baseDwellSec / std::sqrt(base_n));
    EXPECT_NEAR(burst_total / burst_n, config.mmpp.burstDwellSec,
                5.0 * config.mmpp.burstDwellSec
                    / std::sqrt(burst_n));
}

TEST(MmppArrivals, PerStateRatesAreNearTheConfiguredRates)
{
    auto config = mmppConfig();
    config.durationSec = 20.0;
    const auto timeline = mmppStateTimeline(config);
    const auto schedule = generateSchedule(config);
    ASSERT_FALSE(schedule.empty());

    // Count arrivals per state by walking schedule and timeline
    // together (both are time-ordered).
    double base_sec = 0.0, burst_sec = 0.0;
    uint64_t base_arrivals = 0, burst_arrivals = 0;
    size_t seg = 0;
    for (const Arrival &a : schedule) {
        while (seg + 1 < timeline.size()
               && a.offsetNanos >= timeline[seg].endNanos)
            ++seg;
        (timeline[seg].burst ? burst_arrivals : base_arrivals) += 1;
    }
    for (const MmppSegment &s : timeline) {
        const double dwell_sec =
            static_cast<double>(s.endNanos - s.startNanos) / 1e9;
        (s.burst ? burst_sec : base_sec) += dwell_sec;
    }
    ASSERT_GT(base_sec, 1.0);
    ASSERT_GT(burst_sec, 0.2);
    // Poisson(n) has sigma sqrt(n): 5-sigma tolerance on the count
    // realized in each state's total dwell.
    const double base_expected =
        config.mmpp.baseRatePerSec * base_sec;
    const double burst_expected =
        config.mmpp.burstRatePerSec * burst_sec;
    EXPECT_NEAR(static_cast<double>(base_arrivals), base_expected,
                5.0 * std::sqrt(base_expected));
    EXPECT_NEAR(static_cast<double>(burst_arrivals), burst_expected,
                5.0 * std::sqrt(burst_expected));
}

TEST(MmppArrivals, EqualStateRatesReduceToPlainPoisson)
{
    // With both states at one rate the process IS Poisson; the
    // generator must short-circuit so the schedule is byte-identical
    // to kPoisson at that rate (the modulation stream is
    // decorrelated, so skipping it perturbs nothing).
    auto mmpp = mmppConfig();
    mmpp.mmpp.baseRatePerSec = 10'000.0;
    mmpp.mmpp.burstRatePerSec = 10'000.0;
    mmpp.durationSec = 0.5;

    auto poisson = baseConfig(); // same seed, rate 10k, duration 0.5
    const auto a = generateSchedule(mmpp);
    const auto b = generateSchedule(poisson);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b);
    EXPECT_EQ(scheduleCsvString(a), scheduleCsvString(b));
}

TEST(MmppArrivals, MixReweightingCannotMoveArrivals)
{
    auto config = mmppConfig();
    const auto schedule = generateSchedule(config);
    auto reweighted = config;
    reweighted.mixWeights = {1.0, 7.0};
    const auto other = generateSchedule(reweighted);
    ASSERT_EQ(other.size(), schedule.size());
    for (size_t i = 0; i < schedule.size(); ++i) {
        EXPECT_EQ(other[i].offsetNanos, schedule[i].offsetNanos);
        EXPECT_EQ(other[i].requestSeed, schedule[i].requestSeed);
    }
}

TEST(MmppArrivals, OpenLoopInvariantHoldsUnderBursts)
{
    // Same FIFO-replay argument as the Poisson open-loop test, under
    // bursty arrivals: the offered timeline is identical for a fast
    // and a pathologically slow consumer — bursts change the backlog
    // dynamics, never the arrivals.
    auto config = mmppConfig();
    config.durationSec = 0.5;
    const auto schedule = generateSchedule(config);
    ASSERT_FALSE(schedule.empty());

    auto replay = [&](uint64_t service_nanos) {
        std::vector<uint64_t> submit_times;
        uint64_t prev_finish = 0;
        uint64_t max_lag = 0;
        for (const Arrival &a : schedule) {
            submit_times.push_back(a.offsetNanos);
            const uint64_t start =
                std::max(a.offsetNanos, prev_finish);
            prev_finish = start + service_nanos;
            max_lag = std::max(max_lag,
                               prev_finish - a.offsetNanos);
        }
        return std::make_pair(submit_times, max_lag);
    };

    const auto fast = replay(1);
    const auto slow = replay(
        static_cast<uint64_t>(5e9 / config.mmpp.burstRatePerSec));
    EXPECT_EQ(fast.first, slow.first);
    EXPECT_GT(slow.second, 10 * fast.second);
}

TEST(Arrivals, OpenLoopScheduleIsIndependentOfConsumptionSpeed)
{
    // The open-loop invariant: arrival times are fixed before the
    // run and never consult the consumer. Model two consumers of
    // the same schedule — one instantaneous, one pathologically
    // slow (each request takes 10x the mean inter-arrival gap) —
    // and check the offered timeline both producers pace against is
    // identical, while only the slow consumer's backlog diverges.
    auto config = baseConfig();
    config.ratePerSec = 1000.0;
    config.durationSec = 0.2;
    const auto schedule = generateSchedule(config);
    ASSERT_FALSE(schedule.empty());

    const uint64_t mean_gap = static_cast<uint64_t>(
        1e9 / config.ratePerSec);

    // Discrete-time replay of a single FIFO server: request i
    // starts at max(submit_i, finish_{i-1}) and finishes
    // service_nanos later.
    auto replay = [&](uint64_t service_nanos) {
        std::vector<uint64_t> submit_times, finish_times;
        uint64_t prev_finish = 0;
        size_t max_backlog = 0;
        for (const Arrival &a : schedule) {
            // Open loop: the submit time IS the scheduled offset,
            // whatever the consumer is doing.
            submit_times.push_back(a.offsetNanos);
            const uint64_t start =
                std::max(a.offsetNanos, prev_finish);
            prev_finish = start + service_nanos;
            finish_times.push_back(prev_finish);
            size_t backlog = 0;
            for (uint64_t f : finish_times)
                backlog += f > a.offsetNanos ? 1 : 0;
            max_backlog = std::max(max_backlog, backlog);
        }
        return std::make_pair(submit_times, max_backlog);
    };

    const auto fast = replay(1);
    const auto slow = replay(10 * mean_gap);

    // Same offered timeline, bit for bit...
    EXPECT_EQ(fast.first, slow.first);
    // ...but the slow consumer piled up a real backlog, which is
    // only possible because producers did not wait for it.
    EXPECT_GT(slow.second, 4 * fast.second);
}
