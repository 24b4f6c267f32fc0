/**
 * @file
 * End-to-end serving-harness tests against a real Runtime: a
 * moderate-load run completes everything it accepts and runs exactly
 * the advertised schedule; structural overload (offered demand of
 * several erlangs against two workers) engages admission shedding
 * while keeping the accepted requests' p99 bounded by the watermark
 * backlog, not the run length — the acceptance criterion of the
 * open-loop harness; disabling admission accepts everything anyway;
 * and a registered-workload mix serves real parallel kernels inside
 * request bodies. Timing assertions are kept to order-of-magnitude
 * bounds so the suite survives sanitizers and one-CPU CI runners.
 */

#include <gtest/gtest.h>

#include "harness/serve/serve_driver.hpp"
#include "runtime/scheduler.hpp"

using namespace hermes;
using namespace hermes::harness::serve;

namespace {

runtime::RuntimeConfig
twoWorkers()
{
    runtime::RuntimeConfig config;
    config.numWorkers = 2;
    return config;
}

/** A spin-kernel mix entry with `spin_nanos` of service demand. */
MixEntry
spinEntry(uint64_t spin_nanos)
{
    MixEntry entry;
    entry.spinNanos = spin_nanos;
    return entry;
}

ServeConfig
lightLoad()
{
    ServeConfig config;
    config.arrivals.seed = 0x5e12e;
    config.arrivals.ratePerSec = 2000.0;
    config.arrivals.durationSec = 0.25;
    config.mix = {spinEntry(10'000)};
    config.producers = 2;
    return config;
}

} // namespace

TEST(ServeDriver, ModerateLoadCompletesEverythingItAccepts)
{
    runtime::Runtime rt(twoWorkers());
    const auto config = lightLoad();
    const ServeResult result = runServe(rt, config);

    // The driver ran exactly the schedule its config advertises.
    EXPECT_EQ(result.schedule,
              generateSchedule(result.config.arrivals));
    EXPECT_EQ(result.offered, result.schedule.size());

    // 10us demand every 500us: nothing to shed, nothing lost.
    EXPECT_EQ(result.shed, 0u);
    EXPECT_EQ(result.accepted, result.offered);
    EXPECT_EQ(result.completed, result.accepted);
    EXPECT_EQ(result.offered, result.accepted + result.shed);

    // Every completion landed in the merged recorders.
    EXPECT_EQ(result.sojourn.count(), result.completed);
    EXPECT_EQ(result.queueing.count(), result.completed);
    EXPECT_EQ(result.service.count(), result.completed);

    // Service time is a wall-clock spin: at least the asked-for
    // 10us, and sojourn can only add queueing on top of service.
    EXPECT_GE(result.service.quantileNanos(0.5), 10'000u);
    EXPECT_GE(result.sojourn.quantileNanos(0.5),
              result.service.quantileNanos(0.5));

    // The sampler integrated a positive power over a ~0.25 s run.
    EXPECT_GT(result.joules, 0.0);
    EXPECT_GT(result.joulesPerRequest, 0.0);
    EXPECT_GT(result.wallSeconds, 0.2);
    EXPECT_FALSE(result.series.empty());
    EXPECT_GT(result.stats.injected, 0u);
}

TEST(ServeDriver, OverloadShedsWithBoundedAcceptedP99)
{
    runtime::Runtime rt(twoWorkers());

    ServeConfig config;
    config.arrivals.seed = 0x10ad;
    config.arrivals.ratePerSec = 2000.0;
    config.arrivals.durationSec = 0.3;
    // 2 ms of demand every 0.5 ms: ~4 erlangs against two workers —
    // structurally overloaded on any host.
    config.mix = {spinEntry(2'000'000)};
    config.producers = 2;
    config.admission.highWatermark = 32;
    config.admission.lowWatermark = 8;

    const ServeResult result = runServe(rt, config);

    // Overload must engage shedding, and the books must balance.
    EXPECT_GT(result.shed, 0u);
    EXPECT_GE(result.admissionTransitions, 1u);
    EXPECT_EQ(result.offered, result.accepted + result.shed);
    EXPECT_EQ(result.completed, result.accepted);
    EXPECT_EQ(result.sojourn.count(), result.completed);

    // The point of admission control: an accepted request waits
    // behind at most ~watermark requests, so its sojourn is bounded
    // by backlog x service — order 40 ms here — and NOT by the run
    // length. 500 ms gives an order of magnitude of scheduling slack
    // for sanitizer builds on one-CPU runners while still being far
    // below what an unshed 300 ms x 4-erlang backlog would produce.
    EXPECT_LT(result.sojourn.quantileNanos(0.99), 500'000'000u);

    // Shedding kept the backlog near the watermark; the final
    // telemetry must show a drained queue.
    EXPECT_EQ(rt.injectTelemetry().pending, 0u);
}

TEST(ServeDriver, DisablingAdmissionAcceptsEverything)
{
    runtime::Runtime rt(twoWorkers());

    ServeConfig config;
    config.arrivals.seed = 0xacce;
    config.arrivals.ratePerSec = 1000.0;
    config.arrivals.durationSec = 0.2;
    config.mix = {spinEntry(1'000'000)};
    config.producers = 2;
    config.admissionEnabled = false;
    config.admission.highWatermark = 4; // would shed hard if enabled
    config.admission.lowWatermark = 1;

    const ServeResult result = runServe(rt, config);
    EXPECT_EQ(result.shed, 0u);
    EXPECT_EQ(result.accepted, result.offered);
    EXPECT_EQ(result.completed, result.offered);
    EXPECT_EQ(result.admissionTransitions, 0u);
}

TEST(ServeDriver, RegisteredWorkloadMixServesRealKernels)
{
    runtime::Runtime rt(twoWorkers());

    ServeConfig config;
    config.arrivals.seed = 0x3017;
    config.arrivals.ratePerSec = 400.0;
    config.arrivals.durationSec = 0.2;
    const MixEntry spin = spinEntry(10'000);
    MixEntry sort;
    sort.name = "sort";
    sort.weight = 1.0;
    sort.workload = "sort";
    sort.scale = 512;
    config.mix = {spin, sort};
    config.producers = 1;

    const ServeResult result = runServe(rt, config);
    EXPECT_EQ(result.completed, result.accepted);
    EXPECT_EQ(result.shed, 0u);
    EXPECT_EQ(result.sojourn.count(), result.completed);
    // Both mix entries actually arrived.
    bool saw[2] = {false, false};
    for (const Arrival &a : result.schedule)
        saw[a.mixIndex] = true;
    EXPECT_TRUE(saw[0]);
    EXPECT_TRUE(saw[1]);
}

TEST(ServeDriver, FaultsOffLeavesOutcomeCountersTrivial)
{
    runtime::Runtime rt(twoWorkers());
    auto config = lightLoad();
    ASSERT_FALSE(config.faults.enabled);
    const ServeResult result = runServe(rt, config);

    // Without a faults block every accepted request is a
    // first-attempt success and no chaos machinery ran.
    EXPECT_EQ(result.ok, result.accepted);
    EXPECT_EQ(result.retriedOk, 0u);
    EXPECT_EQ(result.failed, 0u);
    EXPECT_EQ(result.deadlineExpired, 0u);
    EXPECT_EQ(result.retriesSpent, 0u);
    EXPECT_EQ(result.stragglers, 0u);
    EXPECT_EQ(result.injectedFaults, 0u);
    EXPECT_TRUE(result.faultPlan.requests.empty());
}

TEST(ServeDriver, InjectedFailuresFollowThePlanExactly)
{
    runtime::Runtime rt(twoWorkers());
    auto config = lightLoad();
    config.faults.enabled = true;
    config.faults.failProb = 0.3;
    config.faults.maxRetries = 2;
    config.faults.retryBackoffMs = 0.05;

    const ServeResult result = runServe(rt, config);

    // Light load, no deadline: nothing sheds, so every outcome is a
    // pure function of the precomputed plan.
    ASSERT_EQ(result.shed, 0u);
    uint64_t plan_ok = 0, plan_retried = 0, plan_failed = 0,
             plan_retries = 0;
    for (const auto &rf : result.faultPlan.requests) {
        if (rf.failAttempts == 0) {
            plan_ok += 1;
        } else if (rf.failAttempts <= config.faults.maxRetries) {
            plan_retried += 1;
            plan_retries += rf.failAttempts;
        } else {
            plan_failed += 1;
            plan_retries += config.faults.maxRetries;
        }
    }
    EXPECT_EQ(result.ok, plan_ok);
    EXPECT_EQ(result.retriedOk, plan_retried);
    EXPECT_EQ(result.failed, plan_failed);
    EXPECT_EQ(result.retriesSpent, plan_retries);
    EXPECT_EQ(result.deadlineExpired, 0u);

    // The reconciliation identity and the retry bound.
    EXPECT_EQ(result.offered,
              result.shed + result.ok + result.retriedOk
                  + result.failed + result.deadlineExpired);
    EXPECT_LE(result.retriesSpent,
              result.accepted
                  * static_cast<uint64_t>(config.faults.maxRetries));

    // Failed requests complete (terminal) but never reach the
    // latency recorders; goodput counts only successes.
    EXPECT_EQ(result.completed, result.accepted);
    EXPECT_EQ(result.sojourn.count(), result.ok + result.retriedOk);
    EXPECT_GT(result.goodputPerSec, 0.0);
}

TEST(ServeDriver, ExpiredDeadlinesAreCountedNotWaitedOn)
{
    runtime::Runtime rt(twoWorkers());
    auto config = lightLoad();
    config.faults.enabled = true;
    // A 1 us deadline: essentially every request is already late by
    // the time a worker picks it up.
    config.faults.deadlineMs = 0.001;

    const ServeResult result = runServe(rt, config);

    EXPECT_GE(result.deadlineExpired, 1u);
    EXPECT_EQ(result.offered,
              result.shed + result.ok + result.retriedOk
                  + result.failed + result.deadlineExpired);
    // Expired requests are terminal: the run drains completely and
    // only actual successes land in the latency recorders.
    EXPECT_EQ(result.completed, result.accepted);
    EXPECT_EQ(result.sojourn.count(), result.ok + result.retriedOk);
}

TEST(ServeDriver, StragglersInflateServiceTime)
{
    runtime::Runtime rt(twoWorkers());
    auto config = lightLoad();
    config.arrivals.ratePerSec = 500.0;
    config.arrivals.durationSec = 0.2;
    config.faults.enabled = true;
    config.faults.stragglerProb = 1.0;
    config.faults.stragglerFactor = 4.0;

    const ServeResult result = runServe(rt, config);
    EXPECT_EQ(result.stragglers, result.accepted);
    // Every service time was stretched to ~4x the 10 us kernel.
    EXPECT_GE(result.service.quantileNanos(0.5), 30'000u);
}
