/** @file Tests for tempo control inside the simulator. */

#include <gtest/gtest.h>

#include "sim/dag_generators.hpp"
#include "sim/simulator.hpp"

using namespace hermes;
using namespace hermes::sim;

namespace {

/** Tempo off: the unmodified work-stealing baseline. */
SimConfig
baseline(unsigned workers)
{
    SimConfig cfg;
    cfg.profile = platform::systemA();
    cfg.numWorkers = workers;
    cfg.seed = 33;
    return cfg;
}

SimConfig
config(unsigned workers, core::TempoPolicy policy)
{
    SimConfig cfg = baseline(workers);
    cfg.enableTempo = true;
    cfg.tempo.policy = policy;
    return cfg;
}

Dag
benchDag(const std::string &name, uint64_t seed = 8)
{
    WorkloadParams wp;
    wp.seed = seed;
    return makeBenchmark(name, wp);
}

} // namespace

TEST(SimulatorTempo, BaselineIssuesNoDvfsRequests)
{
    const Dag dag = benchDag("sort");
    const auto r = simulate(dag, baseline(8));
    EXPECT_EQ(r.stats.dvfsRequests, 0u);
    // All busy time at the fastest rung.
    for (size_t i = 1; i < r.busySecondsAtRung.size(); ++i)
        EXPECT_EQ(r.busySecondsAtRung[i], 0.0);
}

TEST(SimulatorTempo, UnifiedExercisesBothStrategies)
{
    const Dag dag = benchDag("compare");
    const auto r = simulate(dag,
                            config(16, core::TempoPolicy::Unified));
    const auto &k = r.tempoCounters;
    EXPECT_GT(k.stealDowns, 0u);
    EXPECT_GT(k.relayUps, 0u);
    EXPECT_GT(k.workloadUps, 0u);
    EXPECT_GT(k.workloadDowns, 0u);
    EXPECT_GT(r.stats.dvfsRequests, 0u);
    // Some busy time ran at the slow rung (1600 MHz = index 3).
    const auto slow_idx = platform::systemA().ladder.indexOf(1600);
    EXPECT_GT(r.busySecondsAtRung[slow_idx], 0.0);
}

TEST(SimulatorTempo, HermesSavesEnergyOnEveryBenchmark)
{
    for (const auto &name : benchmarkNames()) {
        const Dag dag = benchDag(name);
        const auto base = simulate(dag, baseline(16));
        const auto hermes_run = simulate(
            dag, config(16, core::TempoPolicy::Unified));
        EXPECT_LT(hermes_run.joules, base.joules) << name;
        // Time loss stays moderate (the paper's band is 3-4%).
        EXPECT_LT(hermes_run.seconds, base.seconds * 1.12) << name;
    }
}

TEST(SimulatorTempo, WorkpathOnlyIgnoresWorkloadCounters)
{
    const Dag dag = benchDag("knn");
    const auto r = simulate(
        dag, config(8, core::TempoPolicy::WorkpathOnly));
    EXPECT_GT(r.tempoCounters.stealDowns, 0u);
    EXPECT_EQ(r.tempoCounters.workloadUps, 0u);
    EXPECT_EQ(r.tempoCounters.workloadDowns, 0u);
}

TEST(SimulatorTempo, WorkloadOnlyIgnoresWorkpathCounters)
{
    const Dag dag = benchDag("knn");
    const auto r = simulate(
        dag, config(8, core::TempoPolicy::WorkloadOnly));
    EXPECT_EQ(r.tempoCounters.stealDowns, 0u);
    EXPECT_EQ(r.tempoCounters.relayUps, 0u);
    EXPECT_GT(r.tempoCounters.workloadUps
                  + r.tempoCounters.workloadDowns,
              0u);
}

TEST(SimulatorTempo, CustomLadderIsHonoured)
{
    const Dag dag = benchDag("sort");
    auto cfg = config(8, core::TempoPolicy::Unified);
    cfg.tempo.ladder =
        platform::systemA().ladder.select({2400, 1900});
    const auto r = simulate(dag, cfg);
    // The 1600 rung must never be used; 1900 must be.
    const auto &ladder = platform::systemA().ladder;
    EXPECT_EQ(r.busySecondsAtRung[ladder.indexOf(1600)], 0.0);
    EXPECT_GT(r.busySecondsAtRung[ladder.indexOf(1900)], 0.0);
}

TEST(SimulatorTempo, LowerSlowRungSavesMoreEnergyOnSort)
{
    // Figure 14's monotone arm: with the fast rung fixed, a lower
    // slow rung saves more energy (sort is the most regular
    // benchmark, so the trend is stable at fixed seed).
    const Dag dag = benchDag("sort");
    const auto base = simulate(dag, baseline(16));

    auto run_pair = [&](platform::FreqMhz slow) {
        auto cfg = config(16, core::TempoPolicy::Unified);
        cfg.tempo.ladder =
            platform::systemA().ladder.select({2400, slow});
        return simulate(dag, cfg);
    };
    const auto high = run_pair(1900);
    const auto low = run_pair(1400);
    EXPECT_LT(low.joules, high.joules);
    // And the lower rung costs more time.
    EXPECT_GT(low.seconds, high.seconds * 0.999);
    EXPECT_LT(high.joules, base.joules);
}

TEST(SimulatorTempo, DynamicSchedulingCostsAffinityTime)
{
    const Dag dag = benchDag("ray");
    auto stat = config(8, core::TempoPolicy::Unified);
    auto dyn = stat;
    dyn.scheduling = SchedulingMode::Dynamic;
    const auto rs = simulate(dag, stat);
    const auto rd = simulate(dag, dyn);
    // Same schedule seed: dynamic pays two affinity tolls per
    // acquisition, so it cannot be faster.
    EXPECT_GE(rd.seconds, rs.seconds);
}

TEST(SimulatorTempo, TransitionLatencyDelaysEffect)
{
    // A tiny DAG where worker 1 steals once: the thief's DOWN must
    // not take effect before the transition latency has passed —
    // makespan with huge latency approaches the no-DVFS one.
    DagBuilder b;
    const double mscyc = 2400.0 * 1e3;
    const FrameId parent = b.newFrame(20.0 * mscyc);
    const FrameId child = b.newFrame(19.0 * mscyc);
    b.spawn(parent, 1.0 * mscyc, child);
    const Dag dag = b.build(parent);

    auto fast_latency = config(2, core::TempoPolicy::WorkpathOnly);
    auto slow_latency = fast_latency;
    slow_latency.profile.dvfsLatencySec = 1.0;  // absurdly slow
    const auto rf = simulate(dag, fast_latency);
    const auto rs = simulate(dag, slow_latency);
    // With the transition never landing in time, the thief runs at
    // full speed: faster finish than with real DVFS.
    EXPECT_LT(rs.seconds, rf.seconds);
}
