/**
 * @file
 * End-to-end integration tests: the full pipeline (generator ->
 * simulator -> tempo controller -> energy ledger -> scenario runner)
 * must reproduce the paper's qualitative claims, and the two
 * execution substrates must drive the identical controller code.
 * The figure claims run through dag scenarios on the sim substrate,
 * by the fixed protocol of Section 4.1 (20 trials, the first 2
 * discarded) at the committed figure sweeps' seed.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "dvfs/simulated.hpp"
#include "harness/scenario/scenario_runner.hpp"
#include "runtime/parallel.hpp"
#include "runtime/scheduler.hpp"
#include "sim/dag_generators.hpp"
#include "sim/simulator.hpp"
#include "util/stats.hpp"
#include "workloads/registry.hpp"

using namespace hermes;
namespace scenario = harness::scenario;

namespace {

/** A dag scenario on the simulator; `policy` empty = tempo off. */
scenario::ScenarioConfig
simConfig(const std::string &profile, const std::string &bench,
          unsigned workers, const std::string &policy,
          std::vector<unsigned> ladder = {})
{
    scenario::ScenarioConfig c;
    c.name = "integration";
    c.kind = scenario::ScenarioKind::kDag;
    c.seed = 20140301;
    c.profile = profile;
    c.runtime.workers = workers;
    c.dag.benchmark = bench;
    c.dag.scale = 1.0;
    c.dag.substrate = "sim";
    c.dvfs.tempo = !policy.empty();
    if (!policy.empty())
        c.dvfs.policy = policy;
    c.dvfs.ladder = std::move(ladder);
    return c;
}

/** A HERMES arm against the baseline on the same inputs, by the
 * formulas of the figure tables (fractions, not percent). */
struct Versus
{
    double energySavings = 0.0;
    double timeLoss = 0.0;
    double normalizedEdp = 0.0;
};

Versus
versus(const std::string &profile, const std::string &bench,
       unsigned workers, const std::string &policy,
       std::vector<unsigned> ladder = {})
{
    const auto base =
        scenario::runScenario(simConfig(profile, bench, workers, ""));
    const auto arm = scenario::runScenario(
        simConfig(profile, bench, workers, policy, std::move(ladder)));
    Versus v;
    v.energySavings = 1.0 - arm.joules / base.joules;
    v.timeLoss = arm.wallSeconds / base.wallSeconds - 1.0;
    v.normalizedEdp = arm.metrics.at("edp") / base.metrics.at("edp");
    return v;
}

} // namespace

TEST(Integration, CompareProducesPaperShape)
{
    const Versus v = versus("B", "sort", 4, "unified");
    EXPECT_GT(v.energySavings, 0.0);
    EXPECT_LT(v.energySavings, 0.5);
    EXPECT_GT(v.timeLoss, -0.05);
    EXPECT_LT(v.timeLoss, 0.15);
    EXPECT_LT(v.normalizedEdp, 1.05);
}

TEST(Integration, PaperHeadlineShapeSystemB)
{
    // Every benchmark at full System B width: positive savings,
    // bounded loss, EDP <= ~1 (the paper: EDP improved without
    // exception).
    for (const auto &bench : sim::benchmarkNames()) {
        const Versus v = versus("B", bench, 4, "unified");
        EXPECT_GT(v.energySavings, 0.0) << bench;
        EXPECT_LT(v.timeLoss, 0.10) << bench;
        EXPECT_LT(v.normalizedEdp, 1.03) << bench;
    }
}

TEST(Integration, UnifiedBeatsSingleStrategiesOnTimeLoss)
{
    // The paper's complementarity claim, averaged over benchmarks:
    // each strategy alone loses more time than unified.
    double unified_loss = 0.0, single_loss = 0.0;
    for (const auto &bench : sim::benchmarkNames()) {
        unified_loss += versus("A", bench, 16, "unified").timeLoss;
        single_loss +=
            0.5 * (versus("A", bench, 16, "workpath").timeLoss
                   + versus("A", bench, 16, "workload").timeLoss);
    }
    EXPECT_LT(unified_loss, single_loss);
}

TEST(Integration, UnifiedBalancesSavingsAgainstLoss)
{
    // Averaged over benchmarks on System A at 16 workers: every arm
    // saves energy, unified loses less time than workload-only
    // (which lacks the relay and the head guard), and unified's EDP
    // is below baseline. No energy ranking between the arms is
    // asserted. scenarios/fig_policies_a.json and
    // scenarios/fig_policies_b.json tabulate the same comparison at
    // every width, from which the paper's Figures 10-13 are read.
    double unified_e = 0.0, workpath_e = 0.0, workload_e = 0.0;
    double unified_t = 0.0, workload_t = 0.0;
    double unified_edp = 0.0;
    for (const auto &bench : sim::benchmarkNames()) {
        const Versus cu = versus("A", bench, 16, "unified");
        unified_e += cu.energySavings;
        unified_t += cu.timeLoss;
        unified_edp += cu.normalizedEdp;
        workpath_e += versus("A", bench, 16, "workpath").energySavings;
        const Versus cl = versus("A", bench, 16, "workload");
        workload_e += cl.energySavings;
        workload_t += cl.timeLoss;
    }
    // Every policy saves energy on average.
    EXPECT_GT(unified_e, 0.0);
    EXPECT_GT(workpath_e, 0.0);
    EXPECT_GT(workload_e, 0.0);
    // Unified's hallmark is the trade: markedly less time loss than
    // the aggressive workload-only arm, with EDP below baseline.
    EXPECT_LT(unified_t, workload_t);
    EXPECT_LT(unified_edp / 5.0, 1.0);
}

TEST(Integration, SimRunIsTheMeanOfTheKeptTrials)
{
    // The sim substrate's protocol, recomputed by hand: trial t
    // generates at seed + 7919 t and simulates at seed * 31 + t; the
    // first 2 of 20 trials are discarded.
    const auto config = simConfig("B", "sort", 4, "unified");
    const auto result = scenario::runScenario(config);

    sim::SimConfig sc;
    sc.profile = platform::systemB();
    sc.numWorkers = 4;
    sc.enableTempo = true;
    sc.tempo.policy = core::TempoPolicy::Unified;
    util::TrialSet seconds(2), joules(2);
    for (unsigned t = 0; t < 20; ++t) {
        sim::WorkloadParams wp;
        wp.fmaxMhz = 3600;
        wp.seed = config.seed + 7919ULL * t;
        sc.seed = config.seed * 31ULL + t;
        const auto r = sim::simulate(sim::makeBenchmark("sort", wp), sc);
        seconds.add(r.seconds);
        joules.add(r.joules);
    }
    EXPECT_EQ(seconds.keptCount(), 18u);
    EXPECT_EQ(result.wallSeconds, seconds.mean());
    EXPECT_EQ(result.metrics.at("seconds"), seconds.mean());
    EXPECT_EQ(result.metrics.at("joules"), joules.mean());
    EXPECT_EQ(result.metrics.at("edp"), seconds.mean() * joules.mean());
    EXPECT_EQ(result.deterministic.back().first, "mean_joules_nj");
    EXPECT_EQ(result.deterministic.back().second,
              static_cast<uint64_t>(std::llround(joules.mean() * 1e9)));
}

TEST(Integration, SimRunIsDeterministicPerSeed)
{
    auto config = simConfig("B", "sort", 4, "unified");
    const auto a = scenario::runScenario(config);
    const auto b = scenario::runScenario(config);
    EXPECT_EQ(a.metrics, b.metrics);
    EXPECT_EQ(a.deterministic, b.deterministic);
    config.seed += 1;
    const auto c = scenario::runScenario(config);
    EXPECT_NE(a.wallSeconds, c.wallSeconds);
}

TEST(Integration, SimEventsAreTrialZerosPowerTrace)
{
    // events.jsonl of a simulated run is trial 0's 100 Hz power
    // series, the paper's Figures 19-22.
    const auto config = simConfig("A", "knn", 8, "unified");
    const auto result = scenario::runScenario(config);

    sim::WorkloadParams wp;
    wp.seed = config.seed;
    sim::SimConfig sc;
    sc.numWorkers = 8;
    sc.enableTempo = true;
    sc.seed = config.seed * 31ULL;
    sc.recordPowerSeries = true;
    const auto trace =
        sim::simulate(sim::makeBenchmark("knn", wp), sc).powerSeries;
    ASSERT_FALSE(trace.empty());
    ASSERT_EQ(result.events.size(), trace.size());
    for (size_t i = 0; i < trace.size(); ++i) {
        EXPECT_EQ(result.events[i].packageWatts, trace[i]) << i;
        EXPECT_DOUBLE_EQ(result.events[i].tSec, i / 100.0) << i;
    }
}

TEST(Integration, ThreadedRuntimeRunsWorkloadsUnderTempo)
{
    runtime::RuntimeConfig cfg;
    cfg.numWorkers = 4;
    cfg.enableTempo = true;
    cfg.tempo.policy = core::TempoPolicy::Unified;
    runtime::Runtime rt(cfg);

    for (const auto &name : workloads::workloadNames()) {
        const uint64_t sum = workloads::runWorkload(rt, name, 30000,
                                                    5);
        EXPECT_NE(sum, 0u) << name;
    }
    // The controller observed real scheduler traffic.
    const auto k = rt.tempo()->counters();
    EXPECT_GT(k.outOfWorkEvents, 0u);
    EXPECT_GT(rt.backend().transitionCount(), 0u);
}

TEST(Integration, ControllerIsSubstrateAgnostic)
{
    // Replaying one hook trace into two controllers (different
    // backends) must produce identical tempo trajectories — the
    // property that lets the threaded runtime and the simulator
    // share the algorithm implementation.
    const auto ladder = platform::FrequencyLadder({2400, 1900,
                                                   1600});
    dvfs::SimulatedDvfs b1(8, ladder), b2(8, ladder);
    core::TempoConfig tc;
    tc.policy = core::TempoPolicy::Unified;
    tc.ladder = ladder;
    const std::vector<platform::DomainId> domain = {0, 1, 2, 3,
                                                    4, 5, 6, 7};
    core::TempoController c1(tc, b1, domain);
    core::TempoController c2(tc, b2, domain);
    c1.reset();
    c2.reset();

    util::Rng rng(77);
    std::vector<size_t> deque_size(8, 0);
    for (int i = 0; i < 5000; ++i) {
        const auto w = static_cast<core::WorkerId>(
            rng.uniformInt(0, 7));
        switch (rng.uniformInt(0, 3)) {
          case 0:
            c1.onPush(w, ++deque_size[w]);
            c2.onPush(w, deque_size[w]);
            break;
          case 1:
            if (deque_size[w] > 0) {
                c1.onPopSuccess(w, --deque_size[w]);
                c2.onPopSuccess(w, deque_size[w]);
            } else {
                c1.onOutOfWork(w);
                c2.onOutOfWork(w);
            }
            break;
          case 2: {
            auto v = static_cast<core::WorkerId>(
                rng.uniformInt(0, 6));
            if (v >= w)
                ++v;
            if (deque_size[v] > 0) {
                c1.onOutOfWork(w);
                c2.onOutOfWork(w);
                c1.onVictimStolen(v, --deque_size[v]);
                c2.onVictimStolen(v, deque_size[v]);
                c1.onStealSuccess(w, v);
                c2.onStealSuccess(w, v);
            }
            break;
          }
          default:
            break;
        }
        for (core::WorkerId x = 0; x < 8; ++x)
            ASSERT_EQ(c1.tempoOf(x), c2.tempoOf(x)) << "step " << i;
    }
    EXPECT_EQ(b1.transitionCount(), b2.transitionCount());
}

TEST(Integration, TwoFrequencyVsThreeFrequencyBothWork)
{
    // Figure 16/17's qualitative claim: both N choices deliver
    // similar results (neither degenerates).
    const Versus two = versus("A", "sort", 16, "unified", {2400, 1600});
    const Versus three =
        versus("A", "sort", 16, "unified", {2400, 1900, 1600});
    EXPECT_GT(two.energySavings, 0.0);
    EXPECT_GT(three.energySavings, 0.0);
    EXPECT_NEAR(two.energySavings, three.energySavings, 0.06);
}
