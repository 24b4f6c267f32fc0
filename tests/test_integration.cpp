/**
 * @file
 * End-to-end integration tests: the full pipeline (generator ->
 * simulator -> tempo controller -> energy ledger -> harness) must
 * reproduce the paper's qualitative claims, and the two execution
 * substrates must drive the identical controller code.
 */

#include <gtest/gtest.h>

#include "dvfs/simulated.hpp"
#include "harness/experiment.hpp"
#include "runtime/parallel.hpp"
#include "runtime/scheduler.hpp"
#include "sim/dag_generators.hpp"
#include "sim/simulator.hpp"
#include "workloads/registry.hpp"

using namespace hermes;

namespace {

harness::ExperimentConfig
cfgFor(const std::string &bench, unsigned workers,
       const platform::SystemProfile &profile)
{
    harness::ExperimentConfig cfg;
    cfg.profile = profile;
    cfg.benchmark = bench;
    cfg.workers = workers;
    cfg.trials = 5;
    cfg.warmupTrials = 1;
    return cfg;
}

} // namespace

TEST(Integration, PaperHeadlineShapeSystemB)
{
    // Every benchmark at full System B width: positive savings,
    // bounded loss, EDP <= ~1 (the paper: EDP improved without
    // exception).
    for (const auto &bench : sim::benchmarkNames()) {
        const auto cmp = harness::compareToBaseline(
            cfgFor(bench, 4, platform::systemB()));
        EXPECT_GT(cmp.energySavings(), 0.0) << bench;
        EXPECT_LT(cmp.timeLoss(), 0.10) << bench;
        EXPECT_LT(cmp.normalizedEdp(), 1.03) << bench;
    }
}

TEST(Integration, UnifiedBeatsSingleStrategiesOnTimeLoss)
{
    // The paper's complementarity claim, averaged over benchmarks:
    // each strategy alone loses more time than unified.
    double unified_loss = 0.0, single_loss = 0.0;
    for (const auto &bench : sim::benchmarkNames()) {
        auto cfg = cfgFor(bench, 16, platform::systemA());
        const auto cu = harness::compareToBaseline(cfg);
        cfg.policy = core::TempoPolicy::WorkpathOnly;
        const auto cp = harness::compareToBaseline(cfg);
        cfg.policy = core::TempoPolicy::WorkloadOnly;
        const auto cl = harness::compareToBaseline(cfg);
        unified_loss += cu.timeLoss();
        single_loss += 0.5 * (cp.timeLoss() + cl.timeLoss());
    }
    EXPECT_LT(unified_loss, single_loss);
}

TEST(Integration, UnifiedBalancesSavingsAgainstLoss)
{
    // Averaged over benchmarks on System A at 16 workers: every arm
    // saves energy, unified loses less time than workload-only
    // (which lacks the relay and the head guard), and unified's EDP
    // is below baseline. No energy ranking between the arms is
    // asserted. bench/fig10_11_ablation_a.cpp and
    // bench/fig12_13_ablation_b.cpp print the same comparison as the
    // paper's Figures 10-13.
    double unified_e = 0.0, workpath_e = 0.0, workload_e = 0.0;
    double unified_t = 0.0, workload_t = 0.0;
    double unified_edp = 0.0;
    for (const auto &bench : sim::benchmarkNames()) {
        auto cfg = cfgFor(bench, 16, platform::systemA());
        const auto cu = harness::compareToBaseline(cfg);
        unified_e += cu.energySavings();
        unified_t += cu.timeLoss();
        unified_edp += cu.normalizedEdp();
        cfg.policy = core::TempoPolicy::WorkpathOnly;
        workpath_e +=
            harness::compareToBaseline(cfg).energySavings();
        cfg.policy = core::TempoPolicy::WorkloadOnly;
        const auto cl = harness::compareToBaseline(cfg);
        workload_e += cl.energySavings();
        workload_t += cl.timeLoss();
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
    auto domain = [](core::WorkerId w) {
        return static_cast<platform::DomainId>(w);
    };
    core::TempoController c1(tc, b1, 8, domain);
    core::TempoController c2(tc, b2, 8, domain);
    c1.reset(0.0);
    c2.reset(0.0);

    util::Rng rng(77);
    std::vector<size_t> deque_size(8, 0);
    for (int i = 0; i < 5000; ++i) {
        const auto w = static_cast<core::WorkerId>(
            rng.uniformInt(0, 7));
        const double t = i * 1e-6;
        switch (rng.uniformInt(0, 3)) {
          case 0:
            c1.onPush(w, ++deque_size[w], t);
            c2.onPush(w, deque_size[w], t);
            break;
          case 1:
            if (deque_size[w] > 0) {
                c1.onPopSuccess(w, --deque_size[w], t);
                c2.onPopSuccess(w, deque_size[w], t);
            } else {
                c1.onOutOfWork(w, t);
                c2.onOutOfWork(w, t);
            }
            break;
          case 2: {
            auto v = static_cast<core::WorkerId>(
                rng.uniformInt(0, 6));
            if (v >= w)
                ++v;
            if (deque_size[v] > 0) {
                c1.onOutOfWork(w, t);
                c2.onOutOfWork(w, t);
                c1.onVictimStolen(v, --deque_size[v], t);
                c2.onVictimStolen(v, deque_size[v], t);
                c1.onStealSuccess(w, v, t);
                c2.onStealSuccess(w, v, t);
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
    const auto profile = platform::systemA();
    auto cfg = cfgFor("sort", 16, profile);
    cfg.ladder = profile.ladder.select({2400, 1600});
    const auto two = harness::compareToBaseline(cfg);
    cfg.ladder = profile.ladder.select({2400, 1900, 1600});
    const auto three = harness::compareToBaseline(cfg);
    EXPECT_GT(two.energySavings(), 0.0);
    EXPECT_GT(three.energySavings(), 0.0);
    EXPECT_NEAR(two.energySavings(), three.energySavings(), 0.06);
}
