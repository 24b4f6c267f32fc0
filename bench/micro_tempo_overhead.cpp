/**
 * @file
 * Micro-benchmarks of the tempo controller itself: per-hook cost of
 * the Figure 5 events under each policy, and the immediacy-list
 * operations. This quantifies overhead source (2) of Section 3.4
 * (online profiling) and the bookkeeping around (1) (DVFS calls are
 * counted but the backend here is in-memory).
 */

#include <benchmark/benchmark.h>

#include "core/tempo_controller.hpp"
#include "dvfs/simulated.hpp"
#include "platform/system_profile.hpp"

using namespace hermes;

namespace {

struct Fixture
{
    explicit Fixture(core::TempoPolicy policy)
        : profile(platform::systemA()),
          backend(profile.topology.numDomains(), profile.ladder),
          controller(makeConfig(policy), backend, oneDomainEach())
    {
        controller.reset();
    }

    /** 16 workers, worker w on domain w. */
    static std::vector<platform::DomainId>
    oneDomainEach()
    {
        std::vector<platform::DomainId> domain_of(16);
        for (unsigned w = 0; w < 16; ++w)
            domain_of[w] = w;
        return domain_of;
    }

    static core::TempoConfig
    makeConfig(core::TempoPolicy policy)
    {
        core::TempoConfig cfg;
        cfg.policy = policy;
        cfg.ladder = platform::FrequencyLadder({2400, 1600});
        return cfg;
    }

    platform::SystemProfile profile;
    dvfs::SimulatedDvfs backend;
    core::TempoController controller;
};

void
benchPushPopHooks(benchmark::State &state)
{
    Fixture fx(static_cast<core::TempoPolicy>(state.range(0)));
    for (auto _ : state) {
        for (size_t size = 1; size <= 16; ++size)
            fx.controller.onPush(3, size);
        for (size_t size = 16; size-- > 0;)
            fx.controller.onPopSuccess(3, size);
    }
    state.SetItemsProcessed(state.iterations() * 32);
}

void
benchStealHooks(benchmark::State &state)
{
    Fixture fx(static_cast<core::TempoPolicy>(state.range(0)));
    for (auto _ : state) {
        // thief 1 steals from 0, then runs dry (relay + unlink)
        fx.controller.onStealSuccess(1, 0);
        fx.controller.onOutOfWork(1);
    }
    state.SetItemsProcessed(state.iterations() * 2);
}

void
benchRelayChain(benchmark::State &state)
{
    Fixture fx(core::TempoPolicy::Unified);
    for (auto _ : state) {
        // Build a 15-deep thief chain, then relay from its head.
        for (core::WorkerId w = 1; w < 16; ++w)
            fx.controller.onStealSuccess(w, w - 1);
        fx.controller.onOutOfWork(0);
        for (core::WorkerId w = 1; w < 16; ++w)
            fx.controller.onOutOfWork(w);
    }
    state.SetItemsProcessed(state.iterations() * 31);
}

} // namespace

// Arg: TempoPolicy (0 WorkpathOnly, 1 WorkloadOnly, 2 Unified).
// Under WorkpathOnly the push/pop hooks return before the lock.
BENCHMARK(benchPushPopHooks)->Arg(0)->Arg(1)->Arg(2);
BENCHMARK(benchStealHooks)->Arg(0)->Arg(1)->Arg(2);
BENCHMARK(benchRelayChain);

BENCHMARK_MAIN();
