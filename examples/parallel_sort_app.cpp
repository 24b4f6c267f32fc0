/**
 * @file
 * Sorting application with a live energy report.
 *
 *   $ ./parallel_sort_app [--n=8000000] [--workers=8]
 *
 * Sorts the same keys with parallel radix sort and parallel sample
 * sort under the baseline and the unified HERMES policy, sampling
 * modeled package power at 100 Hz (the paper's measurement rig)
 * while the computation runs.
 */

#include <cstdio>

#include "hermes.hpp"
#include "workloads/data_gen.hpp"
#include "workloads/sort_radix.hpp"
#include "workloads/sort_sample.hpp"

using namespace hermes;

namespace {

struct RunResult
{
    double seconds;
    double joules;
    double parkedFrac;     ///< share of worker-time spent parked
    double tasksPerSteal;  ///< mean tasks landed per steal-half grab
    double localFrac;      ///< share of steals from same-domain victims
    double injectFastFrac; ///< share of injects on the lock-free fast path
};

RunResult
runSort(bool use_sample_sort, core::TempoPolicy policy, size_t n,
        unsigned workers)
{
    runtime::RuntimeConfig cfg;
    cfg.numWorkers = workers;
    cfg.enableTempo = policy != core::TempoPolicy::Baseline;
    cfg.tempo.policy = policy;
    runtime::Runtime rt(cfg);

    auto keys = workloads::randomKeys(n, 12345);

    const energy::PowerModel model(cfg.profile);
    // Snapshot before the timed region: workers park while the keys
    // are generated, and that idle time is not the sort's.
    const uint64_t parked_before = rt.stats().parkedNanos;
    util::Stopwatch watch;
    harness::RunSampler sampler(rt, model, 100.0);
    if (use_sample_sort)
        workloads::sampleSort(rt, keys);
    else
        workloads::radixSort(rt, keys);
    const double secs = watch.elapsed();
    sampler.stop();
    const double parked_frac = static_cast<double>(
                                   rt.stats().parkedNanos
                                   - parked_before)
        / (secs * workers * 1e9);

    if (!std::is_sorted(keys.begin(), keys.end()))
        util::fatal("sort produced unsorted output");
    const auto s = rt.stats();
    const double local_frac = s.steals != 0
        ? static_cast<double>(s.localHits)
            / static_cast<double>(s.steals)
        : 0.0;
    return {secs, sampler.joules(), parked_frac, s.tasksPerSteal(),
            local_frac, s.injectFastFraction()};
}

} // namespace

int
main(int argc, char **argv)
{
    util::Cli cli("parallel sorting with an energy report");
    cli.addInt("n", "number of 32-bit keys", 8'000'000);
    cli.addInt("workers", "worker threads", 8);
    cli.parse(argc, argv);
    const auto n = static_cast<size_t>(cli.getInt("n"));
    const auto workers =
        static_cast<unsigned>(cli.getInt("workers"));

    std::printf("sorting %zu keys with %u workers\n\n", n, workers);
    std::printf("%-14s%-10s%12s%14s%12s%12s%12s%12s\n", "algorithm",
                "policy", "time (s)", "energy (J)*", "parked",
                "tasks/steal", "local", "inj-fast");
    for (const bool sample : {false, true}) {
        for (const auto policy : {core::TempoPolicy::Baseline,
                                  core::TempoPolicy::Unified}) {
            const auto r = runSort(sample, policy, n, workers);
            std::printf(
                "%-14s%-10s%12.3f%14.2f%11.1f%%%12.2f%11.1f%%"
                "%11.1f%%\n",
                sample ? "sample sort" : "radix sort",
                core::toString(policy).c_str(), r.seconds, r.joules,
                100.0 * r.parkedFrac, r.tasksPerSteal,
                100.0 * r.localFrac, 100.0 * r.injectFastFrac);
        }
    }
    std::printf("\n* modeled package energy sampled at 100 Hz; on "
                "stock container hardware\n  frequencies cannot "
                "actually change, so times match and the energy\n"
                "  column shows the model's view of the tempo "
                "decisions (see docs/ENERGY_MODEL.md).\n");
    return 0;
}
