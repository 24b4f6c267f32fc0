/**
 * @file
 * Figure 18: static vs dynamic scheduling of workers (Section 3.4).
 * Dynamic scheduling re-pins around every WORK invocation; the extra
 * affinity syscalls make it slightly costlier in time and energy.
 */

#include "figure_common.hpp"

using namespace hermes;

int
main()
{
    const auto profile = platform::systemA();
    harness::ExperimentConfig proto;
    proto.profile = profile;
    harness::SweepContext ctx(proto);
    const auto workers = bench::workerSweep(profile);

    harness::FigureReport report(
        "fig18",
        "Static vs dynamic scheduling, HERMES unified on "
            + profile.name + " (energy savings % / time loss %)",
        {"bench/workers", "E% static", "T% static", "E% dynamic",
         "T% dynamic"});

    for (const auto &bench_name : sim::benchmarkNames()) {
        for (unsigned w : workers) {
            auto stat = ctx.make(bench_name, w);
            stat.scheduling = sim::SchedulingMode::Static;
            const auto cs = ctx.compare(stat);

            auto dyn = stat;
            dyn.scheduling = sim::SchedulingMode::Dynamic;
            const auto cd = ctx.compare(dyn);

            report.row(bench_name + "/" + std::to_string(w),
                       {cs.energySavings() * 100.0,
                        cs.timeLoss() * 100.0,
                        cd.energySavings() * 100.0,
                        cd.timeLoss() * 100.0});
        }
        std::fprintf(stderr, "  %s done\n", bench_name.c_str());
    }
    report.finish();
    return 0;
}
