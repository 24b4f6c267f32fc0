/**
 * @file
 * Figures 19-22: time series of power samples (the 100 Hz DAQ
 * emulation) under static vs dynamic scheduling — KNN and Ray with
 * 16 and 8 workers on System A. Each series is a single HERMES
 * execution, like the paper's traces; the two modes are different
 * runs, so spikes need not align.
 *
 * Output: an ASCII sparkline per trace on stdout plus one CSV per
 * figure with the full sample series.
 */

#include <cstdio>

#include "figure_common.hpp"
#include "util/csv.hpp"

using namespace hermes;

namespace {

void
trace(const std::string &figure_id, const std::string &bench_name,
      unsigned workers)
{
    harness::ExperimentConfig cfg;
    cfg.profile = platform::systemA();
    cfg.benchmark = bench_name;
    cfg.workers = workers;
    cfg.policy = core::TempoPolicy::Unified;

    util::CsvWriter csv(harness::resultsDir() + "/" + figure_id
                        + ".csv");
    csv.row({"sample", "t_sec", "watts_static", "watts_dynamic"});

    cfg.scheduling = sim::SchedulingMode::Static;
    const auto rs = harness::runOnce(cfg, 0, true);
    cfg.scheduling = sim::SchedulingMode::Dynamic;
    const auto rd = harness::runOnce(cfg, 1, true);

    std::printf("\n=== %s: %s, %u workers, System A ===\n",
                figure_id.c_str(), bench_name.c_str(), workers);
    std::printf("static  (%5.3fs, %6.2fJ): %s\n", rs.seconds,
                rs.joules,
                harness::sparkline(rs.powerSeries).c_str());
    std::printf("dynamic (%5.3fs, %6.2fJ): %s\n", rd.seconds,
                rd.joules,
                harness::sparkline(rd.powerSeries).c_str());

    const size_t n = std::max(rs.powerSeries.size(),
                              rd.powerSeries.size());
    for (size_t i = 0; i < n; ++i) {
        const double ws = i < rs.powerSeries.size()
            ? rs.powerSeries[i] : 0.0;
        const double wd = i < rd.powerSeries.size()
            ? rd.powerSeries[i] : 0.0;
        csv.rowNumeric(std::to_string(i),
                       {static_cast<double>(i) / 100.0, ws, wd});
    }
    csv.close();
}

} // namespace

int
main()
{
    trace("fig19", "knn", 16);
    trace("fig20", "knn", 8);
    trace("fig21", "ray", 16);
    trace("fig22", "ray", 8);
    std::printf("\nCSV series written to %s/fig19..22.csv\n",
                harness::resultsDir().c_str());
    return 0;
}
