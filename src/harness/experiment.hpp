/**
 * @file
 * The experiment protocol of Section 4.1, as a library.
 *
 * One experiment = (system, benchmark, worker count, policy,
 * frequency selection, scheduling mode). Following the paper, each
 * configuration runs `trials` trials whose first `warmupTrials` are
 * discarded, and HERMES arms are normalized against the unmodified
 * (Baseline) scheduler on the same inputs. Trials vary by seed,
 * which perturbs both the generated input (DAG grain draws) and the
 * schedule (victim selection).
 */

#ifndef HERMES_HARNESS_EXPERIMENT_HPP
#define HERMES_HARNESS_EXPERIMENT_HPP

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/policy.hpp"
#include "platform/system_profile.hpp"
#include "sim/sim_config.hpp"

namespace hermes::harness {

/** One experimental configuration. */
struct ExperimentConfig
{
    platform::SystemProfile profile = platform::systemA();
    std::string benchmark = "sort";
    unsigned workers = 16;

    core::TempoPolicy policy = core::TempoPolicy::Unified;

    /** Frequency selection; unset = the profile's paper default. */
    std::optional<platform::FrequencyLadder> ladder;

    unsigned numThresholds = 2;
    sim::SchedulingMode scheduling = sim::SchedulingMode::Static;

    /** Trial protocol (paper: 20 trials, discard first 2). */
    unsigned trials = defaultTrials();
    unsigned warmupTrials = 2;

    uint64_t baseSeed = 20140301;  // ASPLOS'14, why not
    double scale = 1.0;

    /**
     * Paper default is 20; override with HERMES_TRIALS for quick
     * runs (minimum 3 so at least one post-warmup trial remains).
     */
    static unsigned defaultTrials();
};

/** Trial-averaged measurements of one configuration. */
struct Measurement
{
    double meanSeconds = 0.0;
    double meanJoules = 0.0;
    double sdSeconds = 0.0;
    double sdJoules = 0.0;
    size_t keptTrials = 0;

    double meanEdp() const { return meanSeconds * meanJoules; }
};

/** Run all trials of `config` with its stated policy. */
Measurement measure(const ExperimentConfig &config);

/** Baseline (policy = Baseline) vs the configured policy. */
struct Comparison
{
    Measurement baseline;
    Measurement tempo;

    /** Fraction of baseline energy saved (positive = good). */
    double
    energySavings() const
    {
        return 1.0 - tempo.meanJoules / baseline.meanJoules;
    }

    /** Fractional slowdown (positive = HERMES slower). */
    double
    timeLoss() const
    {
        return tempo.meanSeconds / baseline.meanSeconds - 1.0;
    }

    /** EDP normalized to baseline (the paper's Figures 8/9). */
    double
    normalizedEdp() const
    {
        return tempo.meanEdp() / baseline.meanEdp();
    }
};

/**
 * Measure `config` against its own baseline arm (same inputs and
 * seeds, policy forced to Baseline).
 */
Comparison compareToBaseline(const ExperimentConfig &config);

/**
 * Single-trial run returning the full SimResult (power series
 * capture for the time-series figures).
 */
sim::SimResult runOnce(const ExperimentConfig &config,
                       unsigned trial, bool record_power_series);

/**
 * Shared driver for figure sweeps: runs configurations derived from
 * a prototype and caches baseline arms so that multi-arm figures
 * (frequency selection, N-frequency, ablations) measure each
 * baseline only once.
 */
class SweepContext
{
  public:
    /** @param prototype supplies profile, trials, seed, scale. */
    explicit SweepContext(ExperimentConfig prototype);

    /** Prototype with benchmark/workers substituted. */
    ExperimentConfig make(const std::string &benchmark,
                          unsigned workers) const;

    /** Cached baseline measurement for `config`'s inputs. */
    const Measurement &baselineFor(const ExperimentConfig &config);

    /** Measure `config` and pair it with its cached baseline. */
    Comparison compare(const ExperimentConfig &config);

  private:
    ExperimentConfig prototype_;
    std::map<std::string, Measurement> baselines_;
};

} // namespace hermes::harness

#endif // HERMES_HARNESS_EXPERIMENT_HPP
