/**
 * @file
 * The paper's trial-aggregation protocol.
 */

#ifndef HERMES_UTIL_STATS_HPP
#define HERMES_UTIL_STATS_HPP

#include <cstddef>
#include <vector>

namespace hermes::util {

/**
 * The paper's measurement protocol (Section 4.1): run `totalTrials`
 * trials, discard the first `warmupTrials`, average the rest.
 */
class TrialSet
{
  public:
    /** @param warmup_trials leading trials to discard (paper: 2). */
    explicit TrialSet(size_t warmup_trials = 2)
        : warmupTrials_(warmup_trials)
    {}

    /** Record the measurement of one trial, in arrival order. */
    void add(double value) { values_.push_back(value); }

    size_t count() const { return values_.size(); }

    /** Mean of the kept (post-warmup) trials; 0 if none is kept. */
    double mean() const;

    /** Number of trials that are kept (non-warmup). */
    size_t keptCount() const;

  private:
    size_t warmupTrials_;
    std::vector<double> values_;
};

} // namespace hermes::util

#endif // HERMES_UTIL_STATS_HPP
