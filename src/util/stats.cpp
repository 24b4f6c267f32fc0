#include "util/stats.hpp"

namespace hermes::util {

double
TrialSet::mean() const
{
    // A running mean, in arrival order: the committed figure tables
    // hold exactly these rounding steps.
    double mean = 0.0;
    size_t n = 0;
    for (size_t i = warmupTrials_; i < values_.size(); ++i) {
        ++n;
        mean += (values_[i] - mean) / static_cast<double>(n);
    }
    return mean;
}

size_t
TrialSet::keptCount() const
{
    return values_.size() > warmupTrials_
        ? values_.size() - warmupTrials_ : 0;
}

} // namespace hermes::util
