/**
 * @file
 * Tempo-control policies and configuration.
 *
 * The three policies are the paper's HERMES arms: each strategy
 * alone (Figures 10-13) and the unified algorithm. The fourth arm,
 * unmodified work stealing, is tempo off: no controller at all
 * (`enableTempo` in the runtime and simulator configs).
 */

#ifndef HERMES_CORE_POLICY_HPP
#define HERMES_CORE_POLICY_HPP

#include <cstddef>
#include <optional>
#include <string>

#include "platform/frequency.hpp"

namespace hermes::core {

/** Which tempo-control strategies are active. */
enum class TempoPolicy
{
    WorkpathOnly,   ///< Section 3.1 only
    WorkloadOnly,   ///< Section 3.2 only
    Unified,        ///< Section 3.3 (full HERMES)
};

/** Short name for reports ("workpath", "workload", "unified"). */
std::string toString(TempoPolicy policy);

/** Parse a policy name; fatal() on unknown names. */
TempoPolicy policyFromString(const std::string &name);

/** Whether the policy includes workpath-sensitive control. */
inline bool
hasWorkpath(TempoPolicy p)
{
    return p == TempoPolicy::WorkpathOnly || p == TempoPolicy::Unified;
}

/** Whether the policy includes workload-sensitive control. */
inline bool
hasWorkload(TempoPolicy p)
{
    return p == TempoPolicy::WorkloadOnly || p == TempoPolicy::Unified;
}

/** Configuration of the tempo controller. */
struct TempoConfig
{
    TempoPolicy policy = TempoPolicy::Unified;

    /**
     * Usable frequencies, fastest first. This is the N-frequency
     * selection of Section 3.4: pass the full hardware ladder for
     * n-frequency control or a restricted subset (e.g. the 2.4/1.6 GHz
     * pair) for the paper's 2-frequency experiments. Leave unset to
     * let the execution substrate derive the paper's default pair
     * from its system profile (platform::defaultTempoLadder).
     */
    std::optional<platform::FrequencyLadder> ladder;

    /** K, the number of deque-size thresholds (Section 3.2). */
    unsigned numThresholds = 2;

    /** Samples averaged into L before thresholds are recomputed. */
    size_t profilerWindow = 64;
};

} // namespace hermes::core

#endif // HERMES_CORE_POLICY_HPP
