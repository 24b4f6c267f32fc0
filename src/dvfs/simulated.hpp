/**
 * @file
 * Simulated DVFS backend.
 *
 * Substitutes for the per-core DVFS hardware of the paper's AMD
 * systems (see docs/ENERGY_MODEL.md) on the threaded runtime: one
 * frequency word per clock domain, validated against the ladder, and
 * a count of accepted transitions. Nothing here grows with the run.
 *
 * One writer at a time: the tempo controller's mutex serializes
 * every request, so the words and the count are written with plain
 * relaxed stores, never a read-modify-write. Readers (the power
 * model's snapshot, reports) may load them from any thread at any
 * time; a relaxed read sees some rung the domain was set to.
 */

#ifndef HERMES_DVFS_SIMULATED_HPP
#define HERMES_DVFS_SIMULATED_HPP

#include <atomic>
#include <cstdint>
#include <vector>

#include "dvfs/backend.hpp"
#include "platform/frequency.hpp"

namespace hermes::dvfs {

/** One frequency word per domain plus a transition count. */
class SimulatedDvfs : public DvfsBackend
{
  public:
    /**
     * Every domain starts at the ladder's fastest rung.
     * @param num_domains independently scalable domains
     * @param ladder the frequencies requests must come from
     */
    SimulatedDvfs(unsigned num_domains,
                  platform::FrequencyLadder ladder);

    unsigned numDomains() const override
    {
        return static_cast<unsigned>(freqs_.size());
    }

    platform::FreqMhz
    domainFreq(platform::DomainId domain) const override;

    /** Callers must not race each other (see the file comment). */
    void setDomainFreq(platform::DomainId domain,
                       platform::FreqMhz freq_mhz) override;

    /** Total accepted (non-redundant) transitions so far. */
    uint64_t transitionCount() const
    {
        return transitions_.load(std::memory_order_relaxed);
    }

  private:
    platform::FrequencyLadder ladder_;
    std::vector<std::atomic<platform::FreqMhz>> freqs_;
    std::atomic<uint64_t> transitions_{0};
};

} // namespace hermes::dvfs

#endif // HERMES_DVFS_SIMULATED_HPP
