#include "dvfs/simulated.hpp"

#include "util/assert.hpp"

namespace hermes::dvfs {

SimulatedDvfs::SimulatedDvfs(unsigned num_domains,
                             platform::FrequencyLadder ladder)
    : ladder_(std::move(ladder)), freqs_(num_domains)
{
    HERMES_ASSERT(num_domains > 0, "need at least one clock domain");
    for (auto &f : freqs_)
        f.store(ladder_.fastest(), std::memory_order_relaxed);
}

platform::FreqMhz
SimulatedDvfs::domainFreq(platform::DomainId domain) const
{
    HERMES_ASSERT(domain < freqs_.size(),
                  "domain " << domain << " out of range");
    return freqs_[domain].load(std::memory_order_relaxed);
}

void
SimulatedDvfs::setDomainFreq(platform::DomainId domain,
                             platform::FreqMhz freq_mhz)
{
    HERMES_ASSERT(ladder_.contains(freq_mhz),
                  freq_mhz << " MHz is not a ladder rung");
    HERMES_ASSERT(domain < freqs_.size(),
                  "domain " << domain << " out of range");
    auto &word = freqs_[domain];
    if (word.load(std::memory_order_relaxed) == freq_mhz)
        return;
    word.store(freq_mhz, std::memory_order_relaxed);
    transitions_.store(transitions_.load(std::memory_order_relaxed) + 1,
                       std::memory_order_relaxed);
}

} // namespace hermes::dvfs
