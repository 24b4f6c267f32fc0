/**
 * @file
 * The DVFS abstraction HERMES drives.
 *
 * The tempo controller only ever needs two operations: read a clock
 * domain's current frequency and request a new one. Keeping the
 * interface this small lets the identical controller run against the
 * runtime's frequency words, the simulator's event backend, or a
 * test recorder.
 *
 * A request carries no time: Figure 5 decides on scheduler events,
 * not on a clock. A backend that needs one stamps the request itself
 * (the simulator schedules each change to take effect one transition
 * latency after its own current event time).
 */

#ifndef HERMES_DVFS_BACKEND_HPP
#define HERMES_DVFS_BACKEND_HPP

#include "platform/frequency.hpp"
#include "platform/topology.hpp"

namespace hermes::dvfs {

/** Abstract per-clock-domain frequency control. */
class DvfsBackend
{
  public:
    virtual ~DvfsBackend() = default;

    /** Number of independently scalable clock domains. */
    virtual unsigned numDomains() const = 0;

    /** Current frequency of `domain` in MHz. */
    virtual platform::FreqMhz
    domainFreq(platform::DomainId domain) const = 0;

    /**
     * Request `freq_mhz` on `domain`. Redundant requests (same
     * frequency) must be cheap no-ops.
     */
    virtual void setDomainFreq(platform::DomainId domain,
                               platform::FreqMhz freq_mhz) = 0;
};

} // namespace hermes::dvfs

#endif // HERMES_DVFS_BACKEND_HPP
