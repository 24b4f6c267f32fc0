/**
 * @file
 * CPU topology: cores grouped into clock domains, plus the
 * worker-facing DomainMap the stealing policy consumes.
 *
 * On the paper's Piledriver/Bulldozer parts every two cores share one
 * clock domain, so DVFS on one core drags its sibling along. HERMES
 * avoids this interference by placing at most one worker per domain
 * (Section 4.1); the topology type makes that constraint explicit and
 * testable.
 *
 * A DomainMap is the scheduler's view of the same structure: it maps
 * dense worker ids to the cache/NUMA/clock domain hosting them, so
 * victim selection can probe same-domain deques first and wake
 * selection can prefer a same-domain parked worker
 * (docs/STEALING.md). On hardware the runtime cannot describe it
 * degrades gracefully to a single domain, which turns every locality
 * preference into a no-op.
 */

#ifndef HERMES_PLATFORM_TOPOLOGY_HPP
#define HERMES_PLATFORM_TOPOLOGY_HPP

#include <cstddef>
#include <vector>

namespace hermes::platform {

/** Hardware core identifier, 0-based. */
using CoreId = unsigned;

/** Clock-domain identifier, 0-based. */
using DomainId = unsigned;

/** Sentinel for "no domain preference" (external producers). */
inline constexpr DomainId invalidDomain = ~0u;

/** Cores partitioned into equal-size clock domains. */
class Topology
{
  public:
    /**
     * @param num_cores total cores; must be > 0
     * @param cores_per_domain domain width; must divide num_cores
     */
    Topology(unsigned num_cores, unsigned cores_per_domain);

    unsigned numCores() const { return numCores_; }
    unsigned coresPerDomain() const { return coresPerDomain_; }
    unsigned numDomains() const { return numCores_ / coresPerDomain_; }

    /** Clock domain hosting `core`. */
    DomainId domainOf(CoreId core) const;

    /** All cores inside `domain`. */
    std::vector<CoreId> coresIn(DomainId domain) const;

    /**
     * Pick `count` cores no two of which share a clock domain — the
     * paper's experimental placement. fatal() if count exceeds the
     * number of domains.
     */
    std::vector<CoreId> distinctDomainCores(unsigned count) const;

    bool operator==(const Topology &o) const = default;

  private:
    unsigned numCores_;
    unsigned coresPerDomain_;
};

/**
 * Worker → domain map consumed by the stealing policy
 * (docs/STEALING.md).
 *
 * Workers are dense 0-based ids, domains dense 0-based ids; two
 * workers in the same domain share a cache/NUMA/clock neighbourhood
 * and are cheap to steal between. The map is immutable after
 * construction: it follows the *planned* worker placement.
 */
class DomainMap
{
  public:
    /** Empty map (no workers). */
    DomainMap() = default;

    /**
     * Explicit map, mainly for tests and the simulator: element `w`
     * is the domain of worker `w`. Input ids must not be
     * invalidDomain; they are compacted to dense 0-based ids in
     * first-appearance order (only the partition matters, and
     * consumers index per-domain caches by id), so already-dense
     * inputs pass through unchanged.
     */
    explicit DomainMap(std::vector<DomainId> domain_of_worker);

    /** All `num_workers` workers in one domain — the graceful
     * fallback for hardware the runtime cannot describe; every
     * locality preference degenerates to the uniform policy. */
    static DomainMap uniform(unsigned num_workers);

    /**
     * Derive the map from a hardware topology and the planned
     * worker → core placement: worker `w` lives in
     * `topo.domainOf(worker_cores[w])`. A core outside the topology
     * (unknown hardware) degrades the whole map to uniform().
     * @param topo hardware core/domain structure
     * @param worker_cores planned host core of each worker
     */
    static DomainMap fromTopology(const Topology &topo,
                                  const std::vector<CoreId> &worker_cores);

    unsigned numWorkers() const
    {
        return static_cast<unsigned>(map_.size());
    }

    /** Number of distinct domains (0 when empty). */
    unsigned numDomains() const { return numDomains_; }

    /** Domain hosting `worker`. */
    DomainId domainOf(unsigned worker) const;

    /** Whether workers `a` and `b` share a domain. */
    bool sameDomain(unsigned a, unsigned b) const
    {
        return domainOf(a) == domainOf(b);
    }

    /** All workers hosted by `domain`, ascending. */
    std::vector<unsigned> workersIn(DomainId domain) const;

    /** Same-domain workers other than `worker`, ascending — the
     * victims a locality-aware hunt probes first. */
    std::vector<unsigned> peersOf(unsigned worker) const;

    bool operator==(const DomainMap &o) const = default;

  private:
    std::vector<DomainId> map_;
    unsigned numDomains_ = 0;
};

} // namespace hermes::platform

#endif // HERMES_PLATFORM_TOPOLOGY_HPP
