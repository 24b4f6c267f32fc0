/**
 * @file
 * The stealing-policy layer: what a thief steals, from whom, and in
 * what order (docs/STEALING.md).
 *
 * Policy is split from mechanism. The mechanism — WsDeque's bulk
 * stealHalf operation and the ParkingLot's per-worker wake words —
 * lives in deque.{hpp,cpp} and parking_lot.{hpp,cpp}; this
 * header holds the knobs (StealPolicy) and the pure victim-ordering
 * function the scheduler's hunt follows, factored out so tests can
 * assert probe order without running threads.
 */

#ifndef HERMES_RUNTIME_STEAL_POLICY_HPP
#define HERMES_RUNTIME_STEAL_POLICY_HPP

#include <optional>
#include <vector>

#include "core/worker_id.hpp"
#include "platform/topology.hpp"
#include "util/rng.hpp"

namespace hermes::runtime {

/**
 * Stealing-policy knobs (part of RuntimeConfig).
 *
 * A successful steal always takes ceil(n/2) of the victim's n queued
 * tasks (WsDeque::stealHalf); the thief runs one, stocks its own
 * deque with the rest, and chains wakes for the surplus. These knobs
 * set the victim order: one same-domain victim pass before the
 * global random ring by default (Suksompong et al.'s localized work
 * stealing), which degrades to the uniform ring on single-domain
 * hardware.
 */
struct StealPolicy
{
    /**
     * Same-domain victim passes per hunt before falling back to the
     * global random ring. 0 reproduces the uniform random ring
     * bitwise-identically under a fixed seed (the locality pass
     * consumes no RNG draws when disabled). Values > 1 re-probe the
     * local neighbourhood, which pays off when same-domain victims
     * refill quickly (deep fork-join bursts).
     */
    unsigned localityRounds = 1;

    /**
     * Worker → domain override for tests and simulation. When unset
     * the runtime derives the map from the platform topology and the
     * planned worker → core placement, degrading to one domain on
     * unknown hardware. Must cover exactly numWorkers workers when
     * set.
     */
    std::optional<platform::DomainMap> domainMap{};
};

/**
 * Append one hunt's victim probe order to `out` (cleared first).
 *
 * Order: `locality_rounds` passes over `local_peers` (each pass from
 * a random start within the peer list), then the global ring — every
 * worker except `self` once, from a random start. The global start
 * is drawn *after* the locality passes, so with `locality_rounds ==
 * 0` the function consumes exactly one RNG draw and reproduces the
 * legacy uniform ring bitwise-identically. A locality pass that
 * would cover every other worker anyway (single-domain maps, where
 * `local_peers` is all of them) is skipped for the same reason — it
 * adds no information and would desynchronize the RNG stream.
 *
 * @param rng per-thief random stream (advanced by 1 draw per
 *        emitted pass)
 * @param self the hunting worker; never emitted
 * @param num_workers dense worker-id space size
 * @param local_peers same-domain workers other than self, ascending
 *        (DomainMap::peersOf)
 * @param locality_rounds same-domain passes before the global ring
 * @param out receives the probe order; reused hunt to hunt
 */
void appendVictimOrder(util::Rng &rng, core::WorkerId self,
                       unsigned num_workers,
                       const std::vector<core::WorkerId> &local_peers,
                       unsigned locality_rounds,
                       std::vector<core::WorkerId> &out);

} // namespace hermes::runtime

#endif // HERMES_RUNTIME_STEAL_POLICY_HPP
