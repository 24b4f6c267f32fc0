/**
 * @file
 * The stealing-policy layer: what a thief steals, from whom, and in
 * what order (docs/STEALING.md).
 *
 * Policy is split from mechanism. The mechanism — WsDeque's bulk
 * stealHalf operation and the ParkingLot's per-worker wake words —
 * lives in deque.{hpp,cpp} and parking_lot.{hpp,cpp}; this
 * header holds the pure victim-ordering function the scheduler's
 * hunt follows, factored out so tests can assert probe order without
 * running threads.
 *
 * A successful steal always takes ceil(n/2) of the victim's n queued
 * tasks (WsDeque::stealHalf); the thief runs one, stocks its own
 * deque with the rest, and chains wakes for the surplus. The victim
 * order is one same-domain pass before the global random ring
 * (Suksompong et al.'s localized work stealing), which degrades to
 * the uniform ring on single-domain hardware. The worker → domain
 * map it follows is RuntimeConfig::domainMap or the one derived from
 * the platform topology.
 */

#ifndef HERMES_RUNTIME_STEAL_POLICY_HPP
#define HERMES_RUNTIME_STEAL_POLICY_HPP

#include <vector>

#include "core/worker_id.hpp"
#include "util/rng.hpp"

namespace hermes::runtime {

/**
 * Append one hunt's victim probe order to `out` (cleared first).
 *
 * Order: one pass over `local_peers` from a random start within the
 * peer list, then the global ring — every worker except `self` once,
 * from a random start. The global start is drawn *after* the
 * locality pass. The pass is skipped when there are no peers, or
 * when it would cover every other worker anyway (single-domain maps,
 * where `local_peers` is all of them) — it adds no information
 * there. A skipped pass draws nothing, so such a hunt consumes
 * exactly one RNG draw and follows the uniform random ring.
 *
 * @param rng per-thief random stream (advanced by 1 draw per
 *        emitted pass)
 * @param self the hunting worker; never emitted
 * @param num_workers dense worker-id space size
 * @param local_peers same-domain workers other than self, ascending
 *        (DomainMap::peersOf)
 * @param out receives the probe order; reused hunt to hunt
 */
void appendVictimOrder(util::Rng &rng, core::WorkerId self,
                       unsigned num_workers,
                       const std::vector<core::WorkerId> &local_peers,
                       std::vector<core::WorkerId> &out);

} // namespace hermes::runtime

#endif // HERMES_RUNTIME_STEAL_POLICY_HPP
