#include "runtime/steal_policy.hpp"

namespace hermes::runtime {

void
appendVictimOrder(util::Rng &rng, core::WorkerId self,
                  unsigned num_workers,
                  const std::vector<core::WorkerId> &local_peers,
                  unsigned locality_rounds,
                  std::vector<core::WorkerId> &out)
{
    out.clear();
    if (num_workers < 2)
        return;

    // Locality passes: probe the same-domain neighbourhood first.
    // Skipped when it would equal the global ring (every other
    // worker is local) so the single-domain default stays on the
    // legacy RNG stream — see the header contract.
    const size_t peers = local_peers.size();
    if (peers > 0 && peers < num_workers - 1) {
        for (unsigned round = 0; round < locality_rounds; ++round) {
            const auto start = static_cast<size_t>(rng.uniformInt(
                0, static_cast<int64_t>(peers) - 1));
            for (size_t k = 0; k < peers; ++k)
                out.push_back(local_peers[(start + k) % peers]);
        }
    }

    // Global fallback ring: every worker except self once, from a
    // random start. The draw happens *after* the locality passes so
    // locality_rounds == 0 replays the legacy victim order exactly.
    const auto start = static_cast<unsigned>(rng.uniformInt(
        0, static_cast<int64_t>(num_workers) - 1));
    for (unsigned k = 0; k < num_workers; ++k) {
        const auto victim =
            static_cast<core::WorkerId>((start + k) % num_workers);
        if (victim != self)
            out.push_back(victim);
    }
}

} // namespace hermes::runtime
