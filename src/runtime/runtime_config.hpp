/**
 * @file
 * Threaded-runtime configuration.
 */

#ifndef HERMES_RUNTIME_RUNTIME_CONFIG_HPP
#define HERMES_RUNTIME_RUNTIME_CONFIG_HPP

#include <cstdint>
#include <thread>

#include "core/policy.hpp"
#include "platform/system_profile.hpp"
#include "runtime/deque.hpp"
#include "runtime/inject_queue.hpp"
#include "runtime/steal_policy.hpp"

namespace hermes::runtime {

/**
 * Worker-core mapping strategy (paper Section 3.4).
 *
 * - None: no pinning; suitable for containers that forbid affinity.
 * - Static: each worker is pinned to its planned core once at start.
 * - Dynamic: each worker re-pins around every WORK invocation (the
 *   paper's migration-tolerant mode; the extra affinity syscalls are
 *   its measured overhead).
 */
enum class SchedulingMode { None, Static, Dynamic };

/**
 * How frequency-dependent slowdown manifests on hardware that cannot
 * actually change frequency (this container): PostTaskSpin stretches
 * each task by f_max/f - 1 of its measured duration after it
 * completes, emulating the tempo at task granularity — consistent
 * with the paper's choice to never adjust tempo mid-task.
 */
enum class ThrottleMode { None, PostTaskSpin };

/** Construction-time options for Runtime. */
struct RuntimeConfig
{
    /** Worker thread count (>= 1). */
    unsigned numWorkers = defaultWorkers();

    /** Platform description used for core planning, clock domains,
     * and the power model. */
    platform::SystemProfile profile = platform::hostSystem();

    SchedulingMode scheduling = SchedulingMode::None;
    ThrottleMode throttle = ThrottleMode::None;

    /** Wire a TempoController into the scheduler hooks. */
    bool enableTempo = false;

    /** Tempo-control settings (policy, ladder, K, window). */
    core::TempoConfig tempo{};

    /** Victim-selection RNG seed. */
    uint64_t seed = 0x9e3779b97f4a7c15ULL;

    /** Stealing policy: locality-aware victim ordering and the
     * worker → domain map override (docs/STEALING.md). */
    StealPolicy stealPolicy{};

    /** External-submission policy: per-shard ring capacity of the
     * lock-free inject queue, one shard per domain
     * (docs/ARCHITECTURE.md, "The inject path"). */
    InjectPolicy inject{};

    /**
     * Event-driven idle parking: after `parkThreshold` consecutive
     * empty hunts a worker blocks on the runtime's ParkingLot until a
     * producer publishes work (empty→non-empty push or inject).
     * Disabling it degrades the idle path to a pure yield loop —
     * useful for measuring what parking saves, but it burns spin
     * power forever and can starve thieves on a single-CPU host.
     */
    bool enableParking = true;

    /** Consecutive empty hunts (each probing every victim once)
     * before an idle worker parks (>= 1). Small values park eagerly
     * and save the most energy; larger values absorb short work gaps
     * without the wake syscall. */
    unsigned parkThreshold = 4;

    /** Per-worker deque ring capacity (rounded up to 2^k). */
    size_t dequeCapacity = 1 << 13;

    /** Deque protocol: the lock-free Chase-Lev deque (default) or
     * the legacy mutex-guarded THE deque (`DequeImpl::The`) for A/B
     * replay (docs/STEALING.md, "The deque"). */
    DequePolicy deque{};

    static unsigned
    defaultWorkers()
    {
        const unsigned hc = std::thread::hardware_concurrency();
        return hc ? hc : 1;
    }
};

} // namespace hermes::runtime

#endif // HERMES_RUNTIME_RUNTIME_CONFIG_HPP
