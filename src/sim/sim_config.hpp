/**
 * @file
 * Simulator configuration and result records.
 */

#ifndef HERMES_SIM_SIM_CONFIG_HPP
#define HERMES_SIM_SIM_CONFIG_HPP

#include <cstdint>
#include <vector>

#include "core/policy.hpp"
#include "core/tempo_controller.hpp"
#include "platform/system_profile.hpp"

namespace hermes::sim {

/**
 * Worker-core mapping the simulator models (paper Section 3.4):
 * Static pins each worker to its core once; Dynamic re-pins around
 * every WORK invocation and pays two affinity syscalls for it. The
 * threaded runtime keeps only the static mapping
 * (runtime::SchedulingMode).
 */
enum class SchedulingMode { Static, Dynamic };

/** Options for one simulated execution. */
struct SimConfig
{
    /** Platform (topology, ladder, power calibration). */
    platform::SystemProfile profile = platform::systemA();

    /** Worker count; placed one per clock domain (paper placement).
     * Must not exceed the profile's domain count. */
    unsigned numWorkers = 16;

    /** Wire the tempo controller (false = plain work stealing at the
     * fastest frequency — the Intel Cilk Plus baseline arm). */
    bool enableTempo = false;

    /** Tempo settings; ladder defaults to the profile's paper pair. */
    core::TempoConfig tempo{};

    /** Static vs dynamic worker-core scheduling (Section 3.4);
     * dynamic pays affinity costs around every WORK invocation. */
    SchedulingMode scheduling = SchedulingMode::Static;

    /** Victim-selection / wake-choice RNG seed. */
    uint64_t seed = 1;

    // --- overhead model (Section 3.4 "Overhead") ---

    /** Cost of one successful steal (lock, head move, hand-off). */
    double stealLatencySec = 2e-6;

    /** Caller-side cost of issuing one DVFS request. */
    double dvfsCallCostSec = 3e-6;

    /** One affinity syscall (dynamic scheduling pays two per WORK). */
    double affinityCostSec = 1.5e-6;

    /** Idle worker wake-up delay after a push. */
    double wakeLatencySec = 1e-6;

    /** Idle steal-retry backoff: initial and cap. */
    double initialBackoffSec = 10e-6;
    double maxBackoffSec = 200e-6;

    /** Record the 100 Hz power trace (Figures 19-22). */
    bool recordPowerSeries = false;
};

/** Aggregate counters from one simulated run. */
struct SimStats
{
    uint64_t pushes = 0;
    uint64_t pops = 0;
    uint64_t steals = 0;
    uint64_t failedStealScans = 0;
    uint64_t wakes = 0;
    uint64_t dvfsRequests = 0;
    uint64_t eventsProcessed = 0;
    double executedCycles = 0.0;  ///< work-conservation check
};

/** Outcome of one simulated execution. */
struct SimResult
{
    double seconds = 0.0;       ///< makespan (virtual time)
    double joules = 0.0;        ///< exact integrated package energy
    double seriesJoules = 0.0;  ///< 100 Hz sampled energy (paper rig)
    SimStats stats;
    core::TempoCounters tempoCounters;
    std::vector<double> powerSeries;  ///< watts at 100 Hz (optional)

    /** Busy worker-seconds spent at each profile-ladder rung
     * (index 0 = fastest); the tempo-exposure breakdown. */
    std::vector<double> busySecondsAtRung;

    /** Energy-delay product. */
    double edp() const { return joules * seconds; }
};

} // namespace hermes::sim

#endif // HERMES_SIM_SIM_CONFIG_HPP
