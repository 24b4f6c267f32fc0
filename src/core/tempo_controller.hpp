/**
 * @file
 * The HERMES tempo controller — the paper's core contribution
 * (Figure 5), factored out of any particular scheduler.
 *
 * The controller consumes five scheduler events and drives a DVFS
 * backend:
 *
 *  - onStealSuccess(thief, victim): Thief Procrastination — the thief
 *    is set one tempo below its victim (DOWN(w, v)) and spliced into
 *    the immediacy list right after the victim (Figure 5 lines
 *    20-26).
 *  - onOutOfWork(w): Immediacy Relay — every worker downstream of w
 *    gets one tempo step up, then w is unlinked (lines 6-14).
 *  - onPush(w, size): workload control — crossing a threshold upward
 *    raises w's tempo (Algorithm 3.3).
 *  - onPopSuccess(w, size) / onVictimStolen(v, size): crossing a
 *    threshold downward lowers the tempo (Algorithms 3.4/3.5), unless
 *    the worker heads the immediacy list (`prev == null` guard, the
 *    single interaction point between the two strategies).
 *
 * Both execution substrates — the threaded runtime and the
 * discrete-event simulator — call these same hooks, so the algorithm
 * under test is literally identical code in both.
 *
 * The controller keeps only what Figure 5 decides on: each worker's
 * tempo, workload region and profiler, and the immediacy list. It
 * reads no clock (the profiler's window counts samples) and knows
 * nothing of parking: a parked worker left the list through the
 * onOutOfWork() that preceded its empty hunts, and Section 3.4's
 * rule that yielding changes no frequency covers parking too, so the
 * runtime's own parked flags are the only record of it.
 *
 * Thread safety: all hooks serialize on one internal mutex, which is
 * also what makes the controller the backend's only writer. Steal and
 * out-of-work events are rare; push/pop events take the lock for a
 * region check and, when the region moves, a frequency-word store.
 */

#ifndef HERMES_CORE_TEMPO_CONTROLLER_HPP
#define HERMES_CORE_TEMPO_CONTROLLER_HPP

#include <cstdint>
#include <mutex>
#include <vector>

#include "core/immediacy_list.hpp"
#include "core/policy.hpp"
#include "core/threshold_profiler.hpp"
#include "core/worker_id.hpp"
#include "dvfs/backend.hpp"
#include "platform/frequency.hpp"

namespace hermes::core {

/** Event counters for overhead analysis and tests. */
struct TempoCounters
{
    uint64_t stealDowns = 0;     ///< thief-procrastination DOWNs
    uint64_t relayUps = 0;       ///< immediacy-relay UPs
    uint64_t workloadUps = 0;    ///< threshold-crossing UPs
    uint64_t workloadDowns = 0;  ///< threshold-crossing DOWNs
    uint64_t guardBlocks = 0;    ///< downs blocked by prev==null
    uint64_t outOfWorkEvents = 0;
    uint64_t profilerPeriods = 0;
};

/** Figure 5's unified algorithm over an abstract DVFS backend. */
class TempoController
{
  public:
    /**
     * @param config policy, usable ladder (N-frequency selection,
     *        must be set — substrates resolve defaults before
     *        constructing), K, profiler window
     * @param backend DVFS sink; must outlive the controller
     * @param domain_of the clock domain hosting each worker, indexed
     *        by WorkerId; its size is the worker count. Workers stay
     *        on their domain for the controller's lifetime.
     */
    TempoController(TempoConfig config, dvfs::DvfsBackend &backend,
                    std::vector<platform::DomainId> domain_of);

    /** Bootstrap: every worker at the fastest tempo (Section 3.2),
     * lists cleared, profilers reset. */
    void reset();

    /** Hook: `thief` successfully stole from `victim`. A bulk
     * steal-half grab is still one steal event — thief
     * procrastination fires once per grab, like the single steal it
     * replaces; the surplus re-enters through onPush() as the thief
     * stocks its own deque (docs/STEALING.md). */
    void onStealSuccess(WorkerId thief, WorkerId victim);

    /** Hook: `w` found its deque empty (before hunting for victims). */
    void onOutOfWork(WorkerId w);

    /** Hook: `w` pushed; deque size is now `deque_size`. Fired for
     * spawned tasks and for bulk-steal surplus tasks alike, so
     * workload-threshold control sees the worker's real backlog. */
    void onPush(WorkerId w, size_t deque_size);

    /** Hook: `w` popped successfully; size is now `deque_size`. */
    void onPopSuccess(WorkerId w, size_t deque_size);

    /** Hook: `victim` was stolen from; size is now `deque_size`. */
    void onVictimStolen(WorkerId victim, size_t deque_size);

    // --- introspection (tests, reports) ---

    /** Current tempo of `w` as a ladder index (0 = fastest). */
    platform::FreqIndex tempoOf(WorkerId w) const;

    /** Current frequency of `w` in MHz. */
    platform::FreqMhz frequencyOf(WorkerId w) const;

    /** Immediacy-list successor / predecessor of `w`. */
    WorkerId nextOf(WorkerId w) const;
    WorkerId prevOf(WorkerId w) const;

    /** Current workload region S of `w` (0 = emptiest). */
    unsigned regionOf(WorkerId w) const;

    TempoCounters counters() const;

    const TempoConfig &config() const { return config_; }

    /** The resolved usable ladder (N-frequency selection). */
    const platform::FrequencyLadder &ladder() const { return ladder_; }

    unsigned numWorkers() const
    {
        return static_cast<unsigned>(domainOf_.size());
    }

  private:
    /** Slowest usable rung (N-1 under N-frequency control). */
    platform::FreqIndex slowestIndex() const
    {
        return ladder_.size() - 1;
    }

    void validate(WorkerId w) const;

    /** Apply `idx` to `w`'s hosting domain; records nothing if the
     * tempo is unchanged. Caller holds the lock. */
    void setTempo(WorkerId w, platform::FreqIndex idx);

    /** One step faster (clamped). Caller holds the lock. */
    void up(WorkerId w);

    /** One step slower (clamped). Caller holds the lock. */
    void down(WorkerId w);

    /**
     * Workload reconciliation: move w's region S stepwise toward the
     * region implied by `deque_size`, raising or lowering the tempo
     * one step per threshold crossed. Downward steps honour the
     * unified-policy head guard. Caller holds the lock.
     */
    void reconcileWorkload(WorkerId w, size_t deque_size);

    TempoConfig config_;
    platform::FrequencyLadder ladder_;
    dvfs::DvfsBackend &backend_;
    std::vector<platform::DomainId> domainOf_;

    mutable std::mutex mutex_;
    ImmediacyList list_;
    std::vector<platform::FreqIndex> tempo_;
    std::vector<unsigned> region_;
    std::vector<ThresholdProfiler> profiler_;
    TempoCounters counters_;
};

} // namespace hermes::core

#endif // HERMES_CORE_TEMPO_CONTROLLER_HPP
