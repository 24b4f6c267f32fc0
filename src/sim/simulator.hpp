/**
 * @file
 * Discrete-event simulator of a tempo-enabled work-stealing runtime.
 *
 * This is the experimental substrate that replaces the paper's
 * hardware testbed (PAPER.md): task work drains at the hosting
 * core's *current* frequency, so the TempoController's DVFS decisions
 * change both makespan and integrated energy — the two quantities
 * every figure in the evaluation reports.
 *
 * Faithfulness notes:
 *  - Scheduling is exact work-first Cilk: at a spawn point the worker
 *    pushes the continuation of the current frame onto its own deque
 *    and dives into the child; thieves steal continuations from deque
 *    heads; a frame's sync releases when its last child returns, and
 *    the completing worker resumes any post-sync sequel.
 *  - The TempoController and its hook protocol are the *same code*
 *    the threaded runtime uses (Figure 5's highlighted lines).
 *  - DVFS requests take effect after the profile's transition latency
 *    and cost the issuing worker dvfsCallCostSec each; dynamic
 *    scheduling pays two affinity costs per WORK invocation; idle
 *    workers poll with capped exponential backoff and are woken by
 *    pushes — the overheads Section 3.4 enumerates.
 *  - Energy is integrated exactly over per-core piecewise (frequency,
 *    activity) state, and optionally re-sampled at 100 Hz like the
 *    paper's DAQ.
 *
 * Runs are deterministic given (dag, config.seed).
 */

#ifndef HERMES_SIM_SIMULATOR_HPP
#define HERMES_SIM_SIMULATOR_HPP

#include <deque>
#include <memory>
#include <queue>
#include <vector>

#include "core/tempo_controller.hpp"
#include "dvfs/backend.hpp"
#include "energy/ledger.hpp"
#include "sim/dag.hpp"
#include "sim/sim_config.hpp"
#include "util/rng.hpp"

namespace hermes::sim {

/** One-shot simulator: construct, run(), read the result. */
class Simulator
{
  public:
    /**
     * @param dag computation to execute (borrowed; must outlive run)
     * @param config platform, policy, and overhead model
     */
    Simulator(const Dag &dag, SimConfig config);

    ~Simulator();

    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** Execute to completion and return the measurements. */
    SimResult run();

    /** Tempo controller (nullptr when tempo is disabled). */
    const core::TempoController *tempo() const
    {
        return tempo_.get();
    }

  private:
    /** A deque item: resume `frame` at `cursor` with `nextSpawn`. */
    struct Continuation
    {
        FrameId frame = invalidFrame;
        double cursor = 0.0;
        size_t nextSpawn = 0;
    };

    enum class EventKind { SegmentEnd, StealRetry, DvfsApply };

    struct Event
    {
        double time;
        uint64_t seq;      // FIFO tie-break for determinism
        EventKind kind;
        unsigned worker;   // SegmentEnd / StealRetry
        uint64_t epoch;    // guards stale worker events
        platform::DomainId domain;  // DvfsApply
        platform::FreqMhz freqMhz;  // DvfsApply
    };

    struct EventAfter
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            if (a.time != b.time)
                return a.time > b.time;
            return a.seq > b.seq;
        }
    };

    struct WorkerSim
    {
        std::deque<Continuation> deque;
        bool busy = false;
        Continuation current;
        double segStart = 0.0;       // current segment began here
        double rateAtSeg = 0.0;      // cycles/sec during segment
        double stopCycles = 0.0;     // cursor value ending segment
        uint64_t epoch = 0;
        double backoff = 0.0;
        bool idleLedger = true;      // ledger thinks core is idle
        platform::CoreId core = 0;
    };

    struct FrameState
    {
        uint32_t outstanding = 1;  // own work + spawned children
        bool started = false;
    };

    /** DvfsBackend that routes requests into simulator events. */
    class Backend;

    void push(Event ev);
    void schedule(double t, EventKind kind, unsigned w);

    double rateOf(unsigned w) const;
    void markActive(unsigned w, double t);
    void markIdle(unsigned w, double t);

    void startSegment(unsigned w, double t);
    void onSegmentEnd(unsigned w, double t);
    void workerFree(unsigned w, double t);
    void attemptSteal(unsigned w, double t, double extra_cost);

    /** Begin executing `c`: active from `t`, first segment delayed
     * by `extra_cost` (steal/DVFS/affinity tolls). */
    void startAcquired(unsigned w, const Continuation &c, double t,
                       double extra_cost);
    bool completeFrame(FrameId f, unsigned w, double t);
    void maybeWake(double t);
    /** A tempo hook changed `domain`'s frequency while the event at
     * now_ is handled: it takes effect one transition latency
     * later. */
    void onFreqRequest(platform::DomainId domain,
                       platform::FreqMhz freq);
    void applyFreq(platform::DomainId domain, platform::FreqMhz freq,
                   double t);

    /** DVFS-call cost accrued by hooks since the last reap. */
    double reapDvfsCost();

    const Dag &dag_;
    SimConfig config_;
    platform::FrequencyLadder usableLadder_;

    std::unique_ptr<Backend> backend_;
    std::unique_ptr<core::TempoController> tempo_;
    std::unique_ptr<energy::EnergyLedger> ledger_;

    std::vector<WorkerSim> workers_;
    std::vector<FrameState> frames_;
    std::vector<platform::FreqMhz> appliedFreq_;  // per domain
    std::vector<unsigned> domainWorker_;  // domain -> worker or ~0u

    std::priority_queue<Event, std::vector<Event>, EventAfter>
        events_;
    uint64_t eventSeq_ = 0;
    /** Time of the event being handled (0 before the first). */
    double now_ = 0.0;
    uint64_t dvfsCallsPending_ = 0;

    /** Credit busy time [ws.segStart, t] at the rung hosting `w`. */
    void accrueBusy(unsigned w, double t);

    size_t completedFrames_ = 0;
    bool done_ = false;
    double endTime_ = 0.0;
    std::vector<double> busySecondsAtRung_;

    util::Rng rng_;
    SimStats stats_;
};

/** Convenience: build, run, and return the result in one call. */
SimResult simulate(const Dag &dag, const SimConfig &config);

} // namespace hermes::sim

#endif // HERMES_SIM_SIMULATOR_HPP
