/**
 * @file
 * The work-stealing runtime (paper Algorithm 2.1 + Figure 5 hooks).
 *
 * A Runtime owns a fixed pool of worker threads, one deque per worker
 * (lazy task creation: the worker count is bound by CPU resources,
 * not program logic). Each worker runs the classic scheduler loop —
 * pop own deque, else hunt for a victim (same-domain victims first,
 * then every other worker once from a random position; see
 * steal_policy.hpp), else yield — and, once
 * `RuntimeConfig::parkThreshold` consecutive hunts come up empty,
 * parks: it publishes itself on the runtime's ParkingLot, re-checks
 * every work source, and blocks in the kernel until a producer wakes
 * it. A successful steal takes ceil(n/2) of the tasks the victim
 * shares; the thief runs one and stocks its own deque with the rest,
 * whose shares wake peers for them. Producers notify the lot only
 * when a deque share makes a shared part non-empty (deque.hpp) or on
 * an external inject, preferring a same-domain parked worker, so the
 * spawn hot path touches no shared wake state while the pool is
 * busy.
 *
 * The owner's path is inline, below the class: a spawn on a worker
 * (TaskGroup::run → spawn()) and one pop-and-run step (popAndRun(),
 * which findAndExecute() and TaskGroup::wait()'s help loop share)
 * compile into the caller, so a task spawned and popped on its own
 * worker runs through no out-of-line runtime call and, with the
 * deque's private part, no locked instruction. A spawned task may
 * stay private until its owner's next push, pop or sync: a task body
 * that spawns and then spins on a child, without calling wait() or
 * returning, can starve that child.
 * External threads enter through Runtime::submit (or run): tasks
 * land on the lock-free sharded inject queue (inject_queue.hpp) and
 * workers drain their own domain's shard first, so sustained outside
 * traffic serializes on no lock. Workers report the five HERMES
 * events to an optional TempoController, which drives one frequency
 * word per clock domain (dvfs::SimulatedDvfs). The hooks carry no
 * time, and parking is not one of them: a parked worker changes no
 * frequency, and its parked flag here is the only record of it. This
 * is the "mild change to the work stealing runtime" the paper
 * describes: the loop structure is untouched; only the highlighted
 * hook calls are added. The full state machine, the
 * lost-wakeup argument, and the inject path live in
 * docs/ARCHITECTURE.md; the stealing policy (victim order, bulk
 * grabs, wake selection) in docs/STEALING.md.
 */

#ifndef HERMES_RUNTIME_SCHEDULER_HPP
#define HERMES_RUNTIME_SCHEDULER_HPP

#include <atomic>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "core/tempo_controller.hpp"
#include "dvfs/simulated.hpp"
#include "energy/power_model.hpp"
#include "platform/topology.hpp"
#include "runtime/deque.hpp"
#include "runtime/inject_queue.hpp"
#include "runtime/parking_lot.hpp"
#include "runtime/runtime_config.hpp"
#include "runtime/stats.hpp"
#include "runtime/task.hpp"
#include "runtime/task_group.hpp"

namespace hermes::runtime {

class Runtime;

/**
 * Waitable handle for an externally submitted task
 * (Runtime::submit).
 *
 * Copies share one completion scope. wait() blocks an external
 * caller on the group's condition variable and lets a worker caller
 * help execute pending work, exactly like TaskGroup::wait — and like
 * it, rethrows the first exception the submitted task threw.
 * Releasing the last reference — destruction, reassignment, or
 * reset, from any thread — drains the group first, so dropping
 * handles never tears down a group with tasks still pending: the
 * drain lives in the shared state's deleter, which the reference
 * count runs exactly once. An exception recorded by the task is
 * swallowed on that release path (the deleter must not throw) but
 * not lost silently: each swallowed error increments
 * RuntimeStats::droppedHandleErrors, so a harness that drops
 * handles without waiting can still assert nothing failed. Call
 * wait() to observe the exception itself; after wait() has
 * rethrown it once, the error is consumed and later waits (and the
 * deleter) see a clean group. Handles must not outlive their
 * Runtime.
 */
class SubmitHandle
{
  public:
    /** Empty handle; wait() is a no-op until assigned. */
    SubmitHandle() = default;

    /** Block (or help, from a worker) until the submitted task and
     * everything it transitively spawned under awaited groups has
     * completed; rethrows the task's first exception. Idempotent. */
    void wait();

    /** Whether this handle is bound to a submission. */
    bool valid() const { return group_ != nullptr; }

  private:
    friend class Runtime;

    explicit SubmitHandle(std::shared_ptr<TaskGroup> group)
        : group_(std::move(group))
    {}

    std::shared_ptr<TaskGroup> group_;
};

/**
 * O(1) snapshot of the inject path's pressure signals.
 *
 * The feed for external admission control (the serving harness's
 * accept/shed decision, src/harness/serve/admission.hpp): `pending`
 * is the injected-but-undrained backlog — rings plus spillover,
 * bounded above by the publish-before-enqueue ordering documented in
 * docs/ARCHITECTURE.md — and the rest are the monotone inject
 * outcome counters also reported through RuntimeStats. Unlike
 * Runtime::stats(), reading a telemetry snapshot walks no per-worker
 * state, so producers can afford one per submission.
 */
struct InjectTelemetry
{
    size_t pending = 0;     ///< injected-but-undrained backlog depth
    uint64_t fastPath = 0;  ///< injects that landed in a ring shard
    uint64_t spill = 0;     ///< injects that overflowed to the spill deque
    uint64_t drainBack = 0; ///< spilled tasks drained back into rings
};

/**
 * Per-worker progress snapshot for stall detection.
 *
 * Feeds the serving harness's watchdog (docs/RESILIENCE.md): each
 * worker's `heartbeat` is a monotone counter bumped once per
 * scheduler iteration (and around every park), so a worker that is
 * neither parked nor advancing its heartbeat across consecutive
 * samples is wedged — blocked in a syscall, preempted hard, or stuck
 * inside one long task body. The reads are relaxed: the watchdog
 * compares snapshots taken tens of milliseconds apart, so a
 * one-iteration-stale value cannot produce a false stall.
 */
struct StallTelemetry
{
    struct WorkerBeat
    {
        uint64_t heartbeat = 0; ///< scheduler-iteration counter
        bool parked = false;    ///< blocked on the lot (not stalled)
    };
    std::vector<WorkerBeat> workers; ///< indexed by WorkerId
};

/** Multi-threaded work-stealing scheduler with tempo control. */
class Runtime
{
  public:
    /** Start `config.numWorkers` workers immediately. */
    explicit Runtime(RuntimeConfig config = {});

    /** Stops and joins all workers. Outstanding TaskGroups must have
     * been awaited. */
    ~Runtime();

    Runtime(const Runtime &) = delete;
    Runtime &operator=(const Runtime &) = delete;

    unsigned numWorkers() const { return config_.numWorkers; }
    const RuntimeConfig &config() const { return config_; }

    /**
     * Convenience entry point: run `fn` as the root task and block
     * until it and everything it transitively spawned (under
     * TaskGroups it awaited) completes. Any callable converts to
     * TaskFn (task_fn.hpp).
     */
    void run(TaskFn fn);

    /**
     * External-submission API: enqueue `fn` without blocking and
     * return a waitable handle. Usable from any thread — a worker of
     * this runtime pushes to its own deque; any other thread goes
     * through the lock-free sharded inject queue. The handle's
     * wait() rethrows the task's first exception.
     */
    SubmitHandle submit(TaskFn fn);

    /** Tempo controller, or nullptr when tempo control is off. */
    core::TempoController *tempo() { return tempo_.get(); }
    const core::TempoController *tempo() const { return tempo_.get(); }

    /** The frequency words workers are scaling (owned, simulated):
     * one per clock domain, readable from any thread. */
    dvfs::SimulatedDvfs &backend() { return *backend_; }
    const dvfs::SimulatedDvfs &backend() const { return *backend_; }

    /** Aggregated scheduler counters. */
    RuntimeStats stats() const;

    /** Cheap inject-pressure snapshot for admission control: the
     * current backlog plus the monotone fast-path/spill/drain-back
     * counters, read in O(1) (no per-worker walk — poll it per
     * submission). */
    InjectTelemetry injectTelemetry() const;

    /** Per-worker heartbeat/parked snapshot for external stall
     * watchdogs (the serve sampler thread). O(workers) relaxed
     * reads; poll it at sample rate, not per submission. */
    StallTelemetry stallTelemetry() const;

    /**
     * Compensating wakes: up to `count` notify attempts against
     * parked workers, no domain preference. For watchdogs that
     * detected a non-progressing worker while accepted work is still
     * outstanding — the published-but-undrained backlog the stalled
     * worker was expected to take is re-advertised to its parked
     * peers. Requires no new work-publish: the backlog was published
     * (seq_cst) by its producers, and a spuriously woken worker
     * re-checks every source and re-parks. @return workers targeted
     */
    unsigned wakeWorkers(unsigned count);

    /**
     * Chaos hook: make worker `w` sleep `nanos` at the top of its
     * next scheduler iteration (once; subsequent calls re-arm). The
     * nap happens outside any task body, mimicking a worker thread
     * losing the CPU — exactly what the watchdog + compensating
     * wakes must tolerate. Deterministic fault injection only; never
     * called on the healthy path.
     */
    void stallWorker(core::WorkerId w, uint64_t nanos);

    /** Counters of a single worker (`injected`, `localWakes`,
     * `remoteWakes`, and the inject-path counters are always 0
     * here: injection, wake selection, and inject drains are
     * runtime-wide events, not per-worker ones). */
    RuntimeStats workerStats(core::WorkerId w) const;

    /**
     * Instantaneous modeled package power in watts: busy worker
     * cores at active power for their domain frequency, hunting
     * workers at spin power, parked workers at clock-gated parked
     * power, unoccupied cores idle. harness::RunSampler integrates
     * it for the paper's 100 Hz measurement.
     */
    double packagePower(const energy::PowerModel &model) const;

    /** Number of workers currently parked (blocked on the lot). */
    unsigned parkedWorkers() const;

    /** Whether worker `w` is currently parked. */
    bool workerParked(core::WorkerId w) const;

    /** The worker → domain map steering victim and wake selection
     * (from `RuntimeConfig::domainMap` or derived from the platform
     * topology; single-domain on unknown hardware). */
    const platform::DomainMap &domainMap() const { return domainMap_; }

    /** The Runtime owning the calling worker thread (else nullptr). */
    static Runtime *current() { return tlsRuntime_; }

    /** Worker id of the calling thread within current() (else
     * invalidWorker). */
    static core::WorkerId currentWorker() { return tlsWorker_; }

  private:
    friend class TaskGroup;

    /** The calling thread's runtime and worker id: set by
     * workerMain() for its whole life, null/invalid elsewhere. */
    static inline thread_local Runtime *tlsRuntime_ = nullptr;
    static inline thread_local core::WorkerId tlsWorker_ =
        core::invalidWorker;

    /**
     * Per-worker state. Single-writer rule: every counter here is
     * written only by its owning worker thread, so it is bumped with
     * ownedAdd() (stats.hpp) — a relaxed load plus a store, never a
     * locked RMW — and other threads only load it. A counter that a
     * second thread may write (the deque's stealCasRetries, the
     * runtime-wide wake and inject counters below) keeps
     * `fetch_add`. `parked` and `stallNanosRequested` are flags, not
     * counters: their cross-thread orderings are documented at each.
     */
    struct alignas(64) WorkerState
    {
        explicit WorkerState(size_t deque_capacity)
            : deque(deque_capacity)
        {}

        WsDeque deque;
        /** Task bodies running on this worker (nested by inline runs
         * and sync-point help); read by packagePower(). */
        std::atomic<int> activeDepth{0};
        /** True between the parked-publish and the unpark; read by
         * packagePower() to charge this core parkedPower and by the
         * producers' wake-selection scan. */
        std::atomic<bool> parked{false};
        std::atomic<uint64_t> pushes{0};
        std::atomic<uint64_t> pops{0};
        std::atomic<uint64_t> steals{0};
        std::atomic<uint64_t> failedSteals{0};
        std::atomic<uint64_t> executed{0};
        std::atomic<uint64_t> inlined{0};
        /** Pinning syscalls (SchedulingMode::Static, one per
         * worker). */
        std::atomic<uint64_t> affinitySets{0};
        std::atomic<uint64_t> parks{0};
        std::atomic<uint64_t> wakes{0};
        std::atomic<uint64_t> spuriousWakes{0};
        std::atomic<uint64_t> bulkSteals{0};
        std::atomic<uint64_t> stolenTasks{0};
        std::atomic<uint64_t> localHits{0};
        std::atomic<uint64_t> remoteHits{0};
        /** Tasks-per-steal histogram, bucketed as in RuntimeStats. */
        std::array<std::atomic<uint64_t>,
                   RuntimeStats::kStealSizeBuckets>
            stealSize{};
        /**
         * Parked time in one word, so workerStats() can never pair a
         * block's start with a total that already holds that block.
         * The low two bits are the state (awake, parked, waking);
         * the rest hold the parked total while awake, and the total
         * minus the current block's start while parked, so a reader
         * adds its own clock to credit the block in progress (see
         * parkUntilWork() and parkedNanosOf() for why successive
         * reads never decrease).
         */
        std::atomic<uint64_t> parkClock{0};
        /** Progress heartbeat: bumped (relaxed) once per scheduler
         * iteration and around every park, read by stallTelemetry().
         * Frozen heartbeat + parked=false across watchdog samples =
         * a wedged worker. */
        std::atomic<uint64_t> heartbeat{0};
        /** Chaos: pending stallWorker() nap in nanos, consumed at
         * the top of the next scheduler iteration (0 = none). */
        std::atomic<uint64_t> stallNanosRequested{0};
        /** Hunt scratch (owner-thread only): this hunt's victim
         * probe order and the bulk-steal landing buffer. */
        std::vector<core::WorkerId> huntOrder;
        std::vector<Task> stealBuf;
        std::thread thread;
    };

    /** Spawn into the group: a push onto the calling worker's
     * deque (inline), else an inject. */
    void spawn(TaskGroup &group, TaskFn &&fn);

    /** spawn() from a thread that is not one of this runtime's
     * workers: count the task in P and inject it. */
    void injectSpawn(TaskGroup &group, TaskFn &&fn);

    /** spawn() onto a full ring: run the task inline on worker
     * `id`. */
    void runInline(core::WorkerId id, Task task);

    /** One scheduler iteration (Algorithm 2.1); true if a task was
     * executed: popAndRun(), else hunt(). */
    bool findAndExecute(core::WorkerId id);

    /** The owner's pop-and-run step: bump the heartbeat, pop the
     * most immediate task of worker `id`'s own deque and run it.
     * @return false if the deque had nothing for its owner */
    bool popAndRun(core::WorkerId id);

    /** The rest of a scheduler iteration, once the own deque is
     * empty: the out-of-work event, the inject queue, then one hunt
     * over the victims. @return true if a task was executed */
    bool hunt(core::WorkerId id);

    /** Attempt one bulk steal (ceil(n/2) tasks) from `victim` for
     * thief `id`; on success runs one stolen task, stocks the
     * thief's deque with the rest, and fires the steal
     * stats/tempo/wake bookkeeping. @return true if a task ran. */
    bool tryStealFrom(core::WorkerId id, core::WorkerId victim);

    /** A deque share of worker `id` made its shared part non-empty:
     * wake a parked worker, preferring `id`'s domain, where the
     * work sits. */
    void wakeForShare(core::WorkerId id);

    /**
     * Wake one parked worker, preferring one whose domain is
     * `preferred` (pass platform::invalidDomain for no preference —
     * external producers). Callers must have published the new work
     * (seq_cst) before calling — the Dekker pairing with
     * parkUntilWork()'s publish-then-recheck.
     * @return true if a parked worker was targeted
     */
    bool notifyIfParked(platform::DomainId preferred);

    /**
     * Park worker `id`: publish it parked, re-check every work
     * source, and block on the lot unless the re-check found work.
     * @return true if the worker actually blocked (woke via notify
     *         or spuriously), false if the re-check aborted the park
     */
    bool parkUntilWork(core::WorkerId id);

    /** Seq_cst scan of every work source a parked worker could miss:
     * stop flag, inject queue, and the shared part of every deque. */
    bool workPossiblyAvailable() const;

    /** Run one task on worker `id` with the depth, throttle and
     * completion bookkeeping. */
    void execute(core::WorkerId id, Task &task);

    /** Run the body of `task`, recording what it throws in its
     * group. */
    static void runBody(Task &task);

    /** runBody() under ThrottleMode::PostTaskSpin: stretch the task
     * to the length it would have at worker `id`'s tempo. */
    void runThrottled(core::WorkerId id, Task &task);

    void workerMain(core::WorkerId id);
    bool popInjected(core::WorkerId id, Task &out);
    void inject(Task task);

    RuntimeConfig config_;
    /** ThrottleMode::PostTaskSpin with tempo on: execute() stretches
     * every task. */
    bool throttled_ = false;
    std::vector<platform::CoreId> plannedCores_;
    /** Worker → domain map steering victim and wake selection. */
    platform::DomainMap domainMap_;
    /** Per-worker same-domain peers (DomainMap::peersOf, cached). */
    std::vector<std::vector<core::WorkerId>> localPeers_;
    /** Per-domain resident workers (DomainMap::workersIn, cached so
     * the wake-selection scan never allocates). */
    std::vector<std::vector<core::WorkerId>> domainWorkers_;
    std::unique_ptr<dvfs::SimulatedDvfs> backend_;
    std::unique_ptr<core::TempoController> tempo_;
    std::vector<std::unique_ptr<WorkerState>> workers_;

    /** The lock-free inject path: one ring shard per domain. */
    InjectQueue injectQueue_;
    /** Monotonic total of injected tasks (stats only). */
    std::atomic<uint64_t> injectedCount_{0};
    /**
     * Count of injected-but-undrained tasks; lets popInjected() skip
     * the queue entirely while it is empty (the common case). Updated
     * and read seq_cst where parking correctness depends on it: the
     * injector's increment is the work-publish of the Dekker
     * handshake with a parking thief's re-check (the hot-path poll in
     * popInjected() may still read it relaxed — a stale zero there
     * only delays an awake worker by one loop iteration). The
     * increment happens *before* the enqueue, so the counter bounds
     * the queue contents from above and a fruitless scan simply
     * retries — see "The inject path" in docs/ARCHITECTURE.md.
     */
    std::atomic<size_t> injectPending_{0};
    /** Inject-path outcome counters (runtime-wide: the producer is
     * external, so like `injected` they are not per-worker). */
    std::atomic<uint64_t> injectFastPath_{0};
    std::atomic<uint64_t> injectSpill_{0};
    std::atomic<uint64_t> injectShardHits_{0};
    /** Drain histogram: backlog depth observed by each successful
     * inject pop (RuntimeStats::injectDrain buckets). */
    std::array<std::atomic<uint64_t>,
               RuntimeStats::kInjectDrainBuckets>
        injectDrain_{};

    /** Per-worker wake words + kernel wait queues. */
    ParkingLot lot_;
    /** Number of workers currently published as parked. Producers
     * read it (seq_cst) after publishing work to decide whether a
     * notify is needed; thieves increment it (seq_cst) before their
     * pre-block work re-check. */
    std::atomic<unsigned> parkedCount_{0};
    /** Rotating start of the wake-selection scans, so a burst of
     * notifies spreads across distinct parked workers. */
    std::atomic<unsigned> wakeCursor_{0};
    /** Wake-selection outcome counters (runtime-wide: the producer
     * may be an external thread, so they are not per-worker). */
    std::atomic<uint64_t> localWakes_{0};
    std::atomic<uint64_t> remoteWakes_{0};
    /** Task exceptions swallowed by the submit-handle release drain
     * (runtime-wide: the drop may happen on any thread). */
    std::atomic<uint64_t> droppedHandleErrors_{0};

    std::atomic<bool> stop_{false};
};

// The owner's path: defined here so that it compiles into its
// callers (a TaskGroup::run() or wait() in a task body). spawn(),
// execute() and popAndRun() are past GCC's size limit for inlining
// on its own, and a call each costs about a tenth of a spawned
// task, so they are always inlined.

[[gnu::always_inline]] inline void
Runtime::spawn(TaskGroup &group, TaskFn &&fn)
{
    const core::WorkerId id = tlsWorker_;
    if (tlsRuntime_ != this || id == core::invalidWorker) {
        injectSpawn(group, std::move(fn));
        return;
    }
    // The group counts the spawn before it becomes runnable: in its
    // owner's count if this worker owns it, else in P.
    const bool owner_counted = group.beginTask(id);
    WorkerState &ws = *workers_[id];
    // push() leaves `fn` intact on a full ring, which the inline
    // fallback relies on.
    const WsDeque::OwnerResult pushed =
        ws.deque.push(std::move(fn), &group, owner_counted);
    if (!pushed) {
        // Ring full: execute inline. With child-stealing this is
        // just a depth-first serialization of the subtree.
        runInline(id, Task(std::move(fn), &group, owner_counted));
        return;
    }
    ownedAdd(ws.pushes);
    if (pushed.published)
        wakeForShare(id);
    if (tempo_)
        tempo_->onPush(id, pushed.size);
}

inline void
Runtime::runBody(Task &task)
{
    try {
        task.body();
    } catch (...) {
        if (task.group)
            task.group->recordException(std::current_exception());
    }
}

[[gnu::always_inline]] inline void
Runtime::execute(core::WorkerId id, Task &task)
{
    WorkerState &ws = *workers_[id];
    ownedAdd(ws.activeDepth);
    if (throttled_)
        runThrottled(id, task);
    else
        runBody(task);
    ownedAdd(ws.executed);
    if (task.group) {
        if (task.ownerCounted)
            task.group->finishOwned(id);
        else
            task.group->finish();
    }
    ownedAdd(ws.activeDepth, -1);
}

[[gnu::always_inline]] inline bool
Runtime::popAndRun(core::WorkerId id)
{
    WorkerState &ws = *workers_[id];
    // Progress heartbeat for the stall watchdog: one relaxed bump
    // per scheduler iteration, same cost class as the counters
    // below. Covers workerMain and the help-while-waiting loop in
    // TaskGroup::wait — everywhere a live worker spins.
    ownedAdd(ws.heartbeat);
    // Algorithm 2.1: POP own deque first (most immediate task).
    Task task;
    const WsDeque::OwnerResult popped = ws.deque.pop(task);
    if (!popped)
        return false;
    ownedAdd(ws.pops);
    if (popped.published)
        wakeForShare(id);
    if (tempo_)
        tempo_->onPopSuccess(id, popped.size);
    execute(id, task);
    return true;
}

inline bool
Runtime::findAndExecute(core::WorkerId id)
{
    return popAndRun(id) || hunt(id);
}

inline TaskGroup::TaskGroup(Runtime &rt)
    : rt_(rt),
      owner_(Runtime::current() == &rt ? Runtime::currentWorker()
                                       : kNoOwner)
{}

inline void
TaskGroup::run(TaskFn &&fn)
{
    rt_.spawn(*this, std::move(fn));
}

inline void
TaskGroup::wait()
{
    const core::WorkerId id = Runtime::currentWorker();
    if (Runtime::current() != &rt_ || id == core::invalidWorker) {
        waitBlocking();
        return;
    }
    // A worker at a sync point keeps scheduling: its own deque first
    // (our children sit there), then stealing — the same loop as
    // Algorithm 2.1.
    while (pending() != 0) {
        if (!rt_.findAndExecute(id))
            std::this_thread::yield();
    }
    rethrowIfError();
}

} // namespace hermes::runtime

#endif // HERMES_RUNTIME_SCHEDULER_HPP
