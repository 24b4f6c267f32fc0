/**
 * @file
 * Structured spawn/sync.
 *
 * A TaskGroup plays the role of a Cilk frame's sync scope: spawned
 * tasks report completion to their group, and wait() returns when all
 * of them (including transitively inlined ones) have finished. A
 * worker blocked in wait() does not idle — it keeps scheduling other
 * tasks (its own deque first, then stealing), exactly like a Cilk
 * worker at a sync point.
 *
 * A group counts its tasks in three words, so that a task its owner
 * spawns and runs itself costs the group no locked instruction:
 *
 *  - O (`owned_`): spawns by the group's owner worker, minus those
 *    of them the owner ran. Only the owner writes it, with a
 *    relaxed load plus a release store.
 *  - R (`remoteDone_`): owner-counted tasks that another worker ran.
 *    Each such completion is one RMW, its last access to the group.
 *  - P (`pending_`): every other spawn (another worker's, or an
 *    external thread's), with a waiter bit for blocking waiters.
 *
 * The owner is the worker the group was constructed on, or else the
 * first worker that spawns into it while it has no owner and no
 * outstanding task; it never changes after that. submit()'s groups
 * are never owned. docs/ARCHITECTURE.md, "TaskGroup completion", has
 * the whole protocol and why a waiter that reads R, then P, then O
 * never sees a false zero.
 *
 * run() and a worker's wait() are inline, defined in scheduler.hpp
 * next to the deque fast path they compile into (this header
 * includes it at the end). A spawned child may sit in its worker's
 * private deque part, invisible to thieves, until that worker's next
 * spawn, pop or wait(): a body that spawns and then spins on the
 * child without waiting can starve it.
 */

#ifndef HERMES_RUNTIME_TASK_GROUP_HPP
#define HERMES_RUNTIME_TASK_GROUP_HPP

#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>

#include "core/worker_id.hpp"
#include "runtime/sync.hpp"
#include "runtime/task_fn.hpp"

namespace hermes::runtime {

class Runtime;

/** Completion scope for a set of spawned tasks. */
class TaskGroup
{
  public:
    /** Bind to the runtime that will execute the tasks. Built on
     * one of its workers, the group is owned by that worker. */
    inline explicit TaskGroup(Runtime &rt);

    /** All tasks must be awaited before destruction. */
    ~TaskGroup()
    {
        // P's raw word, not pending(): a waiter bit still set here
        // would mean a finisher is yet to release a waiter of this
        // group.
        if (!quiescent())
            destroyedPending();
    }

    TaskGroup(const TaskGroup &) = delete;
    TaskGroup &operator=(const TaskGroup &) = delete;

    /**
     * Spawn `fn` into this group. From a worker thread the task is
     * pushed onto that worker's deque (or run inline if the deque is
     * full); from any other thread it is injected into the runtime.
     * Any callable converts to TaskFn; small trivially-copyable
     * lambdas — every spawn site in parallel.hpp — spawn without
     * allocating (task_fn.hpp).
     */
    inline void run(TaskFn &&fn);

    /**
     * Wait until every spawned task has completed. Worker threads
     * help execute pending work while waiting; external threads
     * block. Rethrows the first exception thrown by any task in this
     * group.
     */
    inline void wait();

    /** Tasks spawned but not yet completed: P + O - R. */
    long
    pending() const
    {
        // R, then P, then O: no completion is seen without its spawn.
        const long r = remoteDone_.load(std::memory_order_acquire);
        const long p =
            pending_.load(std::memory_order_acquire) & ~kWaiterBit;
        return p + owned_.load(std::memory_order_acquire) - r;
    }

  private:
    friend class Runtime;

    struct NeverOwned
    {};

    /** A group no worker may own (submit()'s), so its waits run the
     * waiter-bit protocol on P alone. */
    TaskGroup(Runtime &rt, NeverOwned);

    /** Bit of `pending_` a blocking waiter sets (under `mutex_`) to
     * ask the last finisher for a wake; the bits below count tasks.
     * docs/ARCHITECTURE.md, "TaskGroup completion", has the protocol. */
    static constexpr long kWaiterBit = 1L << 62;

    /** `owner_` values that name no worker: claimable, and never. */
    static constexpr core::WorkerId kNoOwner = core::invalidWorker;
    static constexpr core::WorkerId kNeverOwned = core::invalidWorker - 1;

    /**
     * Register one more task spawned on worker `id` of the group's
     * runtime, before it becomes runnable. @return true if it is
     * owner-counted (O), false if it went to P.
     */
    bool
    beginTask(core::WorkerId id)
    {
        const core::WorkerId owner =
            owner_.load(std::memory_order_relaxed);
        if (owner == id || (owner == kNoOwner && claim(id))) {
            owned_.store(owned_.load(std::memory_order_relaxed) + 1,
                         std::memory_order_release);
            return true;
        }
        beginShared();
        return false;
    }

    /** Register one more task in P (a spawn by anyone but the
     * owner), before it becomes runnable. */
    void
    beginShared()
    {
        sync::fetchAdd(pending_, 1, std::memory_order_relaxed);
    }

    /** Become the owner as worker `id`, if the group has no owner
     * and no outstanding task. One CAS per group. */
    bool claim(core::WorkerId id);

    /** Complete an owner-counted task on worker `id`: the owner's
     * own completion is a plain store, anyone else's one RMW on R
     * that is its last access to the group. Neither notifies. */
    void
    finishOwned(core::WorkerId id)
    {
        if (owner_.load(std::memory_order_relaxed) == id) {
            owned_.store(owned_.load(std::memory_order_relaxed) - 1,
                         std::memory_order_release);
            return;
        }
        sync::fetchAdd(remoteDone_, 1, std::memory_order_release);
    }

    /** Complete a P task. Touches the group after its decrement
     * only when a blocking waiter registered, and then only until
     * it releases that waiter. */
    void finish();

    /** Whether nothing is outstanding: P's whole word is zero (no
     * count, no waiter bit) and O equals R. Reads R, P, O. */
    bool
    quiescent() const
    {
        const long r = remoteDone_.load(std::memory_order_acquire);
        const long p = pending_.load(std::memory_order_acquire);
        return p == 0 && owned_.load(std::memory_order_acquire) == r;
    }

    /** The destructor's panic: the group still has tasks. */
    [[noreturn]] void destroyedPending() const;

    /** wait() on a thread that is not one of the runtime's workers:
     * block until quiescent, then rethrow. */
    void waitBlocking();

    /** Blocking wait, step 1: poll with backoff until every
     * owner-counted task has completed (O - R, reading R first). */
    void awaitOwned() const;

    /** Blocking wait, step 2: the waiter-bit protocol on P. */
    void waitShared();

    /** Record the first exception observed in this group. */
    void recordException(std::exception_ptr error);

    /** Rethrow a recorded exception, if any; locks only when one is
     * recorded. The flag is set before the failing task's
     * completion, which the waiter acquired, so a clean group is
     * never locked. */
    void
    rethrowIfError()
    {
        if (hasError_.load(std::memory_order_acquire))
            rethrowRecorded();
    }

    /** rethrowIfError() once the flag is seen set. */
    void rethrowRecorded();

    Runtime &rt_;
    /** P: task count, plus kWaiterBit while a blocking waiter waits. */
    std::atomic<long> pending_{0};
    /** O: written only by the owner. */
    std::atomic<long> owned_{0};
    /** R: never reset, like O; the two meet whenever no
     * owner-counted task is outstanding. */
    std::atomic<long> remoteDone_{0};
    /** The owner worker, kNoOwner, or kNeverOwned. Set once. */
    std::atomic<core::WorkerId> owner_;
    /** Set while `error_` holds an exception, so a clean wait()
     * never takes the lock. */
    std::atomic<bool> hasError_{false};
    std::mutex mutex_;
    std::condition_variable cv_;
    /** Guarded by mutex_: bumped by each finisher that releases the
     * registered waiters, who return only once it moves. */
    uint64_t releases_ = 0;
    /** Guarded by mutex_. */
    std::exception_ptr error_;
};

} // namespace hermes::runtime

#endif // HERMES_RUNTIME_TASK_GROUP_HPP

// run() and wait() are defined with the scheduler they inline into.
#include "runtime/scheduler.hpp"

