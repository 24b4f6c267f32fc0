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
 */

#ifndef HERMES_RUNTIME_TASK_GROUP_HPP
#define HERMES_RUNTIME_TASK_GROUP_HPP

#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>

#include "runtime/task_fn.hpp"

namespace hermes::runtime {

class Runtime;

/** Completion scope for a set of spawned tasks. */
class TaskGroup
{
  public:
    /** Bind to the runtime that will execute the tasks. */
    explicit TaskGroup(Runtime &rt) : rt_(rt) {}

    /** All tasks must be awaited before destruction. */
    ~TaskGroup();

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
    void run(TaskFn fn);

    /**
     * Wait until every spawned task has completed. Worker threads
     * help execute pending work while waiting; external threads
     * block. Rethrows the first exception thrown by any task in this
     * group.
     */
    void wait();

    /** Tasks spawned but not yet completed. */
    long pending() const
    {
        return pending_.load(std::memory_order_acquire) & ~kWaiterBit;
    }

  private:
    friend class Runtime;

    /** Bit of `pending_` a blocking waiter sets (under `mutex_`) to
     * ask the last finisher for a wake; the bits below count tasks.
     * docs/ARCHITECTURE.md, "TaskGroup completion", has the protocol. */
    static constexpr long kWaiterBit = 1L << 62;

    /** Register one more task (before it becomes runnable). */
    void beginTask()
    {
        pending_.fetch_add(1, std::memory_order_relaxed);
    }

    /** Mark one task complete. Touches the group after its
     * decrement only when a blocking waiter registered, and then
     * only until it releases that waiter. */
    void finish();

    /** Record the first exception observed in this group. */
    void recordException(std::exception_ptr error);

    /** Rethrow a recorded exception, if any; locks only when one is
     * recorded. */
    void rethrowIfError();

    Runtime &rt_;
    /** Task count, plus kWaiterBit while a blocking waiter waits. */
    std::atomic<long> pending_{0};
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
