#include "runtime/task_group.hpp"

#include <thread>

#include "runtime/scheduler.hpp"
#include "util/assert.hpp"

namespace hermes::runtime {

TaskGroup::~TaskGroup()
{
    // The raw word, not pending(): a waiter bit still set here would
    // mean a finisher is yet to release a waiter of this group.
    HERMES_ASSERT(pending_.load(std::memory_order_acquire) == 0,
                  "TaskGroup destroyed with tasks still pending; "
                  "call wait() first");
}

void
TaskGroup::run(TaskFn fn)
{
    rt_.spawn(*this, std::move(fn));
}

void
TaskGroup::wait()
{
    Runtime *rt = Runtime::current();
    const core::WorkerId id = Runtime::currentWorker();

    if (rt == &rt_ && id != core::invalidWorker) {
        // A worker at a sync point keeps scheduling: its own deque
        // first (our children sit there), then stealing — the same
        // loop as Algorithm 2.1.
        while (pending() != 0) {
            if (!rt_.findAndExecute(id))
                std::this_thread::yield();
        }
    } else {
        // Register for a wake by setting the waiter bit, unless the
        // count already reached zero with no bit set: then the last
        // decrement was every finisher's final access and the group
        // is ours. Any other outcome (we set the bit, an earlier
        // waiter did, or a finisher saw it and is on its way to this
        // lock) leaves a finisher that still has to take the lock, so
        // wait for its release.
        std::unique_lock<std::mutex> lock(mutex_);
        long p = pending_.load(std::memory_order_acquire);
        while (p != 0 && (p & kWaiterBit) == 0
               && !pending_.compare_exchange_weak(
                   p, p | kWaiterBit, std::memory_order_acq_rel,
                   std::memory_order_acquire)) {
        }
        if (p != 0) {
            const uint64_t seen = releases_;
            cv_.wait(lock, [&] { return releases_ != seen; });
        }
    }
    rethrowIfError();
}

void
TaskGroup::finish()
{
    // Without a registered waiter this decrement is the group's final
    // access: a waiter that sees zero may free the group at once.
    if (pending_.fetch_sub(1, std::memory_order_acq_rel)
        != (kWaiterBit | 1))
        return;
    // A blocking waiter registered under the lock and waits for
    // releases_ to move; it cannot return before we unlock, so the
    // group is still alive for every access below.
    std::lock_guard<std::mutex> lock(mutex_);
    pending_.fetch_and(~kWaiterBit, std::memory_order_relaxed);
    ++releases_;
    cv_.notify_all();
}

void
TaskGroup::recordException(std::exception_ptr error)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!error_) {
        error_ = std::move(error);
        hasError_.store(true, std::memory_order_release);
    }
}

void
TaskGroup::rethrowIfError()
{
    // The flag is set before the failing task's finish(), whose
    // release the waiter acquired, so a clean group is never locked.
    if (!hasError_.load(std::memory_order_acquire))
        return;
    std::exception_ptr error;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        error = std::move(error_);
        error_ = nullptr;
        hasError_.store(false, std::memory_order_relaxed);
    }
    if (error)
        std::rethrow_exception(error);
}

} // namespace hermes::runtime
