#include "runtime/task_group.hpp"

#include <chrono>
#include <thread>

#include "runtime/scheduler.hpp"
#include "util/assert.hpp"

namespace hermes::runtime {

namespace {

/** awaitOwned()'s backoff: yields first, then short sleeps. */
constexpr unsigned kAwaitOwnedYields = 64;
constexpr auto kAwaitOwnedSleep = std::chrono::microseconds(20);

} // namespace

TaskGroup::TaskGroup(Runtime &rt, NeverOwned)
    : rt_(rt), owner_(kNeverOwned)
{}

void
TaskGroup::destroyedPending() const
{
    HERMES_PANIC("TaskGroup destroyed with tasks still pending; "
                 "call wait() first");
}

bool
TaskGroup::claim(core::WorkerId id)
{
    // Only a group with no outstanding task: one that a task of the
    // group spawns into keeps counting those spawns in P. Relaxed is
    // enough: the owner reads its own store, and a task carries the
    // claim to whoever completes it through the deque's publish.
    if (pending_.load(std::memory_order_relaxed) != 0)
        return false;
    core::WorkerId expected = kNoOwner;
    return sync::casStrong(owner_, expected, id,
                           std::memory_order_relaxed);
}

void
TaskGroup::waitBlocking()
{
    // A running task may still spawn into either count (a P task on
    // the owner spawns into O, an O task elsewhere into P), so repeat
    // until one read of R, P and O shows nothing left.
    do {
        awaitOwned();
        waitShared();
    } while (!quiescent());
    rethrowIfError();
}

void
TaskGroup::awaitOwned() const
{
    // The owner's completions do not notify: a notify would need the
    // locked instruction their plain store exists to avoid. So poll.
    for (unsigned polls = 0;; ++polls) {
        const long r = remoteDone_.load(std::memory_order_acquire);
        if (owned_.load(std::memory_order_acquire) == r)
            return;
        if (polls < kAwaitOwnedYields)
            std::this_thread::yield();
        else
            std::this_thread::sleep_for(kAwaitOwnedSleep);
    }
}

void
TaskGroup::waitShared()
{
    // Register for a wake by setting the waiter bit, unless the
    // count already reached zero with no bit set: then the last
    // decrement was every finisher's final access and the group
    // is ours. Any other outcome (we set the bit, an earlier
    // waiter did, or a finisher saw it and is on its way to this
    // lock) leaves a finisher that still has to take the lock, so
    // wait for its release.
    std::unique_lock<std::mutex> lock = sync::uniqueLock(mutex_);
    long p = pending_.load(std::memory_order_acquire);
    while (p != 0 && (p & kWaiterBit) == 0
           && !sync::casWeak(pending_, p, p | kWaiterBit,
                             std::memory_order_acq_rel,
                             std::memory_order_acquire)) {
    }
    if (p != 0) {
        const uint64_t seen = releases_;
        cv_.wait(lock, [&] { return releases_ != seen; });
    }
}

void
TaskGroup::finish()
{
    // Without a registered waiter this decrement is the group's final
    // access: a waiter that sees zero may free the group at once.
    if (sync::fetchSub(pending_, 1, std::memory_order_acq_rel)
        != (kWaiterBit | 1))
        return;
    // A blocking waiter registered under the lock and waits for
    // releases_ to move; it cannot return before we unlock, so the
    // group is still alive for every access below.
    sync::Guard lock(mutex_);
    sync::fetchAnd(pending_, ~kWaiterBit, std::memory_order_relaxed);
    ++releases_;
    cv_.notify_all();
}

void
TaskGroup::recordException(std::exception_ptr error)
{
    sync::Guard lock(mutex_);
    if (!error_) {
        error_ = std::move(error);
        hasError_.store(true, std::memory_order_release);
    }
}

void
TaskGroup::rethrowRecorded()
{
    std::exception_ptr error;
    {
        sync::Guard lock(mutex_);
        error = std::move(error_);
        error_ = nullptr;
        hasError_.store(false, std::memory_order_relaxed);
    }
    if (error)
        std::rethrow_exception(error);
}

} // namespace hermes::runtime
