/**
 * @file
 * The unit of scheduled work.
 *
 * In compiler-supported Cilk a deque item is a continuation (program
 * counter + frame); a library runtime cannot capture continuations, so
 * a Task is a closure plus the TaskGroup it reports completion to
 * (child-stealing; see docs/ARCHITECTURE.md for why this preserves
 * the thief-victim structure HERMES consumes).
 *
 * The closure is a TaskFn (task_fn.hpp): allocation-free for the
 * small trivially-copyable lambdas every spawn site produces, boxed
 * otherwise, and trivially relocatable either way. Task::Repr is the
 * flat trivially-copyable form the lock-free deque stores in its
 * ring — release()/adopt() transfer ownership of the closure as raw
 * bytes without running any constructor or destructor in between.
 * The ring lays a slot out word for word as a Repr (the k*Word
 * offsets below).
 */

#ifndef HERMES_RUNTIME_TASK_HPP
#define HERMES_RUNTIME_TASK_HPP

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>

#include "runtime/task_fn.hpp"

namespace hermes::runtime {

class TaskGroup;

/** A schedulable closure bound to its completion group. */
struct Task
{
    TaskFn body;                 ///< work to execute
    TaskGroup *group = nullptr;  ///< notified when body returns/throws
    /** Counted in the group owner's count rather than its shared
     * one (task_group.hpp), which decides how completion reports. */
    bool ownerCounted = false;

    Task() = default;

    Task(TaskFn &&b, TaskGroup *g, bool owner_counted = false)
        : body(std::move(b)), group(g), ownerCounted(owner_counted)
    {}

    /** Whether this slot holds runnable work. */
    explicit operator bool() const { return static_cast<bool>(body); }

    /** Trivially-copyable relocation form (see TaskFn::Repr): the
     * deque ring stores Tasks as these, copied word-by-word with
     * relaxed atomics. `ownerCounted` fills the word that would
     * otherwise be padding, so a slot stays 96 bytes. */
    struct Repr
    {
        TaskFn::Repr fn;
        TaskGroup *group;
        uint64_t ownerCounted;
    };

    /** Word offsets of a Repr's fields in a ring slot. */
    static constexpr size_t kPayloadWord =
        (offsetof(Repr, fn) + offsetof(TaskFn::Repr, storage))
        / sizeof(uint64_t);
    static constexpr size_t kOpsWord =
        (offsetof(Repr, fn) + offsetof(TaskFn::Repr, ops))
        / sizeof(uint64_t);
    static constexpr size_t kGroupWord =
        offsetof(Repr, group) / sizeof(uint64_t);
    static constexpr size_t kOwnerCountedWord =
        offsetof(Repr, ownerCounted) / sizeof(uint64_t);

    /** Relocate out: this Task becomes empty; the returned bytes own
     * the closure and must be adopted exactly once. */
    Repr
    release() noexcept
    {
        return Repr{body.release(), std::exchange(group, nullptr),
                    std::exchange(ownerCounted, false)};
    }

    /** Relocate in: take ownership of a released representation. */
    static Task
    adopt(const Repr &r) noexcept
    {
        return Task(TaskFn::adopt(r.fn), r.group, r.ownerCounted != 0);
    }
};

static_assert(std::is_trivially_copyable_v<Task::Repr>,
              "the deque ring copies Task::Repr as raw words");
static_assert(sizeof(Task::Repr) == 12 * sizeof(uint64_t),
              "Task::Repr must tile the ring's 96-byte slots");

} // namespace hermes::runtime

#endif // HERMES_RUNTIME_TASK_HPP
