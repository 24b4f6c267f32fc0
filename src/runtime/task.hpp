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
 * flat trivially-copyable form the deque and inject rings store —
 * release()/adopt() transfer ownership of the closure as raw bytes
 * without running any constructor or destructor in between. A ring
 * slot is laid out word for word as a Repr, and writeSlot()/
 * readSlot() below are the one codec that knows where each field
 * sits.
 */

#ifndef HERMES_RUNTIME_TASK_HPP
#define HERMES_RUNTIME_TASK_HPP

#include <atomic>
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
     * rings store Tasks as these, copied word-by-word with relaxed
     * atomics. `ownerCounted` fills the word that would otherwise be
     * padding, so a slot stays 96 bytes. */
    struct Repr
    {
        TaskFn::Repr fn;
        TaskGroup *group;
        uint64_t ownerCounted;
    };

    /** 64-bit words in one ring slot. */
    static constexpr size_t kSlotWords = sizeof(Repr) / sizeof(uint64_t);

    /**
     * Move a task into ring slot words: the closure's live payload
     * words and its ops word (TaskFn::relocateTo), then the group and
     * owner-counted words, each a relaxed `std::atomic_ref` store.
     * `fn` is left empty; slot words past the closure's payload are
     * not written.
     */
    static void
    writeSlot(uint64_t *slot, TaskFn &fn, TaskGroup *group,
              bool owner_counted) noexcept
    {
        fn.relocateTo(slot + kPayloadWord, slot + kOpsWord);
        std::atomic_ref<uint64_t>(slot[kGroupWord])
            .store(reinterpret_cast<uintptr_t>(group),
                   std::memory_order_relaxed);
        std::atomic_ref<uint64_t>(slot[kOwnerCountedWord])
            .store(owner_counted ? 1 : 0, std::memory_order_relaxed);
    }

    /**
     * Move the task writeSlot() stored in `slot` into `out`, reading
     * the ops word first and then only the payload words it names
     * (TaskFn::relocateFrom), then the group and owner-counted words.
     * Only for a slot no other thread can still claim: the owner's
     * pop, an inject ring consumer's claimed cell, a destructor. Any
     * payload `out` held is destroyed first.
     */
    static void
    readSlot(uint64_t *slot, Task &out) noexcept
    {
        out.body.relocateFrom(slot + kPayloadWord, slot + kOpsWord);
        out.group = reinterpret_cast<TaskGroup *>(static_cast<uintptr_t>(
            std::atomic_ref<uint64_t>(slot[kGroupWord])
                .load(std::memory_order_relaxed)));
        out.ownerCounted = std::atomic_ref<uint64_t>(
                               slot[kOwnerCountedWord])
                               .load(std::memory_order_relaxed)
            != 0;
    }

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

  private:
    /** Word offsets of a Repr's fields in a ring slot; only the codec
     * above reads them. */
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
};

static_assert(std::is_trivially_copyable_v<Task::Repr>,
              "the rings copy Task::Repr as raw words");
static_assert(sizeof(Task::Repr) == 12 * sizeof(uint64_t),
              "Task::Repr must tile the ring's 96-byte slots");

} // namespace hermes::runtime

#endif // HERMES_RUNTIME_TASK_HPP
