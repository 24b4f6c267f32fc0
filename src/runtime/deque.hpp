/**
 * @file
 * The work-stealing deque (paper Section 2, Algorithms 2.2-2.4).
 *
 * Each worker owns one deque. The owner pushes and pops at the tail;
 * thieves steal at the head, so the head always holds the *least
 * immediate* task under the work-first principle. The protocol is
 * Chase-Lev's, lock-free: a thief claims the head slot with a single
 * CAS on `head_`; the owner's pop retracts `tail_` and resolves the
 * last-task race with its own CAS on `head_`. No mutex anywhere —
 * the full memory-order argument is in docs/STEALING.md ("The
 * deque").
 *
 * Tasks are stored as their trivially-copyable `Task::Repr`
 * (task.hpp) in zero-filled words (zeroed_words.hpp), written and
 * read word-by-word with relaxed `std::atomic_ref` accesses. The
 * owner's push and pop move only the payload words the closure uses
 * plus the ops, group and owner-counted words
 * (`Task::writeSlot`/`readSlot`). A steal copies the whole slot
 * before its CAS, which keeps that copy race-free for the
 * sanitizers: only a *successful* head CAS adopts the bytes — a
 * failed CAS discards a possibly-torn copy that never had a
 * constructor or destructor run on it, and no ops pointer is
 * dereferenced before the CAS wins.
 *
 * Index convention (the paper's pseudocode mixes two): items occupy
 * [head, tail); size == tail - head; push stores at tail then
 * publishes tail+1; pop claims tail-1; steal claims head. Indices grow
 * monotonically and wrap onto a fixed ring. A full deque rejects the
 * push and the caller executes the task inline — semantically sound
 * for child-stealing, and it bounds memory like Cilk's stack bound.
 */

#ifndef HERMES_RUNTIME_DEQUE_HPP
#define HERMES_RUNTIME_DEQUE_HPP

#include <atomic>
#include <cstdint>
#include <vector>

#include "runtime/stats.hpp"
#include "runtime/task.hpp"
#include "runtime/zeroed_words.hpp"

namespace hermes::runtime {

/** Owner-push/owner-pop/thief-steal Chase-Lev deque. */
class WsDeque
{
  public:
    /**
     * The ring reserves address space for its capacity and writes
     * nothing: a page becomes resident when a push first reaches it.
     * @param capacity_pow2 ring capacity; rounded up to 2^k
     * @throws std::bad_alloc when the ring cannot be mapped
     */
    explicit WsDeque(size_t capacity_pow2 = 1 << 13);

    /** Destroys any tasks still queued (releases boxed closures). */
    ~WsDeque();

    WsDeque(const WsDeque &) = delete;
    WsDeque &operator=(const WsDeque &) = delete;

    /**
     * Owner pushes a task at the tail (Algorithm 2.2), writing it
     * straight from the closure into the ring slot.
     *
     * The usable capacity is capacity() - 1: one ring slot stays
     * vacant so the owner can never wrap onto the slot of an
     * in-flight steal, which is what guarantees a torn pre-CAS slot
     * copy always loses its claiming CAS (see push() in deque.cpp).
     *
     * The tail publish is deliberately seq_cst, not release: it is
     * the producer half of the parking Dekker handshake
     * (docs/ARCHITECTURE.md, "Why there is no lost-wakeup window"),
     * and the head read that computes `size_after` must be ordered
     * after it so an empty→non-empty transition is never misread.
     *
     * @param fn consumed only on success; intact when push fails so
     *        the caller can run it inline
     * @param group the group the task completes into
     * @param owner_counted how the group counted the task (Task)
     * @param size_after set to the deque size after the push
     * @return false if the ring is full (caller runs task inline)
     */
    bool push(TaskFn &&fn, TaskGroup *group, bool owner_counted,
              size_t &size_after);

    /** push() of a whole Task; `t.body` is consumed only on
     * success. */
    bool
    push(Task &&t, size_t &size_after)
    {
        return push(std::move(t.body), t.group, t.ownerCounted,
                    size_after);
    }

    /**
     * Owner pops from the tail — the most immediate task
     * (Algorithm 2.3): retract the tail (seq_cst), then read the
     * head; only the `head == tail` last-task case runs a CAS on
     * `head_` against the thieves.
     * @param out receives the task on success
     * @param size_after set to the size after a successful pop
     *        (racy estimate: thieves may move the head
     *        concurrently)
     * @return true on success, false if empty (or the last task was
     *         lost to a thief)
     */
    bool pop(Task &out, size_t &size_after);

    /**
     * Thief steals from the head — the least immediate task
     * (Algorithm 2.4): copy the head slot, then claim it with one
     * CAS on `head_`; a failed CAS (another thief or the owner's
     * last-task pop got there first) returns false and counts a
     * `stealCasRetries`.
     * @param out receives the task on success
     * @param size_after set to the size after the steal (racy
     *        estimate)
     * @return true on success, false if empty/contended
     */
    bool steal(Task &out, size_t &size_after);

    /**
     * Thief steals up to ceil(n/2) tasks from the head, where n is
     * the size the first claim observes.
     *
     * The grab is a run of steal()'s claim step — read head and tail
     * (seq_cst), copy the head slot, claim it with one CAS — ending
     * at the first contended CAS or observed emptiness. Each step is
     * the proven single-steal protocol, which is what makes the grab
     * exactly-once: a single bulk head CAS after copying k slots
     * could duplicate tasks against the owner's pop, which frees
     * slots from the tail side without ever writing `head_` (see
     * docs/STEALING.md for the interleaving). No lock makes the
     * batch atomic against other thieves — an interleaved thief
     * simply ends it early; head order is still globally preserved.
     *
     * @param out tasks are appended; not cleared first
     * @param size_after set to the size remaining after the grab
     *        (racy estimate)
     * @return number of tasks appended (0 if empty/contended)
     */
    size_t stealHalf(std::vector<Task> &out, size_t &size_after);

    /** Racy size estimate (exact only when quiescent). */
    size_t size() const;

    /** Racy emptiness estimate. */
    bool empty() const { return size() == 0; }

    size_t capacity() const { return mask_ + 1; }

    /** Failed steal claims: head-CAS losses to another thief or to
     * the owner's last-task pop. The thief-contention signal. */
    uint64_t
    stealCasRetries() const
    {
        return stealCasRetries_.load(std::memory_order_relaxed);
    }

    /** Owner pops that lost the last-task race to a thief — the
     * owner's head CAS failed. */
    uint64_t
    popCasLosses() const
    {
        return popCasLosses_.load(std::memory_order_relaxed);
    }

  private:
    /**
     * The claim step of every steal: read head, then tail (seq_cst),
     * copy the head slot, claim it with one CAS on `head_`.
     * @param repr receives the claimed slot; unspecified unless the
     *        claim wins
     * @return the size seen before the claim, or 0 when the deque
     *         looked empty or the CAS lost (counted in
     *         `stealCasRetries`)
     */
    int64_t claimHead(Task::Repr &repr);

    /** First of the Task::kSlotWords words of ring slot `index`. */
    uint64_t *slotAt(int64_t index) const;

    /** Read the whole of ring slot `index` as relocated bytes
     * (relaxed per-word atomic loads). The result may be torn when
     * the owner concurrently wraps onto the slot — callers must
     * discard it unless their claiming CAS succeeds. */
    Task::Repr loadSlot(int64_t index) const;

    size_t mask_;
    /** One ring slot = Task::kSlotWords consecutive 64-bit words,
     * accessed only through `std::atomic_ref` (not Task objects), so
     * the thief's copy-before-CAS is a defined read even when it
     * races the owner's wrap-around overwrite. The words sit on zero
     * pages: one no push wrote reads as zero (see the constructor). */
    ZeroedWords slots_;
    // Index words. All cross-thread accesses that arbitrate
    // ownership (tail publish/retract, head reads in pop/steal, the
    // claiming CASes) are seq_cst: the single total order S is what
    // resolves every pop-vs-steal tug-of-war, and the tail publish
    // doubles as the parking handshake's producer store. Reads that
    // only feed conservative checks (push's full check, the pop
    // empty fast path) are weaker — each is annotated at its site.
    std::atomic<int64_t> head_{0};
    std::atomic<int64_t> tail_{0};
    /** Written by every thief: keeps its `fetch_add`. */
    std::atomic<uint64_t> stealCasRetries_{0};
    /** Written only by the owner's pop: `ownedAdd` (stats.hpp). */
    std::atomic<uint64_t> popCasLosses_{0};
};

} // namespace hermes::runtime

#endif // HERMES_RUNTIME_DEQUE_HPP
