/**
 * @file
 * The work-stealing deque (paper Section 2, Algorithms 2.2-2.4), split
 * into a private part and a shared part.
 *
 * Each worker owns one deque. The owner pushes and pops at the tail;
 * thieves steal at the head, so the head always holds the *least
 * immediate* task under the work-first principle. The ring holds two
 * parts, divided by a third index, `split_`:
 *
 *  - the *shared part* [head, split) is a Chase-Lev deque with
 *    `split_` in the tail's role: a thief claims the head slot with a
 *    single CAS on `head_`, bounded by `split_`; the owner takes the
 *    newest shared task back (a *reclaim*) by retracting `split_` and
 *    resolving the last-task race with its own CAS on `head_`;
 *  - the *private part* [split, tail) is touched only by the owner,
 *    with plain (relaxed) loads and stores: a push or pop there
 *    issues no locked instruction.
 *
 * One rule moves tasks between them (the *share rule*): after every
 * push and every pop, if thieves have emptied the shared part while
 * private tasks remain, the owner publishes the older ceil(n/2) of
 * its n private tasks with one seq_cst store of `split_`, and reports
 * that empty→non-empty transition to its caller, which wakes a parked
 * worker. So synchronization follows the steals, not the work (Rito &
 * Paulino, PAPERS.md). A private task stays invisible to thieves
 * until its owner's next push, pop or shareAll(). No mutex anywhere —
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
 * Index convention: items occupy [head, tail); size == tail - head;
 * head <= split <= tail whenever the owner is outside a reclaim.
 * Indices grow monotonically and wrap onto a fixed ring. A full deque
 * rejects the push and the caller executes the task inline —
 * semantically sound for child-stealing, and it bounds memory like
 * Cilk's stack bound.
 */

#ifndef HERMES_RUNTIME_DEQUE_HPP
#define HERMES_RUNTIME_DEQUE_HPP

#include <atomic>
#include <cstdint>
#include <vector>

#include "runtime/stats.hpp"
#include "runtime/sync.hpp"
#include "runtime/task.hpp"
#include "runtime/zeroed_words.hpp"

namespace hermes::runtime {

/** Owner-push/owner-pop/thief-steal split deque. */
class WsDeque
{
  public:
    /** What an owner push or pop did. */
    struct OwnerResult
    {
        /** The task was pushed (false: the ring is full) or popped
         * (false: the deque was empty, or a thief won its last
         * task). */
        bool done = false;
        /** This call made the shared part non-empty: the caller
         * wakes a parked worker (the work-publish of the parking
         * handshake is already done). */
        bool published = false;
        /** Whole deque size (private + shared) afterwards; a racy
         * estimate, since thieves may move the head concurrently. */
        size_t size = 0;

        explicit operator bool() const { return done; }
    };

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
     * Owner pushes a task at the tail of the private part (Algorithm
     * 2.2), writing it straight from the closure into the ring slot,
     * then applies the share rule. The tail store is relaxed: only a
     * share publishes to thieves.
     *
     * The usable capacity is capacity() - 1: one ring slot stays
     * vacant so the owner can never wrap onto the slot of an
     * in-flight steal, which is what guarantees a torn pre-CAS slot
     * copy always loses its claiming CAS (docs/STEALING.md).
     *
     * @param fn consumed only on success; intact when push fails so
     *        the caller can run it inline
     * @param group the group the task completes into
     * @param owner_counted how the group counted the task (Task)
     */
    OwnerResult
    push(TaskFn &&fn, TaskGroup *group, bool owner_counted)
    {
        const int64_t tail = tail_.load(std::memory_order_relaxed);
        // The acquire head read can only lag the true head, which
        // makes the full check conservative (see the vacant slot
        // above) and the share check below late, never wrong.
        const int64_t head = head_.load(std::memory_order_acquire);
        if (tail - head >= static_cast<int64_t>(mask_))
            return {}; // full: caller executes inline
        Task::writeSlot(slotAt(tail), fn, group, owner_counted);
        tail_.store(tail + 1, std::memory_order_relaxed);
        return afterOwnerOp(head, tail + 1);
    }

    /** push() of a whole Task; `t.body` is consumed only on
     * success. */
    OwnerResult
    push(Task &&t)
    {
        return push(std::move(t.body), t.group, t.ownerCounted);
    }

    /**
     * Owner pops the most immediate task (Algorithm 2.3). From a
     * non-empty private part that is the tail slot, taken with no
     * fence and no CAS, followed by the share rule. From an empty
     * private part it is a reclaim of the newest shared task:
     * Chase-Lev's pop with `split_` as the tail — a seq_cst retract,
     * a seq_cst head read, and a CAS on `head_` only for the last
     * task.
     * @param out receives the task on success
     */
    OwnerResult
    pop(Task &out)
    {
        const int64_t tail = tail_.load(std::memory_order_relaxed);
        const int64_t split = split_.load(std::memory_order_relaxed);
        if (tail == split)
            return reclaim(out);
        // No thief claims an index at or above split_, so the slot is
        // the owner's outright.
        Task::readSlot(slotAt(tail - 1), out);
        tail_.store(tail - 1, std::memory_order_relaxed);
        return afterOwnerOp(head_.load(std::memory_order_acquire),
                            tail - 1);
    }

    /**
     * Owner publishes every private task, whatever the shared part
     * holds: before a stretch in which it will neither push nor pop.
     * @return true if the shared part went from empty to non-empty
     *         (the caller wakes a parked worker)
     */
    bool shareAll();

    /**
     * Thief steals from the head — the least immediate shared task
     * (Algorithm 2.4): copy the head slot, then claim it with one
     * CAS on `head_`; a failed CAS (another thief or the owner's
     * last-task reclaim got there first) returns false and counts a
     * `stealCasRetries`.
     * @param out receives the task on success
     * @param size_after set to the shared size after the steal (racy
     *        estimate)
     * @return true on success, false if the shared part was empty or
     *         the claim contended
     */
    bool steal(Task &out, size_t &size_after);

    /**
     * Thief steals up to ceil(n/2) tasks from the head, where n is
     * the shared size the first claim observes.
     *
     * The grab is a run of steal()'s claim step — read head and
     * split (seq_cst), copy the head slot, claim it with one CAS —
     * ending at the first contended CAS or observed emptiness. Each
     * step is the proven single-steal protocol, which is what makes
     * the grab exactly-once: a single bulk head CAS after copying k
     * slots could duplicate tasks against the owner's reclaim, which
     * frees slots from the split side without ever writing `head_`
     * (see docs/STEALING.md for the interleaving). No lock makes the
     * batch atomic against other thieves — an interleaved thief
     * simply ends it early; head order is still globally preserved.
     *
     * @param out tasks are appended; not cleared first
     * @param size_after set to the shared size remaining after the
     *        grab (racy estimate)
     * @return number of tasks appended (0 if empty/contended)
     */
    size_t stealHalf(std::vector<Task> &out, size_t &size_after);

    /** Racy whole size, private + shared (exact only when
     * quiescent). */
    size_t size() const;

    /** Racy emptiness estimate of the whole deque. */
    bool empty() const { return size() == 0; }

    /** Whether a thief could claim a task now: the shared part, read
     * seq_cst (the parking re-check's read of this deque). */
    bool stealable() const;

    size_t capacity() const { return mask_ + 1; }

    /** Failed steal claims: head-CAS losses to another thief or to
     * the owner's last-task reclaim. The thief-contention signal. */
    uint64_t
    stealCasRetries() const
    {
        return stealCasRetries_.load(std::memory_order_relaxed);
    }

    /** Owner reclaims that lost the last-task race to a thief — the
     * owner's head CAS failed. */
    uint64_t
    popCasLosses() const
    {
        return popCasLosses_.load(std::memory_order_relaxed);
    }

  private:
    /**
     * The share rule, after an owner push or private pop that left
     * the tail at `tail`: if the shared part looks empty (`head`, a
     * possibly stale read, has reached `split_`) and private tasks
     * remain, publish the older ceil(n/2) of the n private tasks.
     */
    OwnerResult
    afterOwnerOp(int64_t head, int64_t tail)
    {
        OwnerResult r{true, false,
                      static_cast<size_t>(tail > head ? tail - head : 0)};
        const int64_t split = split_.load(std::memory_order_relaxed);
        if (head >= split && tail > split) {
            // seq_cst: releases the slots to thieves, and is the
            // work-publish half of the parking Dekker handshake
            // (docs/ARCHITECTURE.md).
            sync::store(split_, split + (tail - split + 1) / 2,
                        std::memory_order_seq_cst);
            r.published = true;
        }
        return r;
    }

    /** pop() on an empty private part: take the newest shared task
     * back, Chase-Lev style. */
    OwnerResult reclaim(Task &out);

    /**
     * The claim step of every steal: read head, then split
     * (seq_cst), copy the head slot, claim it with one CAS on
     * `head_`.
     * @param repr receives the claimed slot; unspecified unless the
     *        claim wins
     * @return the shared size seen before the claim, or 0 when the
     *         shared part looked empty or the CAS lost (counted in
     *         `stealCasRetries`)
     */
    int64_t claimHead(Task::Repr &repr);

    /** First of the Task::kSlotWords words of ring slot `index`. */
    uint64_t *
    slotAt(int64_t index) const
    {
        return slots_.data()
            + (static_cast<size_t>(index) & mask_) * Task::kSlotWords;
    }

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
    // Index words. Every cross-thread access that arbitrates
    // ownership of a shared slot (the share and reclaim stores of
    // split_, the head and split reads in reclaim and claimHead, the
    // claiming CASes) is seq_cst: the single total order S resolves
    // every reclaim-vs-steal tug-of-war, and the share store doubles
    // as the parking handshake's producer store. Owner-only reads
    // and the private part's accesses are weaker — each is annotated
    // at its site.
    //
    // The words thieves read (head_, split_) share one cache line,
    // which the owner only reads between steals and shares; tail_,
    // which every owner push and pop writes, has a line of its own,
    // so hunting thieves do not pull it back and forth.
    /** Claimed by thieves (CAS) and by the owner's last-task
     * reclaim. */
    alignas(64) std::atomic<int64_t> head_{0};
    /** End of the shared part; written only by the owner. */
    std::atomic<int64_t> split_{0};
    /** Written by every thief: keeps its `fetch_add`. */
    std::atomic<uint64_t> stealCasRetries_{0};
    /** End of the private part; written only by the owner, relaxed.
     * Other threads read it only as a size hint. */
    alignas(64) std::atomic<int64_t> tail_{0};
    /** Written only by the owner's reclaim: `ownedAdd` (stats.hpp). */
    std::atomic<uint64_t> popCasLosses_{0};
};

} // namespace hermes::runtime

#endif // HERMES_RUNTIME_DEQUE_HPP
