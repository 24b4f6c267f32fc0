/**
 * @file
 * The work-stealing deque (paper Section 2, Algorithms 2.2-2.4).
 *
 * Each worker owns one deque. The owner pushes and pops at the tail;
 * thieves steal at the head, so the head always holds the *least
 * immediate* task under the work-first principle. Two interchangeable
 * synchronization protocols sit behind one API, selected by
 * `DequePolicy::impl`:
 *
 *  - **ChaseLev** (default): lock-free. A thief claims the head slot
 *    with a single CAS on `head_`; the owner's pop retracts `tail_`
 *    and resolves the last-task race with its own CAS on `head_`. No
 *    mutex anywhere — the full memory-order argument is in
 *    docs/STEALING.md ("The deque").
 *  - **The**: the paper's THE-style protocol kept for bitwise A/B
 *    replay — push lock-free, pop locking only on the last-task
 *    race, steal always locking (the pre-PR-5 behavior).
 *
 * Both protocols share the ring representation: tasks are stored as
 * their trivially-copyable `Task::Repr` (task.hpp), written and read
 * word-by-word with relaxed atomics. That makes a Chase-Lev steal's
 * copy-before-CAS race-free for the sanitizers: a thief copies the
 * slot words, and only a *successful* head CAS adopts the bytes — a
 * failed CAS discards a possibly-torn copy that never had a
 * constructor or destructor run on it.
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
#include <memory>
#include <mutex>
#include <vector>

#include "runtime/stats.hpp"
#include "runtime/task.hpp"

namespace hermes::runtime {

/** Which synchronization protocol a WsDeque runs. */
enum class DequeImpl
{
    ChaseLev, ///< lock-free: steal CAS + owner last-task CAS
    The       ///< legacy THE protocol (mutex on steal/contended pop)
};

/**
 * Deque knobs (part of RuntimeConfig).
 *
 * `impl = DequeImpl::The` replays the legacy mutex-guarded THE deque
 * for A/B comparison — same task ordering, same scheduler behavior,
 * zero CAS-retry counters.
 */
struct DequePolicy
{
    DequeImpl impl = DequeImpl::ChaseLev;
};

/** Owner-push/owner-pop/thief-steal deque (Chase-Lev or THE). */
class WsDeque
{
  public:
    /**
     * @param capacity_pow2 ring capacity; rounded up to 2^k
     * @param policy protocol selection (default lock-free Chase-Lev)
     */
    explicit WsDeque(size_t capacity_pow2 = 1 << 13,
                     DequePolicy policy = {});

    /** Destroys any tasks still queued (releases boxed closures). */
    ~WsDeque();

    WsDeque(const WsDeque &) = delete;
    WsDeque &operator=(const WsDeque &) = delete;

    /**
     * Owner pushes `t` at the tail (Algorithm 2.2). Identical for
     * both protocols.
     *
     * The usable capacity is capacity() - 1: one ring slot stays
     * vacant so the owner can never wrap onto the slot of an
     * in-flight steal (THE: a thief that claimed the head index but
     * has not yet moved the task out; Chase-Lev: the same rule is
     * what guarantees a torn pre-CAS slot copy always loses its
     * claiming CAS — see push() in deque.cpp).
     *
     * The tail publish is deliberately seq_cst, not release: it is
     * the producer half of the parking Dekker handshake
     * (docs/ARCHITECTURE.md, "Why there is no lost-wakeup window"),
     * and the head read that computes `size_after` must be ordered
     * after it so an empty→non-empty transition is never misread.
     *
     * @param t consumed only on success; intact when push fails so
     *        the caller can run it inline
     * @param size_after set to the deque size after the push
     * @return false if the ring is full (caller runs task inline)
     */
    bool push(Task &&t, size_t &size_after);

    /**
     * Owner pops from the tail — the most immediate task
     * (Algorithm 2.3). Chase-Lev: retract the tail (seq_cst), then
     * read the head; only the `head == tail` last-task case runs a
     * CAS on `head_` against the thieves. THE: the same shape with
     * the contended case retried under the lock.
     * @param out receives the task on success
     * @param size_after set to the size after a successful pop
     *        (racy estimate under Chase-Lev: thieves may move the
     *        head concurrently)
     * @return true on success, false if empty (or the last task was
     *         lost to a thief)
     */
    bool pop(Task &out, size_t &size_after);

    /**
     * Thief steals from the head — the least immediate task
     * (Algorithm 2.4). Chase-Lev: copy the head slot, then claim it
     * with one CAS on `head_`; a failed CAS (another thief or the
     * owner's last-task pop got there first) returns false and
     * counts a `stealCasRetries`. THE: claim-then-check under the
     * lock.
     * @param out receives the task on success
     * @param size_after set to the size after the steal (racy
     *        estimate under Chase-Lev)
     * @return true on success, false if empty/contended
     */
    bool steal(Task &out, size_t &size_after);

    /**
     * Thief steals up to ceil(n/2) tasks from the head, where n is
     * the size observed on entry.
     *
     * Chase-Lev: the grab is a bounded sequence of single-steal
     * steps — read head and tail (seq_cst), copy the head slot,
     * claim it with one CAS — aborting on the first contended CAS or
     * observed emptiness. Each step is the proven single-steal
     * protocol, which is what makes the grab exactly-once: a single
     * bulk head CAS after copying k slots could duplicate tasks
     * against the owner's pop, which frees slots from the tail side
     * without ever writing `head_` (see docs/STEALING.md for the
     * interleaving). The last-task race therefore always goes
     * through the single-steal CAS (`want = 1` when `n == 1`).
     * Unlike the THE grab there is no lock making the whole batch
     * atomic against other thieves — an interleaved thief simply
     * ends the batch early; head order is still globally preserved.
     *
     * THE: repeats the single-steal claim-then-check step under one
     * lock acquisition (the pre-PR-5 behavior, unchanged).
     *
     * @param out tasks are appended; not cleared first
     * @param size_after set to the size remaining after the grab
     *        (racy estimate under Chase-Lev)
     * @return number of tasks appended (0 if empty/contended)
     */
    size_t stealHalf(std::vector<Task> &out, size_t &size_after);

    /** Racy size estimate (exact only when quiescent). */
    size_t size() const;

    /** Racy emptiness estimate. */
    bool empty() const { return size() == 0; }

    size_t capacity() const { return mask_ + 1; }

    /** The protocol this deque runs. */
    DequeImpl impl() const { return impl_; }

    /**
     * Failed steal claims: Chase-Lev head-CAS losses (another thief
     * or the owner won the slot); THE claim-undo events (a racing
     * pop emptied the claimed slot). The thief-contention signal of
     * the chaselev-vs-the A/B.
     */
    uint64_t
    stealCasRetries() const
    {
        return stealCasRetries_.load(std::memory_order_relaxed);
    }

    /** Owner pops that lost the last-task race to a thief — the
     * owner's head CAS failed. Chase-Lev only: the THE replay
     * cannot separate a lost race from plain empty without extra
     * state and keeps this at 0. */
    uint64_t
    popCasLosses() const
    {
        return popCasLosses_.load(std::memory_order_relaxed);
    }

  private:
    static constexpr size_t kSlotWords =
        sizeof(Task::Repr) / sizeof(uint64_t);

    bool popChaseLev(Task &out, size_t &size_after);
    bool popThe(Task &out, size_t &size_after);
    bool stealChaseLev(Task &out, size_t &size_after);
    bool stealThe(Task &out, size_t &size_after);
    size_t stealHalfChaseLev(std::vector<Task> &out,
                             size_t &size_after);
    size_t stealHalfThe(std::vector<Task> &out, size_t &size_after);

    /** Write a relocated task into ring slot `index` (relaxed
     * per-word atomic stores; the index publish orders them). */
    void storeSlot(int64_t index, const Task::Repr &repr);

    /** Read ring slot `index` as relocated bytes (relaxed per-word
     * atomic loads). Under Chase-Lev the result may be torn when
     * the owner concurrently wraps onto the slot — callers must
     * discard it unless their claiming CAS succeeds. */
    Task::Repr loadSlot(int64_t index) const;

    /** One ring slot = kSlotWords consecutive 64-bit words; atomic
     * words (not Task objects) so the thief's copy-before-CAS is a
     * defined read even when it races the owner's wrap-around
     * overwrite. */
    std::unique_ptr<std::atomic<uint64_t>[]> slots_;
    size_t mask_;
    DequeImpl impl_;
    // Index words. All cross-thread accesses that arbitrate
    // ownership (tail publish/retract, head reads in pop/steal, the
    // claiming CASes) are seq_cst: the single total order S is what
    // resolves every pop-vs-steal tug-of-war, and the tail publish
    // doubles as the parking handshake's producer store. Reads that
    // only feed conservative checks (push's full check, the pop
    // empty fast path) are weaker — each is annotated at its site.
    std::atomic<int64_t> head_{0};
    std::atomic<int64_t> tail_{0};
    /** THE protocol only; untouched by Chase-Lev. */
    std::mutex lock_;
    /** Written by every thief: keeps its `fetch_add`. */
    std::atomic<uint64_t> stealCasRetries_{0};
    /** Written only by the owner's pop: `ownedAdd` (stats.hpp). */
    std::atomic<uint64_t> popCasLosses_{0};
};

} // namespace hermes::runtime

#endif // HERMES_RUNTIME_DEQUE_HPP
