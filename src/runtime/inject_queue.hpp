/**
 * @file
 * The external-submission (inject) path: a lock-free bounded MPMC
 * ring per topology domain, with a mutex-guarded spillover so
 * submission never drops a task or blocks unboundedly.
 *
 * External producers — threads that are not workers of the target
 * runtime — used to funnel every root task through one mutex-guarded
 * deque, the last lock on the task entry path. The replacement is a
 * Vyukov-style bounded MPMC ring (per-cell sequence numbers: a cell
 * whose sequence equals the enqueue position is free, one past the
 * dequeue position is full), sharded per topology domain so
 * producers mapped to different domains never contend on the same
 * head/tail cachelines and consumers can drain their own domain's
 * shard first — the same-domain-first order the stealing policy
 * already applies to victims (docs/STEALING.md). When a shard's ring
 * is full the task spills to a mutex-guarded deque instead of
 * failing: `push` always succeeds, the mutex is simply no longer on
 * the fast path. The scheduler-facing protocol (who publishes the
 * Dekker handshake word, why a parked worker cannot sleep through a
 * submission) is documented in docs/ARCHITECTURE.md; this file only
 * stores and hands back tasks.
 */

#ifndef HERMES_RUNTIME_INJECT_QUEUE_HPP
#define HERMES_RUNTIME_INJECT_QUEUE_HPP

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "runtime/task.hpp"
#include "runtime/zeroed_words.hpp"

namespace hermes::runtime {

/** External-submission knobs (part of RuntimeConfig). */
struct InjectPolicy
{
    /**
     * Per-shard ring capacity in tasks (rounded up to 2^k, >= 2).
     * Submissions beyond a full shard spill to the mutex-guarded
     * overflow deque; `RuntimeStats::injectSpill` counts how often
     * the capacity was too small for the offered load.
     */
    size_t shardCapacity = 1 << 10;
};

/**
 * Bounded lock-free MPMC ring with per-cell sequence numbers
 * (Vyukov's algorithm).
 *
 * Each cell carries a sequence word. A producer may claim enqueue
 * position `p` only while `cell[p % cap].seq == p` (the cell is
 * free); after moving the task in it publishes `seq = p + 1`. A
 * consumer may claim dequeue position `p` only while `seq == p + 1`
 * (the cell is full); after moving the task out it publishes
 * `seq = p + cap`, freeing the cell for the producer one lap ahead.
 * Claims race on the position counters with weak CAS; the sequence
 * check makes a claimed cell private to its claimant, so the task
 * move itself is uncontended. Both operations are non-blocking:
 * `tryPush` fails on a full ring, `tryPop` on an empty one, and
 * neither spins on a stalled peer.
 *
 * The cells are 64-bit words on zero pages (zeroed_words.hpp): a
 * task slot in the deque's layout (`Task::writeSlot`/`readSlot`)
 * followed by the sequence word. Cell `i` stores its sequence minus
 * `i`, so all-zero memory is a ring whose cell `i` holds sequence
 * `i` — empty — and building one writes nothing.
 */
class InjectRing
{
  public:
    /** @param capacity ring capacity in tasks; rounded up to 2^k,
     *        minimum 2. Reserves address space for it; a cell's
     *        pages become resident when a push first reaches it.
     * @throws std::bad_alloc when the ring cannot be mapped */
    explicit InjectRing(size_t capacity);

    /** Destroys the tasks still queued, the cells in
     * [dequeuePos, enqueuePos) (releases boxed closures). */
    ~InjectRing();

    InjectRing(const InjectRing &) = delete;
    InjectRing &operator=(const InjectRing &) = delete;

    /**
     * Enqueue at the tail.
     * @param t consumed only on success; intact when the ring is
     *        full so the caller can spill it
     * @return false if the ring is full
     */
    bool tryPush(Task &&t);

    /**
     * Dequeue from the head (FIFO).
     * @param out receives the task on success
     * @return false if the ring is empty
     */
    bool tryPop(Task &out);

    size_t capacity() const { return mask_ + 1; }

  private:
    /** Words per cell: a task slot, then the sequence word, padded to
     * 16 words so a cell fills two whole cachelines of the
     * page-aligned mapping and no two cells share one. */
    static constexpr size_t kCellWords = 16;
    static constexpr size_t kSeqWord = Task::kSlotWords;
    static_assert(kSeqWord < kCellWords);

    /** First word of the cell that position `pos` maps to. */
    uint64_t *cellAt(size_t pos) const;

    /** The sequence of `cell`, the cell of position `pos` (acquire). */
    size_t loadSeq(uint64_t *cell, size_t pos) const;

    /** Publish sequence `seq` for `cell`, the cell of position `pos`
     * (release). */
    void storeSeq(uint64_t *cell, size_t pos, size_t seq);

    size_t mask_;
    ZeroedWords cells_;
    /** Producer and consumer claim words on separate cachelines so
     * push traffic never invalidates the pop side and vice versa. */
    alignas(64) std::atomic<size_t> enqueuePos_{0};
    alignas(64) std::atomic<size_t> dequeuePos_{0};
};

/**
 * The sharded inject queue: one InjectRing per topology domain plus
 * a mutex-guarded spillover deque.
 *
 * Producers carry a shard hint (a worker's domain, or a stable
 * per-thread token for external threads — see producerShardHint());
 * consumers pass their own domain so the drain order is
 * same-domain-first, mirroring the stealing policy's victim order.
 * After a pop frees ring room, up to eight spilled tasks move back
 * into that ring (oldest first), so sustained overflow regains rough
 * FIFO instead of stranding spilled tasks behind a
 * constantly-refilling ring. The queue stores tasks only — the
 * Dekker publish word (`Runtime::injectPending_`), wake
 * notification, and all counters stay in the scheduler, which owns
 * the parking proof (docs/ARCHITECTURE.md).
 */
class InjectQueue
{
  public:
    /** Where a push landed. */
    enum class PushPath
    {
        Ring, ///< lock-free fast path (the shard had room)
        Spill ///< mutex-guarded overflow (the shard was full)
    };

    /** Where a pop was satisfied from. */
    enum class PopSource
    {
        None,           ///< nothing claimable anywhere
        PreferredShard, ///< the consumer's own-domain shard
        OtherShard,     ///< another domain's shard
        Spill           ///< the overflow deque
    };

    /**
     * @param policy per-shard ring capacity
     * @param num_domains shard count: one ring per domain (>= 1 is
     *        enforced)
     */
    InjectQueue(const InjectPolicy &policy, unsigned num_domains);

    InjectQueue(const InjectQueue &) = delete;
    InjectQueue &operator=(const InjectQueue &) = delete;

    /**
     * Enqueue `t`, never failing and never blocking beyond the
     * spillover mutex (taken only when the hinted shard's ring is
     * full).
     * @param t always consumed
     * @param shard_hint producer placement token, reduced modulo the
     *        shard count (a domain id or producerShardHint())
     * @return which path the task landed on
     */
    PushPath push(Task &&t, unsigned shard_hint);

    /**
     * Dequeue one task: the preferred shard first, then the other
     * shards in ring order, then the spillover. A `None` return does
     * not prove the queue is empty — a concurrent producer may be
     * between its claim and its publish — so callers gate retries on
     * the scheduler's pending counter, not on this result.
     * @param out receives the task on success
     * @param preferred_shard the consumer's domain (reduced modulo
     *        the shard count)
     * @return where the task came from, or None
     */
    PopSource tryPop(Task &out, unsigned preferred_shard);

    unsigned numShards() const
    {
        return static_cast<unsigned>(rings_.size());
    }

    /** Racy spillover depth estimate (exact only when quiescent). */
    size_t spillSizeApprox() const
    {
        return spillSize_.load(std::memory_order_relaxed);
    }

    /** Total spilled tasks moved back into a ring by the
     * opportunistic drain-back. */
    uint64_t
    drainBacks() const
    {
        return drainBacks_.load(std::memory_order_relaxed);
    }

  private:
    /** Move up to eight spilled tasks into `ring` (oldest first),
     * stopping when either runs out of room/tasks. Called right
     * after a pop freed at least one slot. */
    void drainBackInto(InjectRing &ring);

    std::vector<std::unique_ptr<InjectRing>> rings_;
    std::mutex spillMutex_;
    std::deque<Task> spill_;
    /** Lets tryPop skip the spill mutex while the overflow is empty
     * (the common case once shardCapacity fits the offered load). */
    std::atomic<size_t> spillSize_{0};
    std::atomic<uint64_t> drainBacks_{0};
};

/**
 * Stable per-thread shard hint for producers that have no domain
 * (external submitters): threads are numbered in first-submission
 * order, spreading concurrent producers round-robin across shards so
 * two external threads contend on the same enqueue cacheline only
 * when there are more producers than shards.
 */
unsigned producerShardHint();

} // namespace hermes::runtime

#endif // HERMES_RUNTIME_INJECT_QUEUE_HPP
