#include "runtime/inject_queue.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "runtime/sync.hpp"

namespace hermes::runtime {

namespace {

/** Most spilled tasks one pop moves back into the ring it freed: a
 * bounded spill-mutex hold per pop. */
constexpr unsigned kDrainBackBatch = 8;

} // namespace

InjectRing::InjectRing(size_t capacity)
    : mask_(std::bit_ceil(std::max<size_t>(2, capacity)) - 1),
      cells_((mask_ + 1) * kCellWords)
{}

InjectRing::~InjectRing()
{
    // Adopt-and-drop the occupied cells so boxed closures are
    // released. Destruction is single-threaded by contract, so every
    // claimed position is also published.
    const size_t end = enqueuePos_.load(std::memory_order_relaxed);
    Task dropped;
    for (size_t pos = dequeuePos_.load(std::memory_order_relaxed);
         pos != end; ++pos)
        Task::readSlot(cellAt(pos), dropped);
}

uint64_t *
InjectRing::cellAt(size_t pos) const
{
    return cells_.data() + (pos & mask_) * kCellWords;
}

size_t
InjectRing::loadSeq(uint64_t *cell, size_t pos) const
{
    // Stored relative to the cell index, so untouched zero pages
    // read as the initial sequence: cell i holds i.
    return static_cast<size_t>(std::atomic_ref<uint64_t>(cell[kSeqWord])
                                   .load(std::memory_order_acquire))
        + (pos & mask_);
}

void
InjectRing::storeSeq(uint64_t *cell, size_t pos, size_t seq)
{
    std::atomic_ref<uint64_t>(cell[kSeqWord])
        .store(seq - (pos & mask_), std::memory_order_release);
}

bool
InjectRing::tryPush(Task &&t)
{
    uint64_t *cell;
    size_t pos = enqueuePos_.load(std::memory_order_relaxed);
    for (;;) {
        cell = cellAt(pos);
        // Acquire pairs with the consumer's freeing store: once the
        // sequence says the cell is ours, the previous lap's task has
        // fully moved out.
        const size_t seq = loadSeq(cell, pos);
        const auto dif = static_cast<intptr_t>(seq)
            - static_cast<intptr_t>(pos);
        if (dif == 0) {
            // Cell free at our position: claim it. The weak CAS may
            // fail spuriously or to a racing producer; either way
            // `pos` is reloaded and we retry.
            if (sync::casWeak(enqueuePos_, pos, pos + 1,
                              std::memory_order_relaxed))
                break;
        } else if (dif < 0) {
            // Cell still holds last lap's task: the ring is full
            // (or a consumer is mid-pop, which full-capacity-wise is
            // the same answer right now).
            return false;
        } else {
            // Another producer already claimed this position.
            pos = enqueuePos_.load(std::memory_order_relaxed);
        }
    }
    Task::writeSlot(cell, t.body, t.group, t.ownerCounted);
    // Publish: consumers' acquire load of seq sees the task store.
    storeSeq(cell, pos, pos + 1);
    return true;
}

bool
InjectRing::tryPop(Task &out)
{
    uint64_t *cell;
    size_t pos = dequeuePos_.load(std::memory_order_relaxed);
    for (;;) {
        cell = cellAt(pos);
        const size_t seq = loadSeq(cell, pos);
        const auto dif = static_cast<intptr_t>(seq)
            - static_cast<intptr_t>(pos + 1);
        if (dif == 0) {
            if (sync::casWeak(dequeuePos_, pos, pos + 1,
                              std::memory_order_relaxed))
                break;
        } else if (dif < 0) {
            // Cell not yet published at our position: empty (or the
            // producer that claimed it has not finished its store —
            // callers treat both as "nothing claimable now").
            return false;
        } else {
            pos = dequeuePos_.load(std::memory_order_relaxed);
        }
    }
    // The claim makes the cell ours: move the task out, ops word
    // first, and leave the relocated bytes for the next lap's push
    // to overwrite.
    Task::readSlot(cell, out);
    // Free the cell for the producer one lap ahead.
    storeSeq(cell, pos, pos + mask_ + 1);
    return true;
}

InjectQueue::InjectQueue(const InjectPolicy &policy,
                         unsigned num_domains)
{
    const unsigned shards = std::max(1u, num_domains);
    rings_.reserve(shards);
    for (unsigned s = 0; s < shards; ++s)
        rings_.push_back(
            std::make_unique<InjectRing>(policy.shardCapacity));
}

InjectQueue::PushPath
InjectQueue::push(Task &&t, unsigned shard_hint)
{
    auto &ring = *rings_[shard_hint % rings_.size()];
    if (ring.tryPush(std::move(t)))
        return PushPath::Ring;
    // Shard full: fall back to the overflow deque rather than block
    // or drop. The ring rejection left `t` intact.
    {
        sync::Guard lock(spillMutex_);
        spill_.push_back(std::move(t));
        sync::fetchAdd(spillSize_, 1, std::memory_order_relaxed);
    }
    return PushPath::Spill;
}

InjectQueue::PopSource
InjectQueue::tryPop(Task &out, unsigned preferred_shard)
{
    const unsigned n = numShards();
    const unsigned start = preferred_shard % n;
    for (unsigned k = 0; k < n; ++k) {
        InjectRing &ring = *rings_[(start + k) % n];
        if (ring.tryPop(out)) {
            // The pop freed at least one slot: opportunistically
            // pull spilled tasks back into this ring so sustained
            // overflow regains rough FIFO (ROADMAP drain-back item)
            // instead of stranding the spill behind a
            // constantly-refilling ring.
            if (spillSize_.load(std::memory_order_acquire) != 0)
                drainBackInto(ring);
            return k == 0 ? PopSource::PreferredShard
                          : PopSource::OtherShard;
        }
    }
    // Ring-first drain keeps delivery roughly FIFO: a spilled task
    // is always newer than the ring tasks that filled its shard.
    // Under sustained overflow the spill drains whenever a scan
    // finds the rings momentarily empty — bounded unfairness, never
    // starvation of the queue as a whole.
    if (spillSize_.load(std::memory_order_acquire) != 0) {
        sync::Guard lock(spillMutex_);
        if (!spill_.empty()) {
            out = std::move(spill_.front());
            spill_.pop_front();
            sync::fetchSub(spillSize_, 1, std::memory_order_relaxed);
            return PopSource::Spill;
        }
    }
    return PopSource::None;
}

void
InjectQueue::drainBackInto(InjectRing &ring)
{
    sync::Guard lock(spillMutex_);
    unsigned moved = 0;
    while (moved < kDrainBackBatch && !spill_.empty()) {
        // tryPush leaves the task intact when the ring refilled
        // (racing producers), so nothing is lost — stop and leave
        // the remainder spilled.
        if (!ring.tryPush(std::move(spill_.front())))
            break;
        spill_.pop_front();
        sync::fetchSub(spillSize_, 1, std::memory_order_relaxed);
        ++moved;
    }
    if (moved != 0)
        sync::fetchAdd(drainBacks_, moved, std::memory_order_relaxed);
}

unsigned
producerShardHint()
{
    static std::atomic<unsigned> next{0};
    thread_local const unsigned hint =
        sync::fetchAdd(next, 1, std::memory_order_relaxed);
    return hint;
}

} // namespace hermes::runtime
