#include "runtime/inject_queue.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>

namespace hermes::runtime {

namespace {

/** Most spilled tasks one pop moves back into the ring it freed: a
 * bounded spill-mutex hold per pop. */
constexpr unsigned kDrainBackBatch = 8;

} // namespace

InjectRing::InjectRing(size_t capacity)
{
    const size_t cap = std::bit_ceil(std::max<size_t>(2, capacity));
    cells_ = std::make_unique<Cell[]>(cap);
    mask_ = cap - 1;
    for (size_t i = 0; i < cap; ++i)
        cells_[i].seq.store(i, std::memory_order_relaxed);
}

bool
InjectRing::tryPush(Task &&t)
{
    Cell *cell;
    size_t pos = enqueuePos_.load(std::memory_order_relaxed);
    for (;;) {
        cell = &cells_[pos & mask_];
        // Acquire pairs with the consumer's freeing store: once the
        // sequence says the cell is ours, the previous lap's task has
        // fully moved out.
        const size_t seq = cell->seq.load(std::memory_order_acquire);
        const auto dif = static_cast<intptr_t>(seq)
            - static_cast<intptr_t>(pos);
        if (dif == 0) {
            // Cell free at our position: claim it. The weak CAS may
            // fail spuriously or to a racing producer; either way
            // `pos` is reloaded and we retry.
            if (enqueuePos_.compare_exchange_weak(
                    pos, pos + 1, std::memory_order_relaxed))
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
    cell->task = std::move(t);
    // Publish: consumers' acquire load of seq sees the task store.
    cell->seq.store(pos + 1, std::memory_order_release);
    return true;
}

bool
InjectRing::tryPop(Task &out)
{
    Cell *cell;
    size_t pos = dequeuePos_.load(std::memory_order_relaxed);
    for (;;) {
        cell = &cells_[pos & mask_];
        const size_t seq = cell->seq.load(std::memory_order_acquire);
        const auto dif = static_cast<intptr_t>(seq)
            - static_cast<intptr_t>(pos + 1);
        if (dif == 0) {
            if (dequeuePos_.compare_exchange_weak(
                    pos, pos + 1, std::memory_order_relaxed))
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
    out = std::move(cell->task);
    // Drop the moved-from closure now so captured resources do not
    // linger a full lap in the ring.
    cell->task = Task{};
    // Free the cell for the producer one lap ahead.
    cell->seq.store(pos + mask_ + 1, std::memory_order_release);
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
        std::lock_guard<std::mutex> lock(spillMutex_);
        spill_.push_back(std::move(t));
        spillSize_.fetch_add(1, std::memory_order_relaxed);
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
        std::lock_guard<std::mutex> lock(spillMutex_);
        if (!spill_.empty()) {
            out = std::move(spill_.front());
            spill_.pop_front();
            spillSize_.fetch_sub(1, std::memory_order_relaxed);
            return PopSource::Spill;
        }
    }
    return PopSource::None;
}

void
InjectQueue::drainBackInto(InjectRing &ring)
{
    std::lock_guard<std::mutex> lock(spillMutex_);
    unsigned moved = 0;
    while (moved < kDrainBackBatch && !spill_.empty()) {
        // tryPush leaves the task intact when the ring refilled
        // (racing producers), so nothing is lost — stop and leave
        // the remainder spilled.
        if (!ring.tryPush(std::move(spill_.front())))
            break;
        spill_.pop_front();
        spillSize_.fetch_sub(1, std::memory_order_relaxed);
        ++moved;
    }
    if (moved != 0)
        drainBacks_.fetch_add(moved, std::memory_order_relaxed);
}

unsigned
producerShardHint()
{
    static std::atomic<unsigned> next{0};
    thread_local const unsigned hint =
        next.fetch_add(1, std::memory_order_relaxed);
    return hint;
}

} // namespace hermes::runtime
