#include "runtime/deque.hpp"

#include <bit>
#include <cstring>

#include "runtime/sync.hpp"
#include "util/assert.hpp"

namespace hermes::runtime {

// The slots sit on zero pages, so every word reads as zero until a
// push writes it. Keep it that way: a push writes only the payload
// words its closure uses, but a thief copies the whole slot before
// its CAS, and it must never read a word nothing wrote. The kernel
// provides those zeros on first touch, so the constructor writes
// nothing and untouched capacity costs no resident memory.
WsDeque::WsDeque(size_t capacity_pow2, DequePolicy policy)
    : mask_(std::bit_ceil(std::max<size_t>(2, capacity_pow2)) - 1),
      slots_((mask_ + 1) * Task::kSlotWords), impl_(policy.impl)
{}

WsDeque::~WsDeque()
{
    // Adopt-and-drop whatever is still queued so boxed closures are
    // released. Destruction is single-threaded by contract.
    const int64_t t = tail_.load(std::memory_order_relaxed);
    for (int64_t i = head_.load(std::memory_order_relaxed); i < t;
         ++i)
        Task::adopt(loadSlot(i));
}

uint64_t *
WsDeque::slotAt(int64_t index) const
{
    return slots_.data()
        + (static_cast<size_t>(index) & mask_) * Task::kSlotWords;
}

Task::Repr
WsDeque::loadSlot(int64_t index) const
{
    uint64_t words[Task::kSlotWords];
    uint64_t *slot = slotAt(index);
    for (size_t w = 0; w < Task::kSlotWords; ++w)
        words[w] = std::atomic_ref<uint64_t>(slot[w])
                       .load(std::memory_order_relaxed);
    Task::Repr repr;
    std::memcpy(&repr, words, sizeof(repr));
    return repr;
}

bool
WsDeque::push(TaskFn &&fn, TaskGroup *group, bool owner_counted,
              size_t &size_after)
{
    const int64_t tail = tail_.load(std::memory_order_relaxed);
    // One slot of the ring is sacrificed: under THE an in-flight
    // steal claims the head index before moving the task out, so the
    // owner must never wrap onto the slot one lap behind the head;
    // under Chase-Lev the same margin means any wrap-around
    // overwrite implies the head already passed the slot, so a thief
    // whose pre-CAS copy the overwrite tore is guaranteed to fail
    // its claiming CAS and discard the bytes. (The acquire head read
    // can only lag the true head, which makes the full check
    // conservative.)
    const int64_t head = head_.load(std::memory_order_acquire);
    if (tail - head >= static_cast<int64_t>(capacity()) - 1)
        return false; // full: caller executes inline
    // Straight from the closure into the slot: its payload words,
    // then the ops, group and owner-counted words.
    Task::writeSlot(slotAt(tail), fn, group, owner_counted);
    // Publishing tail+1 makes the slot visible to thieves. seq_cst
    // rather than release: this store is the producer half of the
    // parking Dekker handshake, and the head read below must be
    // ordered after it so a steal that a parking thief observed
    // (making the deque look empty to it) is also observed here —
    // reporting size_after == 1 and triggering the wake
    // (docs/ARCHITECTURE.md).
    sync::store(tail_, tail + 1, std::memory_order_seq_cst);
    size_after = static_cast<size_t>(
        tail + 1 - head_.load(std::memory_order_seq_cst));
    return true;
}

bool
WsDeque::pop(Task &out, size_t &size_after)
{
    return impl_ == DequeImpl::ChaseLev ? popChaseLev(out, size_after)
                                        : popThe(out, size_after);
}

bool
WsDeque::popChaseLev(Task &out, size_t &size_after)
{
    // Empty fast path: the owner's own tail is exact, and a stale
    // (lagging) head can only overestimate the size — a truly empty
    // deque is never misread as non-empty the other way. This spares
    // the idle loop's per-iteration pop the retract/restore pair of
    // seq_cst stores below.
    const int64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_.load(std::memory_order_relaxed) <= 0)
        return false;

    // Retract the tail, then look at the head. seq_cst on both: the
    // retraction and a thief's head/tail reads resolve through the
    // single total order S — if the thief's tail read is ordered
    // after the retraction it sees the smaller tail and backs off
    // the retracted slot; if before, its claiming CAS and our
    // own-or-CAS take below race on head_ and exactly one wins
    // (docs/STEALING.md, "The deque").
    const int64_t t = tail - 1;
    sync::store(tail_, t, std::memory_order_seq_cst);
    int64_t h = head_.load(std::memory_order_seq_cst);
    if (h > t) {
        // Thieves drained everything between the fast path and the
        // retraction.
        tail_.store(t + 1, std::memory_order_relaxed);
        return false;
    }
    if (h == t) {
        // Last task: one CAS on head_ against the thieves — the
        // proven single-arbiter of the tug-of-war. Win or lose,
        // head ends at t+1, so restore tail to t+1 (canonical
        // empty).
        const bool won = sync::casStrong(head_, h, h + 1,
                                         std::memory_order_seq_cst);
        tail_.store(t + 1, std::memory_order_relaxed);
        if (!won) {
            ownedAdd(popCasLosses_); // only the owner pops
            return false;
        }
        Task::readSlot(slotAt(t), out);
        size_after = 0;
        return true;
    }
    // h < t: the slot is ours without arbitration — no thief can
    // claim index t while head_ < t, and head_ only grows.
    Task::readSlot(slotAt(t), out);
    size_after = static_cast<size_t>(t - h);
    return true;
}

bool
WsDeque::popThe(Task &out, size_t &size_after)
{
    // Optimistic THE pop: retract the tail first, then look at the
    // head. If the retracted slot might also be a thief's target
    // (head caught up), restore and retry once under the lock, where
    // thieves cannot move the head concurrently.
    int64_t t = tail_.load() - 1;
    sync::store(tail_, t);
    int64_t h = head_.load();
    if (h > t) {
        sync::store(tail_, t + 1);
        sync::Guard guard(lock_);
        t = tail_.load() - 1;
        sync::store(tail_, t);
        h = head_.load();
        if (h > t) {
            // Plain-empty and lost-the-last-task are not
            // distinguishable here without extra state, so the THE
            // replay leaves popCasLosses_ at 0 (see deque.hpp).
            sync::store(tail_, t + 1);
            return false;
        }
    }
    Task::readSlot(slotAt(t), out);
    size_after = static_cast<size_t>(t - head_.load());
    return true;
}

bool
WsDeque::steal(Task &out, size_t &size_after)
{
    return impl_ == DequeImpl::ChaseLev
        ? stealChaseLev(out, size_after)
        : stealThe(out, size_after);
}

bool
WsDeque::stealChaseLev(Task &out, size_t &size_after)
{
    // Read head, then tail, both seq_cst: the S-order against the
    // owner's seq_cst retraction is what guarantees that if the
    // owner is popping our target slot we either see the retracted
    // tail here (and report empty) or the race reaches the head CAS
    // below and exactly one side wins.
    int64_t h = head_.load(std::memory_order_seq_cst);
    const int64_t t = tail_.load(std::memory_order_seq_cst);
    if (t - h <= 0)
        return false; // empty
    // Copy before claiming: the bytes are adopted only if the CAS
    // wins. If the owner wrapped onto the slot meanwhile (possible
    // only after head passed h), the copy may be torn — and the CAS
    // is then guaranteed to fail, discarding it. The slot words are
    // relaxed atomics, so the racing read is defined.
    const Task::Repr repr = loadSlot(h);
    if (!sync::casStrong(head_, h, h + 1, std::memory_order_seq_cst)) {
        // Another thief, or the owner's last-task pop, won the slot.
        sync::fetchAdd(stealCasRetries_, 1, std::memory_order_relaxed);
        return false;
    }
    out = Task::adopt(repr);
    const int64_t rest = t - (h + 1);
    size_after = rest > 0 ? static_cast<size_t>(rest) : 0;
    return true;
}

bool
WsDeque::stealThe(Task &out, size_t &size_after)
{
    sync::Guard guard(lock_);
    const int64_t h = head_.load();
    if (h >= tail_.load())
        return false; // plain empty: nothing to claim
    // Claim the head slot, then verify the tail has not retracted
    // past it (a racing pop taking the same last task). The claim-
    // then-check order mirrors Algorithm 2.4.
    sync::store(head_, h + 1);
    const int64_t t = tail_.load();
    if (h + 1 > t) {
        sync::store(head_, h);
        sync::fetchAdd(stealCasRetries_, 1, std::memory_order_relaxed);
        return false;
    }
    out = Task::adopt(loadSlot(h));
    size_after = static_cast<size_t>(t - (h + 1));
    return true;
}

size_t
WsDeque::stealHalf(std::vector<Task> &out, size_t &size_after)
{
    return impl_ == DequeImpl::ChaseLev
        ? stealHalfChaseLev(out, size_after)
        : stealHalfThe(out, size_after);
}

size_t
WsDeque::stealHalfChaseLev(std::vector<Task> &out, size_t &size_after)
{
    size_after = 0;
    int64_t h = head_.load(std::memory_order_seq_cst);
    int64_t t = tail_.load(std::memory_order_seq_cst);
    const int64_t n = t - h;
    if (n <= 0)
        return 0;
    // Take ceil(n/2), leaving the owner the more immediate half. A
    // singleton (n == 1) goes through exactly one single-steal step,
    // confining the last-task race to the proven CAS arbitration.
    //
    // Each iteration is the full single-steal protocol — re-read
    // head and tail (seq_cst), copy, claim with one CAS — NOT one
    // bulk CAS of head from h to h+k after copying k slots. The bulk
    // claim would be unsound: the owner's pop frees slots from the
    // tail side without writing head_, so k-1 pops could land inside
    // [h, h+k) while the bulk CAS still succeeds, delivering those
    // tasks twice (this is precisely the race the "work-stealing
    // with multiplicity" literature relaxes exactly-once to permit;
    // we keep exactly-once and pay one CAS per task instead — still
    // no lock, and the hunt, wake chaining, and buffer management
    // are amortized over the batch).
    const int64_t want = n == 1 ? 1 : (n + 1) / 2;
    out.reserve(out.size() + static_cast<size_t>(want));
    size_t got = 0;
    for (int64_t i = 0; i < want; ++i) {
        if (i > 0) {
            h = head_.load(std::memory_order_seq_cst);
            t = tail_.load(std::memory_order_seq_cst);
            if (t - h <= 0)
                break;
        }
        const Task::Repr repr = loadSlot(h);
        if (!sync::casStrong(head_, h, h + 1,
                             std::memory_order_seq_cst)) {
            // Another thief or the owner's last-task pop interleaved;
            // keep what was already claimed.
            sync::fetchAdd(stealCasRetries_, 1,
                           std::memory_order_relaxed);
            break;
        }
        out.push_back(Task::adopt(repr));
        ++got;
        ++h;
    }
    const int64_t remaining = tail_.load(std::memory_order_relaxed)
        - head_.load(std::memory_order_relaxed);
    size_after = remaining > 0 ? static_cast<size_t>(remaining) : 0;
    return got;
}

size_t
WsDeque::stealHalfThe(std::vector<Task> &out, size_t &size_after)
{
    sync::Guard guard(lock_);
    const int64_t h0 = head_.load();
    const int64_t t0 = tail_.load();
    const int64_t n = t0 - h0;
    size_after = 0;
    if (n <= 0)
        return 0;
    // Take ceil(n/2): leave the owner the more immediate half. Each
    // iteration is one full single-steal protocol step — claim, check
    // the tail for a racing pop, move the task out — so at most one
    // claimed slot is ever pending and the ring's sacrificial vacant
    // slot (see push()) keeps the owner from wrapping onto it. Other
    // thieves are excluded by the lock held across the whole grab.
    const int64_t want = (n + 1) / 2;
    // Grow the landing buffer up front: a push_back reallocation
    // inside the loop would stretch the critical section by a heap
    // allocation while the owner and other thieves wait on lock_.
    out.reserve(out.size() + static_cast<size_t>(want));
    size_t got = 0;
    for (int64_t i = 0; i < want; ++i) {
        const int64_t h = head_.load();
        sync::store(head_, h + 1);
        const int64_t t = tail_.load();
        if (h + 1 > t) {
            // The owner popped past us mid-grab; undo the claim and
            // keep what was already moved out.
            sync::store(head_, h);
            sync::fetchAdd(stealCasRetries_, 1,
                           std::memory_order_relaxed);
            break;
        }
        out.push_back(Task::adopt(loadSlot(h)));
        ++got;
    }
    const int64_t remaining = tail_.load() - head_.load();
    size_after = remaining > 0 ? static_cast<size_t>(remaining) : 0;
    return got;
}

size_t
WsDeque::size() const
{
    const int64_t d = tail_.load() - head_.load();
    return d > 0 ? static_cast<size_t>(d) : 0;
}

} // namespace hermes::runtime
