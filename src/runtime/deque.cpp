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
WsDeque::WsDeque(size_t capacity_pow2)
    : mask_(std::bit_ceil(std::max<size_t>(2, capacity_pow2)) - 1),
      slots_((mask_ + 1) * Task::kSlotWords)
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
    // One slot of the ring is sacrificed: the margin means any
    // wrap-around overwrite implies the head already passed the
    // slot, so a thief whose pre-CAS copy the overwrite tore is
    // guaranteed to fail its claiming CAS and discard the bytes.
    // (The acquire head read can only lag the true head, which makes
    // the full check conservative.)
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

int64_t
WsDeque::claimHead(Task::Repr &repr)
{
    // Read head, then tail, both seq_cst: the S-order against the
    // owner's seq_cst retraction is what guarantees that if the
    // owner is popping our target slot we either see the retracted
    // tail here (and report empty) or the race reaches the head CAS
    // below and exactly one side wins.
    int64_t h = head_.load(std::memory_order_seq_cst);
    const int64_t n = tail_.load(std::memory_order_seq_cst) - h;
    if (n <= 0)
        return 0; // empty
    // Copy before claiming: the bytes are adopted only if the CAS
    // wins. If the owner wrapped onto the slot meanwhile (possible
    // only after head passed h), the copy may be torn — and the CAS
    // is then guaranteed to fail, discarding it. The slot words are
    // relaxed atomics, so the racing read is defined.
    repr = loadSlot(h);
    if (!sync::casStrong(head_, h, h + 1, std::memory_order_seq_cst)) {
        // Another thief, or the owner's last-task pop, won the slot.
        sync::fetchAdd(stealCasRetries_, 1, std::memory_order_relaxed);
        return 0;
    }
    return n;
}

bool
WsDeque::steal(Task &out, size_t &size_after)
{
    Task::Repr repr{};
    const int64_t n = claimHead(repr);
    if (n == 0)
        return false;
    out = Task::adopt(repr);
    size_after = static_cast<size_t>(n - 1);
    return true;
}

size_t
WsDeque::stealHalf(std::vector<Task> &out, size_t &size_after)
{
    size_after = 0;
    Task::Repr repr{};
    const int64_t n = claimHead(repr);
    if (n == 0)
        return 0;
    // Take ceil(n/2) of the n the first claim saw, leaving the owner
    // the more immediate half; a singleton is that one claim, so the
    // last-task race stays with the single-steal CAS arbitration.
    //
    // Each further task is one more claimHead() — re-read head and
    // tail, copy, claim with one CAS — NOT one bulk CAS of head from
    // h to h+k after copying k slots. The bulk claim would be
    // unsound: the owner's pop frees slots from the tail side without
    // writing head_, so k-1 pops could land inside [h, h+k) while the
    // bulk CAS still succeeds, delivering those tasks twice (this is
    // precisely the race the "work-stealing with multiplicity"
    // literature relaxes exactly-once to permit; we keep exactly-once
    // and pay one CAS per task instead — still no lock, and the hunt,
    // wake chaining, and buffer management are amortized over the
    // batch). A contended CAS or an emptied deque ends the grab with
    // what was already claimed.
    const auto want = static_cast<size_t>((n + 1) / 2);
    out.reserve(out.size() + want);
    out.push_back(Task::adopt(repr));
    size_t got = 1;
    while (got < want && claimHead(repr) != 0) {
        out.push_back(Task::adopt(repr));
        ++got;
    }
    const int64_t remaining = tail_.load(std::memory_order_relaxed)
        - head_.load(std::memory_order_relaxed);
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
