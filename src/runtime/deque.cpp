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

WsDeque::OwnerResult
WsDeque::reclaim(Task &out)
{
    // Empty fast path: split_ is the owner's own, and a stale
    // (lagging) head can only overestimate the shared size — a truly
    // empty deque is never misread as non-empty the other way. This
    // spares the idle loop's per-iteration pop the retract/restore
    // pair below.
    const int64_t split = split_.load(std::memory_order_relaxed);
    if (split - head_.load(std::memory_order_relaxed) <= 0)
        return {};

    // Chase-Lev's pop with split_ as the tail: retract it, then look
    // at the head. seq_cst on both: the retraction and a thief's
    // head/split reads resolve through the single total order S — if
    // the thief's split read is ordered after the retraction it sees
    // the smaller split and backs off the retracted slot; if before,
    // its claiming CAS and our own-or-CAS take below race on head_
    // and exactly one wins (docs/STEALING.md, "The deque"). The
    // private part is empty here (tail_ == split_); tail_ follows
    // the retraction only once the slot is ours.
    const int64_t t = split - 1;
    sync::store(split_, t, std::memory_order_seq_cst);
    const int64_t h = head_.load(std::memory_order_seq_cst);
    if (h > t) {
        // Thieves drained everything between the fast path and the
        // retraction.
        split_.store(t + 1, std::memory_order_relaxed);
        return {};
    }
    if (h == t) {
        // Last task: one CAS on head_ against the thieves — the
        // proven single arbiter of the tug-of-war. Win or lose, head
        // ends at t+1, so restore split to t+1 (canonical empty).
        int64_t expected = h;
        const bool won = sync::casStrong(head_, expected, h + 1,
                                         std::memory_order_seq_cst);
        split_.store(t + 1, std::memory_order_relaxed);
        if (!won) {
            ownedAdd(popCasLosses_); // only the owner reclaims
            return {};
        }
        Task::readSlot(slotAt(t), out);
        return {true, false, 0};
    }
    // h < t: the slot is ours without arbitration — no thief can
    // claim index t while head_ < t, and head_ only grows.
    tail_.store(t, std::memory_order_relaxed);
    Task::readSlot(slotAt(t), out);
    return {true, false, static_cast<size_t>(t - h)};
}

bool
WsDeque::shareAll()
{
    const int64_t tail = tail_.load(std::memory_order_relaxed);
    const int64_t split = split_.load(std::memory_order_relaxed);
    if (tail == split)
        return false;
    const bool was_empty =
        head_.load(std::memory_order_acquire) >= split;
    // seq_cst for the same two reasons as the share rule's store.
    sync::store(split_, tail, std::memory_order_seq_cst);
    return was_empty;
}

int64_t
WsDeque::claimHead(Task::Repr &repr)
{
    // Read head, then split, both seq_cst: the S-order against the
    // owner's seq_cst retraction is what guarantees that if the
    // owner is reclaiming our target slot we either see the
    // retracted split here (and report empty) or the race reaches
    // the head CAS below and exactly one side wins. Nothing at or
    // above split_ is ever claimed: the private part is the
    // owner's.
    int64_t h = head_.load(std::memory_order_seq_cst);
    const int64_t n = split_.load(std::memory_order_seq_cst) - h;
    if (n <= 0)
        return 0; // empty
    // Copy before claiming: the bytes are adopted only if the CAS
    // wins. If the owner wrapped onto the slot meanwhile (possible
    // only after head passed h), the copy may be torn — and the CAS
    // is then guaranteed to fail, discarding it. The slot words are
    // relaxed atomics, so the racing read is defined.
    repr = loadSlot(h);
    if (!sync::casStrong(head_, h, h + 1, std::memory_order_seq_cst)) {
        // Another thief, or the owner's last-task reclaim, won the
        // slot.
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
    // split, copy, claim with one CAS — NOT one bulk CAS of head from
    // h to h+k after copying k slots. The bulk claim would be
    // unsound: the owner's reclaim frees slots from the split side
    // without writing head_, so k-1 reclaims could land inside
    // [h, h+k) while the bulk CAS still succeeds, delivering those
    // tasks twice (this is precisely the race the "work-stealing
    // with multiplicity" literature relaxes exactly-once to permit;
    // we keep exactly-once and pay one CAS per task instead — still
    // no lock, and the hunt, wake chaining, and buffer management are
    // amortized over the batch). A contended CAS or an emptied shared
    // part ends the grab with what was already claimed.
    const auto want = static_cast<size_t>((n + 1) / 2);
    out.reserve(out.size() + want);
    out.push_back(Task::adopt(repr));
    size_t got = 1;
    while (got < want && claimHead(repr) != 0) {
        out.push_back(Task::adopt(repr));
        ++got;
    }
    const int64_t remaining = split_.load(std::memory_order_relaxed)
        - head_.load(std::memory_order_relaxed);
    size_after = remaining > 0 ? static_cast<size_t>(remaining) : 0;
    return got;
}

size_t
WsDeque::size() const
{
    const int64_t d = tail_.load(std::memory_order_relaxed)
        - head_.load(std::memory_order_relaxed);
    return d > 0 ? static_cast<size_t>(d) : 0;
}

bool
WsDeque::stealable() const
{
    // Head, then split, as a thief reads them: seq_cst, so this is
    // ordered after a parking worker's parked-publish — the read half
    // of the Dekker handshake with the owner's share store.
    const int64_t h = head_.load(std::memory_order_seq_cst);
    return split_.load(std::memory_order_seq_cst) > h;
}

} // namespace hermes::runtime
