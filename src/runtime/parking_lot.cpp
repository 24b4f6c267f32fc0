#include "runtime/parking_lot.hpp"

#include "runtime/sync.hpp"

#if defined(__linux__)

#include <climits>

#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

namespace hermes::runtime {

namespace {

static_assert(sizeof(std::atomic<uint32_t>) == sizeof(uint32_t),
              "futex requires a bare 32-bit word");

long
futexOp(std::atomic<uint32_t> &word, int op, uint32_t value)
{
    // std::atomic<uint32_t> is layout-compatible with uint32_t on
    // every Linux ABI (checked above); the kernel only needs the
    // address of the word.
    return syscall(SYS_futex, reinterpret_cast<uint32_t *>(&word), op,
                   value, nullptr, nullptr, 0);
}

} // namespace

ParkingLot::ParkingLot(unsigned num_workers)
    : numWorkers_(num_workers), slots_(new Slot[num_workers])
{}

void
ParkingLot::wait(unsigned w, Epoch expected)
{
    auto &word = slots_[w].epoch;
    if (word.load(std::memory_order_seq_cst) != expected)
        return;
    // The kernel re-reads the word under its internal lock: if a
    // notify bumped the epoch after the load above, the comparison
    // fails (EAGAIN) and we return instead of blocking — this is the
    // step that closes the lost-wakeup window. EINTR and stale bumps
    // surface as spurious returns, which callers tolerate.
    futexOp(word, FUTEX_WAIT_PRIVATE, expected);
}

void
ParkingLot::notifyWorker(unsigned w)
{
    auto &word = slots_[w].epoch;
    sync::fetchAdd(word, 1, std::memory_order_seq_cst);
    futexOp(word, FUTEX_WAKE_PRIVATE, 1);
}

void
ParkingLot::notifyAll()
{
    for (unsigned w = 0; w < numWorkers_; ++w) {
        auto &word = slots_[w].epoch;
        sync::fetchAdd(word, 1, std::memory_order_seq_cst);
        futexOp(word, FUTEX_WAKE_PRIVATE, INT_MAX);
    }
}

} // namespace hermes::runtime

#else // !defined(__linux__)

namespace hermes::runtime {

ParkingLot::ParkingLot(unsigned num_workers)
    : numWorkers_(num_workers), slots_(new Slot[num_workers])
{}

void
ParkingLot::wait(unsigned w, Epoch expected)
{
    auto &word = slots_[w].epoch;
    std::unique_lock<std::mutex> lock = sync::uniqueLock(mutex_);
    // Bumps happen under mutex_, so the predicate re-check and the
    // block are atomic with respect to notifyWorker(): no lost
    // wakeup. One shared condvar serves every worker — a targeted
    // notify broadcasts and non-targets fail their predicate and
    // re-block; correct, merely less precise than the futex path.
    cv_.wait(lock, [&] {
        return word.load(std::memory_order_seq_cst) != expected;
    });
}

void
ParkingLot::notifyWorker(unsigned w)
{
    {
        sync::Guard lock(mutex_);
        sync::fetchAdd(slots_[w].epoch, 1, std::memory_order_seq_cst);
    }
    cv_.notify_all();
}

void
ParkingLot::notifyAll()
{
    {
        sync::Guard lock(mutex_);
        for (unsigned w = 0; w < numWorkers_; ++w)
            sync::fetchAdd(slots_[w].epoch, 1, std::memory_order_seq_cst);
    }
    cv_.notify_all();
}

} // namespace hermes::runtime

#endif
