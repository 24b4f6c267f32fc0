/**
 * @file
 * The runtime's locked instructions, all routed through one header.
 *
 * Every atomic read-modify-write, compare-and-swap, seq_cst store and
 * mutex acquisition in src/runtime/ goes through the wrappers below,
 * and so does the tempo controller's mutex (src/core/), which the
 * runtime takes in its push, pop, steal and out-of-work hooks.
 * On x86-64 each of them is a locked instruction: `lock xadd`,
 * `lock cmpxchg`, `xchg` (a seq_cst store), and the lock and unlock
 * inside `pthread_mutex_*`. Relaxed, acquire and release loads and
 * stores are plain `mov`s and stay direct `std::atomic` calls.
 *
 * In a normal build each wrapper is exactly the `std::atomic` or
 * `std::mutex` call it names, with the caller's memory order. A build
 * with `HERMES_COUNT_SYNC` defined also tallies every call in
 * process-wide counters (counts()), which `test_sync_count` reads to
 * pin the locked instructions per spawned, stolen and injected task
 * (docs/STEALING.md, "Synchronization cost per task"). The counts
 * do not depend on the machine, so CI can gate them where it cannot
 * gate times. The tally covers those sites only, not what the
 * standard library does inside (`std::shared_ptr` reference counts,
 * a condition variable's relock after a wait).
 */

#ifndef HERMES_RUNTIME_SYNC_HPP
#define HERMES_RUNTIME_SYNC_HPP

#include <atomic>
#include <cstdint>
#include <mutex>
#include <type_traits>

namespace hermes::runtime::sync {

/** Tallied operations, by kind. */
struct Counts
{
    uint64_t rmw = 0;          ///< fetch_add/sub/and and exchange
    uint64_t cas = 0;          ///< compare-exchange attempts
    uint64_t seqCstStores = 0; ///< seq_cst stores (`xchg`)
    uint64_t locks = 0;        ///< mutex acquisitions

    /** Locked instructions on x86-64: one per RMW, CAS and seq_cst
     * store, two per mutex acquisition (lock and unlock). */
    uint64_t
    lockedInstructions() const
    {
        return rmw + cas + seqCstStores + 2 * locks;
    }

    Counts
    operator-(const Counts &o) const
    {
        return {rmw - o.rmw, cas - o.cas, seqCstStores - o.seqCstStores,
                locks - o.locks};
    }
};

namespace detail {

enum Kind { kRmw, kCas, kSeqCstStore, kLock, kKinds };

#ifdef HERMES_COUNT_SYNC
/** Relaxed tallies: a counting build measures how many locked
 * instructions the runtime issues, not how they interleave. */
inline std::atomic<uint64_t> tally[kKinds];

inline void
note(Kind kind)
{
    tally[kind].fetch_add(1, std::memory_order_relaxed);
}
#else
inline void
note(Kind)
{}
#endif

} // namespace detail

#ifdef HERMES_COUNT_SYNC
/** Process-wide tallies so far; subtract two snapshots to count a
 * window in which nothing else runs the runtime. */
inline Counts
counts()
{
    using detail::tally;
    return {tally[detail::kRmw].load(std::memory_order_relaxed),
            tally[detail::kCas].load(std::memory_order_relaxed),
            tally[detail::kSeqCstStore].load(std::memory_order_relaxed),
            tally[detail::kLock].load(std::memory_order_relaxed)};
}
#endif

template <typename T>
inline T
fetchAdd(std::atomic<T> &a, std::type_identity_t<T> v,
         std::memory_order mo = std::memory_order_seq_cst)
{
    detail::note(detail::kRmw);
    return a.fetch_add(v, mo);
}

template <typename T>
inline T
fetchSub(std::atomic<T> &a, std::type_identity_t<T> v,
         std::memory_order mo = std::memory_order_seq_cst)
{
    detail::note(detail::kRmw);
    return a.fetch_sub(v, mo);
}

template <typename T>
inline T
fetchAnd(std::atomic<T> &a, std::type_identity_t<T> v,
         std::memory_order mo = std::memory_order_seq_cst)
{
    detail::note(detail::kRmw);
    return a.fetch_and(v, mo);
}

template <typename T>
inline T
exchange(std::atomic<T> &a, std::type_identity_t<T> v,
         std::memory_order mo = std::memory_order_seq_cst)
{
    detail::note(detail::kRmw);
    return a.exchange(v, mo);
}

template <typename T>
inline bool
casStrong(std::atomic<T> &a, T &expected, std::type_identity_t<T> desired,
          std::memory_order mo = std::memory_order_seq_cst)
{
    detail::note(detail::kCas);
    return a.compare_exchange_strong(expected, desired, mo);
}

template <typename T>
inline bool
casWeak(std::atomic<T> &a, T &expected, std::type_identity_t<T> desired,
        std::memory_order mo = std::memory_order_seq_cst)
{
    detail::note(detail::kCas);
    return a.compare_exchange_weak(expected, desired, mo);
}

template <typename T>
inline bool
casWeak(std::atomic<T> &a, T &expected, std::type_identity_t<T> desired,
        std::memory_order success, std::memory_order failure)
{
    detail::note(detail::kCas);
    return a.compare_exchange_weak(expected, desired, success, failure);
}

/** A store; tallied only when `mo` is seq_cst, the one order that
 * makes it a locked instruction. */
template <typename T>
inline void
store(std::atomic<T> &a, std::type_identity_t<T> v,
      std::memory_order mo = std::memory_order_seq_cst)
{
    if (mo == std::memory_order_seq_cst)
        detail::note(detail::kSeqCstStore);
    a.store(v, mo);
}

/** `std::lock_guard` whose acquisition is tallied. */
class [[nodiscard]] Guard
{
  public:
    explicit Guard(std::mutex &m)
        : lock_((detail::note(detail::kLock), m))
    {}

  private:
    std::lock_guard<std::mutex> lock_;
};

/** Lock `m` for a condition-variable wait, tallying the acquisition
 * (the wait's own relock is the library's and is not tallied). */
inline std::unique_lock<std::mutex>
uniqueLock(std::mutex &m)
{
    detail::note(detail::kLock);
    return std::unique_lock<std::mutex>(m);
}

} // namespace hermes::runtime::sync

#endif // HERMES_RUNTIME_SYNC_HPP
