/**
 * @file
 * Scheduler event counters, aggregated across workers.
 */

#ifndef HERMES_RUNTIME_STATS_HPP
#define HERMES_RUNTIME_STATS_HPP

#include <array>
#include <atomic>
#include <cstdint>
#include <type_traits>

namespace hermes::runtime {

/**
 * Add `delta` to a counter that only one thread (its owning worker)
 * ever writes: a relaxed load plus a store, so no locked instruction.
 * Readers on other threads still see each value whole, and a reader's
 * successive loads never go backwards (coherence of a single atomic).
 * A counter with two writers must keep `fetch_add`: two of these
 * racing would lose an update.
 */
template <typename T>
inline void
ownedAdd(std::atomic<T> &counter, std::type_identity_t<T> delta = 1)
{
    counter.store(counter.load(std::memory_order_relaxed) + delta,
                  std::memory_order_relaxed);
}

/** Snapshot of scheduler activity (sums over all workers). */
struct RuntimeStats
{
    /** Buckets of the tasks-per-steal histogram: 1, 2, 3-4, 5-8,
     * 9-16, 17-32, 33-64, 65+ tasks landed by one steal. */
    static constexpr unsigned kStealSizeBuckets = 8;

    /** Buckets of the inject drain histogram: backlog depth 1, 2,
     * 3-4, ... 65+ observed by a successful inject-path pop.
     * Defined as kStealSizeBuckets because stealSizeBucket() is the
     * indexing function for both histograms — diverging the two
     * would make its clamp overrun the smaller array. */
    static constexpr unsigned kInjectDrainBuckets = kStealSizeBuckets;

    uint64_t pushes = 0;        ///< deque pushes
    uint64_t pops = 0;          ///< successful owner pops
    uint64_t steals = 0;        ///< successful steal operations
    uint64_t failedSteals = 0;  ///< hunts where every victim probe failed
    uint64_t executed = 0;      ///< tasks run (popped/stolen/injected)
    uint64_t inlined = 0;       ///< tasks run inline on full deque
    uint64_t affinitySets = 0;  ///< affinity syscalls issued
    uint64_t injected = 0;      ///< tasks entering via external submit
    uint64_t parks = 0;         ///< times a worker blocked on the lot
    uint64_t wakes = 0;         ///< returns from a parked block
    uint64_t spuriousWakes = 0; ///< wakes whose first hunt found nothing
    uint64_t parkedNanos = 0;   ///< total nanoseconds spent parked
    uint64_t bulkSteals = 0;    ///< steals that landed 2+ tasks at once
    uint64_t stolenTasks = 0;   ///< tasks landed across all steals
    uint64_t localHits = 0;     ///< steals from a same-domain victim
    uint64_t remoteHits = 0;    ///< steals from a cross-domain victim
    uint64_t localWakes = 0;    ///< targeted wakes of a same-domain worker
    uint64_t remoteWakes = 0;   ///< targeted wakes across domains
    uint64_t injectFastPath = 0;  ///< injects landing in a lock-free ring shard
    uint64_t injectSpill = 0;     ///< injects overflowing to the spillover deque
    uint64_t injectShardHits = 0; ///< inject pops served by the consumer's own-domain shard (0 when the queue has a single shard — nothing to measure)
    uint64_t injectDrainBack = 0; ///< spilled tasks moved back into a ring with room (FIFO recovery under sustained overflow)
    uint64_t stealCasRetries = 0; ///< failed steal claims: head-CAS losses to another thief or the owner's last-task pop
    uint64_t popCasLosses = 0;    ///< owner pops that lost the last-task CAS to a thief
    uint64_t droppedHandleErrors = 0; ///< task exceptions swallowed by the submit-handle release drain (the handle was dropped without wait(); see SubmitHandle)

    /** Histogram of tasks landed per successful steal (see
     * kStealSizeBuckets for the bucket bounds). */
    std::array<uint64_t, kStealSizeBuckets> stealSize{};

    /** Drain histogram of the inject path: the backlog depth (the
     * pending counter, including the claimed task) each successful
     * inject pop observed — a latency proxy for how far external
     * submissions queue up before a worker drains them. */
    std::array<uint64_t, kInjectDrainBuckets> injectDrain{};

    /** Share of injected tasks that landed in a ring shard rather
     * than the spillover deque (0 when nothing was injected). */
    double
    injectFastFraction() const
    {
        const uint64_t routed = injectFastPath + injectSpill;
        return routed != 0
            ? static_cast<double>(injectFastPath)
                / static_cast<double>(routed)
            : 0.0;
    }

    /** Mean tasks landed per successful steal (> 1 once bulk grabs
     * amortize hunt rounds). */
    double
    tasksPerSteal() const
    {
        return steals != 0
            ? static_cast<double>(stolenTasks)
                / static_cast<double>(steals)
            : 0.0;
    }

    /** Bucket index of a steal that landed `tasks` tasks. */
    static unsigned
    stealSizeBucket(uint64_t tasks)
    {
        unsigned bucket = 0;
        // 1→0, 2→1, 3-4→2, 5-8→3, ... log2 above two.
        for (uint64_t bound = 1;
             bucket + 1 < kStealSizeBuckets && tasks > bound;
             bound *= 2)
            ++bucket;
        return bucket;
    }

    RuntimeStats &
    operator+=(const RuntimeStats &o)
    {
        pushes += o.pushes;
        pops += o.pops;
        steals += o.steals;
        failedSteals += o.failedSteals;
        executed += o.executed;
        inlined += o.inlined;
        affinitySets += o.affinitySets;
        injected += o.injected;
        parks += o.parks;
        wakes += o.wakes;
        spuriousWakes += o.spuriousWakes;
        parkedNanos += o.parkedNanos;
        bulkSteals += o.bulkSteals;
        stolenTasks += o.stolenTasks;
        localHits += o.localHits;
        remoteHits += o.remoteHits;
        localWakes += o.localWakes;
        remoteWakes += o.remoteWakes;
        injectFastPath += o.injectFastPath;
        injectSpill += o.injectSpill;
        injectShardHits += o.injectShardHits;
        injectDrainBack += o.injectDrainBack;
        stealCasRetries += o.stealCasRetries;
        popCasLosses += o.popCasLosses;
        droppedHandleErrors += o.droppedHandleErrors;
        for (unsigned b = 0; b < kStealSizeBuckets; ++b)
            stealSize[b] += o.stealSize[b];
        for (unsigned b = 0; b < kInjectDrainBuckets; ++b)
            injectDrain[b] += o.injectDrain[b];
        return *this;
    }
};

} // namespace hermes::runtime

#endif // HERMES_RUNTIME_STATS_HPP
