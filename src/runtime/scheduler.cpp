#include "runtime/scheduler.hpp"

#include <chrono>

#include "platform/affinity.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace hermes::runtime {

namespace {

thread_local Runtime *tls_runtime = nullptr;
thread_local core::WorkerId tls_worker = core::invalidWorker;

uint64_t
steadyNowNanos()
{
    return util::nowNanos();
}

// WorkerState::parkClock states (low two bits) and payload (62 bits,
// so the payload arithmetic is mod 2^62 — 146 years of nanos).
constexpr uint64_t kClockAwake = 0;
constexpr uint64_t kClockParked = 1;
constexpr uint64_t kClockWaking = 2;
constexpr uint64_t kClockStateMask = 3;

uint64_t
packClock(uint64_t nanos, uint64_t state)
{
    return (nanos << 2) | state;
}

uint64_t
clockNanos(uint64_t word)
{
    return word >> 2;
}

/**
 * Parked nanos of one worker, crediting a block in progress up to now.
 * Successive reads never decrease: a parked word is credited only with
 * a clock read taken after the word was loaded (so it is past the
 * block's start) and before the same word was loaded again (so it is
 * before the waking edge, whose exchange precedes the owner's end
 * clock read). A read that meets the waking edge retries.
 */
uint64_t
parkedNanosOf(const std::atomic<uint64_t> &park_clock)
{
    for (;;) {
        const uint64_t word = park_clock.load(std::memory_order_relaxed);
        if ((word & kClockStateMask) == kClockAwake)
            return clockNanos(word);
        if ((word & kClockStateMask) == kClockParked) {
            const uint64_t now = steadyNowNanos();
            if (park_clock.load(std::memory_order_relaxed) == word)
                return clockNanos(packClock(clockNanos(word) + now, 0));
        }
        // The owner is between its waking exchange and its fold: one
        // clock read away.
        std::this_thread::yield();
    }
}

/** Worker → core placement: one worker per clock domain while domains
 * last (the paper's interference-free placement), then wrap around
 * the cores. */
std::vector<platform::CoreId>
planCores(const RuntimeConfig &config)
{
    HERMES_ASSERT(config.numWorkers >= 1, "need at least one worker");
    const auto &topo = config.profile.topology;
    const unsigned domain_workers =
        std::min(config.numWorkers, topo.numDomains());
    std::vector<platform::CoreId> cores =
        topo.distinctDomainCores(domain_workers);
    for (unsigned w = domain_workers; w < config.numWorkers; ++w)
        cores.push_back(w % topo.numCores());
    return cores;
}

/** The worker → domain map the stealing policy follows: an explicit
 * override (tests/sim) wins; otherwise it is derived from the planned
 * placement, which collapses to one domain on hardware the profile
 * cannot describe. */
platform::DomainMap
resolveDomainMap(const RuntimeConfig &config,
                 const std::vector<platform::CoreId> &planned_cores)
{
    if (!config.stealPolicy.domainMap.has_value()) {
        return platform::DomainMap::fromTopology(config.profile.topology,
                                                 planned_cores);
    }
    const platform::DomainMap &map = *config.stealPolicy.domainMap;
    if (map.numWorkers() != config.numWorkers) {
        util::fatal("StealPolicy::domainMap covers "
                    + std::to_string(map.numWorkers())
                    + " workers but the runtime has "
                    + std::to_string(config.numWorkers));
    }
    return map;
}

} // namespace

Runtime *
Runtime::current()
{
    return tls_runtime;
}

core::WorkerId
Runtime::currentWorker()
{
    return tls_worker;
}

Runtime::Runtime(RuntimeConfig config)
    : config_(std::move(config)), plannedCores_(planCores(config_)),
      domainMap_(resolveDomainMap(config_, plannedCores_)),
      injectQueue_(config_.inject, domainMap_.numDomains()),
      lot_(config_.numWorkers)
{
    const auto &topo = config_.profile.topology;
    localPeers_.reserve(config_.numWorkers);
    for (unsigned w = 0; w < config_.numWorkers; ++w)
        localPeers_.push_back(domainMap_.peersOf(w));
    domainWorkers_.reserve(domainMap_.numDomains());
    for (platform::DomainId d = 0; d < domainMap_.numDomains(); ++d) {
        const auto residents = domainMap_.workersIn(d);
        domainWorkers_.emplace_back(residents.begin(),
                                    residents.end());
    }

    backend_ = std::make_unique<dvfs::SimulatedDvfs>(
        topo.numDomains(), config_.profile.ladder,
        config_.profile.dvfsLatencySec);

    if (config_.enableTempo) {
        // Resolve the usable ladder: default to the paper's pair for
        // this profile, and insist every rung exists in hardware.
        if (!config_.tempo.ladder.has_value()) {
            config_.tempo.ladder =
                platform::defaultTempoLadder(config_.profile);
        }
        for (auto f : config_.tempo.ladder->rungs()) {
            if (!config_.profile.ladder.contains(f)) {
                util::fatal("tempo ladder rung " + std::to_string(f)
                            + " MHz is not supported by profile "
                            + config_.profile.name + " ("
                            + config_.profile.ladder.describe()
                            + ")");
            }
        }
        tempo_ = std::make_unique<core::TempoController>(
            config_.tempo, *backend_, config_.numWorkers,
            [this](core::WorkerId w) {
                return config_.profile.topology.domainOf(coreOf(w));
            });
        tempo_->reset(util::nowSeconds());
    }

    workers_.reserve(config_.numWorkers);
    for (unsigned w = 0; w < config_.numWorkers; ++w) {
        workers_.push_back(std::make_unique<WorkerState>(
            config_.dequeCapacity, config_.deque));
    }
    // Threads start only after every member is in place.
    for (unsigned w = 0; w < config_.numWorkers; ++w)
        workers_[w]->thread = std::thread([this, w] { workerMain(w); });
}

Runtime::~Runtime()
{
    stop_.store(true, std::memory_order_seq_cst);
    // Unconditional broadcast: a worker between its parked-publish
    // and its block either sees stop_ in the re-check or fails the
    // epoch comparison inside wait() — no join can hang.
    lot_.notifyAll();
    for (auto &ws : workers_) {
        if (ws->thread.joinable())
            ws->thread.join();
    }
}

platform::CoreId
Runtime::coreOf(core::WorkerId w) const
{
    HERMES_ASSERT(w < plannedCores_.size(), "worker out of range");
    return plannedCores_[w];
}

double
Runtime::coarseNow(WorkerState &ws)
{
    if (ws.clockEvents == 0)
        ws.cachedNowSec = util::nowSeconds();
    if (++ws.clockEvents >= kClockRefreshEvents)
        ws.clockEvents = 0;
    return ws.cachedNowSec;
}

double
Runtime::freshNow(WorkerState &ws)
{
    ws.cachedNowSec = util::nowSeconds();
    ws.clockEvents = 1; // cache just refreshed; reuse it for a while
    return ws.cachedNowSec;
}

void
Runtime::run(TaskFn fn)
{
    TaskGroup group(*this);
    group.run(std::move(fn));
    group.wait();
}

SubmitHandle
Runtime::submit(TaskFn fn)
{
    // The deleter drains the group before destroying it (TaskGroup
    // asserts nothing is pending at destruction). Putting the drain
    // there rather than in ~SubmitHandle makes every release path —
    // destruction, reassignment, reset, racing drops of the last
    // two copies on different threads — funnel through the
    // reference count's single atomic release. Task exceptions
    // surface only through an explicit wait(); the release path
    // must not throw, so a still-recorded error is swallowed here —
    // but counted, never lost silently: droppedHandleErrors_ lets a
    // harness that dropped handles without waiting still assert
    // nothing failed. (A Runtime outlives its handles by contract,
    // so capturing `this` is safe.)
    std::shared_ptr<TaskGroup> group(new TaskGroup(*this),
                                     [this](TaskGroup *g) {
                                         try {
                                             g->wait();
                                         } catch (...) {
                                             droppedHandleErrors_
                                                 .fetch_add(
                                                     1,
                                                     std::memory_order_relaxed);
                                         }
                                         delete g;
                                     });
    group->run(std::move(fn));
    return SubmitHandle(std::move(group));
}

void
SubmitHandle::wait()
{
    if (group_)
        group_->wait();
}

void
Runtime::spawn(TaskGroup &group, TaskFn fn)
{
    group.beginTask();
    Task task(std::move(fn), &group);

    Runtime *rt = tls_runtime;
    const core::WorkerId id = tls_worker;
    if (rt == this && id != core::invalidWorker) {
        auto &ws = *workers_[id];
        size_t size_after = 0;
        // push() leaves `task` intact on failure (full ring), which
        // the inline-execution fallback below relies on.
        if (ws.deque.push(std::move(task), size_after)) {
            ownedAdd(ws.pushes);
            // Wake only on the empty→non-empty transition: a deque
            // that was already non-empty is visible to any thief's
            // pre-park re-check, so deeper pushes cannot strand a
            // parked worker and stay free of shared wake state. The
            // producer's own domain is the preferred wake target —
            // the new work sits in its deque.
            if (size_after == 1)
                notifyIfParked(domainMap_.domainOf(id));
            // Coarse timestamp: spawns are the hottest event the
            // controller sees, and it only needs ms-scale time.
            if (tempo_)
                tempo_->onPush(id, size_after, coarseNow(ws));
        } else {
            // Ring full: execute inline. With child-stealing this is
            // just a depth-first serialization of the subtree.
            ownedAdd(ws.inlined);
            execute(id, task);
        }
        return;
    }
    inject(std::move(task));
}

bool
Runtime::notifyIfParked(platform::DomainId preferred)
{
    // Fast path while the pool is busy: one read of an uncontended
    // counter, no shared writes.
    if (parkedCount_.load(std::memory_order_seq_cst) == 0)
        return false;

    // Wake selection (docs/STEALING.md): prefer a parked worker in
    // the producer's domain, else any parked worker from a rotating
    // cursor so bursts spread across distinct sleepers. The scan
    // reads the per-worker parked flags seq_cst; a thief in its
    // publish→re-check→block window has its flag set (the flag-true
    // interval contains the parkedCount>0 interval), so a thief that
    // missed this producer's work is always visible here and gets
    // its epoch bumped. Targeting a worker that unparked since the
    // scan merely wastes one bump (its next wait returns once,
    // spuriously). If the scan finds nobody, every counted worker
    // already unparked and will re-hunt past the published work —
    // skipping the wake is safe.
    const unsigned n = config_.numWorkers;
    const unsigned cursor =
        wakeCursor_.fetch_add(1, std::memory_order_relaxed);
    if (preferred != platform::invalidDomain
        && preferred < domainWorkers_.size()) {
        const auto &residents = domainWorkers_[preferred];
        if (!residents.empty()) {
            const size_t start = cursor % residents.size();
            for (size_t k = 0; k < residents.size(); ++k) {
                const auto w =
                    residents[(start + k) % residents.size()];
                if (workers_[w]->parked.load(
                        std::memory_order_seq_cst)) {
                    lot_.notifyWorker(w);
                    localWakes_.fetch_add(
                        1, std::memory_order_relaxed);
                    return true;
                }
            }
        }
    }
    for (unsigned k = 0; k < n; ++k) {
        const auto w =
            static_cast<core::WorkerId>((cursor + k) % n);
        if (workers_[w]->parked.load(std::memory_order_seq_cst)) {
            lot_.notifyWorker(w);
            auto &counter = preferred != platform::invalidDomain
                    && domainMap_.domainOf(w) == preferred
                ? localWakes_
                : remoteWakes_;
            counter.fetch_add(1, std::memory_order_relaxed);
            return true;
        }
    }
    return false;
}

void
Runtime::notifyManyIfParked(uint64_t count,
                            platform::DomainId preferred)
{
    for (uint64_t i = 0; i < count; ++i) {
        if (!notifyIfParked(preferred))
            return;
    }
}

void
Runtime::inject(Task task)
{
    const unsigned hint = producerShardHint();
    // Publish before enqueue: the seq_cst increment is the
    // work-publish half of the Dekker handshake with parkUntilWork()'s
    // re-check, and ordering it *ahead* of the ring store means the
    // pending counter always bounds the queue contents from above — a
    // consumer that saw the increment but scans before the enqueue
    // lands merely retries (it cannot park: the counter is still
    // non-zero), and the per-pop decrement can never underflow.
    injectPending_.fetch_add(1, std::memory_order_seq_cst);
    InjectQueue::PushPath path;
    try {
        path = injectQueue_.push(std::move(task), hint);
    } catch (...) {
        // The spill deque can throw (allocation); retract the publish
        // or every future park re-check would see a phantom pending
        // task and the pool could never park again.
        injectPending_.fetch_sub(1, std::memory_order_seq_cst);
        throw;
    }
    (path == InjectQueue::PushPath::Ring ? injectFastPath_
                                         : injectSpill_)
        .fetch_add(1, std::memory_order_relaxed);
    // Prefer a sleeper in the domain whose shard received the task:
    // its residents drain that shard first, so the wake lands next to
    // the work (shard s hosts domain s).
    platform::DomainId preferred = platform::invalidDomain;
    if (injectQueue_.numShards() > 1)
        preferred = hint % injectQueue_.numShards();
    injectedCount_.fetch_add(1, std::memory_order_relaxed);
    notifyIfParked(preferred);
}

bool
Runtime::popInjected(core::WorkerId id, Task &out)
{
    // Counter-gated fast path: the queue is empty for almost the
    // whole run (root tasks only), and every hunting worker polls
    // here each scheduler iteration — without the guard they would
    // all walk the shards for nothing. A stale zero is harmless for
    // an awake worker (it retries next iteration); a worker about to
    // park re-reads the counter seq_cst in workPossiblyAvailable(),
    // and the injector notifies the lot, so parking cannot sleep
    // through an inject.
    if (injectPending_.load(std::memory_order_relaxed) == 0)
        return false;
    const auto src = injectQueue_.tryPop(out, domainMap_.domainOf(id));
    if (src == InjectQueue::PopSource::None)
        return false;
    // A single-shard queue (a one-domain map) satisfies every pop from
    // the "preferred" shard by construction; counting those would make
    // the locality metric read 100% exactly when there is no locality
    // to measure, so the counter moves only with real sharding.
    if (src == InjectQueue::PopSource::PreferredShard
        && injectQueue_.numShards() > 1)
        injectShardHits_.fetch_add(1, std::memory_order_relaxed);
    const size_t depth_at_claim =
        injectPending_.fetch_sub(1, std::memory_order_seq_cst);
    injectDrain_[RuntimeStats::stealSizeBucket(depth_at_claim)]
        .fetch_add(1, std::memory_order_relaxed);
    // Wake chaining: a single inject wakes one worker; if more root
    // tasks are queued behind the one just claimed, pass the baton so
    // a burst of injects unparks a matching number of workers. The
    // baton carries no domain even on the sharded queue: the pending
    // tail may sit in any shard or the spillover, so no single
    // domain describes it — the rotating-cursor scan spreads the
    // chain instead.
    if (depth_at_claim > 1)
        notifyIfParked(platform::invalidDomain);
    return true;
}

void
Runtime::execute(core::WorkerId id, Task &task)
{
    auto &ws = *workers_[id];
    ownedAdd(ws.activeDepth);

    // Dynamic scheduling: bind the worker to its core for the span of
    // this WORK invocation so a preemption cannot migrate it away
    // from the core whose frequency was set for it (Section 3.4).
    const bool dynamic =
        config_.scheduling == SchedulingMode::Dynamic;
    if (dynamic) {
        platform::pinSelfToCore(plannedCores_[id]);
        ownedAdd(ws.affinitySets);
    }

    const bool throttled =
        config_.throttle == ThrottleMode::PostTaskSpin && tempo_;
    const double start = throttled ? util::nowSeconds() : 0.0;

    try {
        task.body();
    } catch (...) {
        if (task.group)
            task.group->recordException(std::current_exception());
    }

    if (throttled) {
        // Stretch the task to the duration it would have had at the
        // worker's current tempo: total = measured * f_max / f.
        const double f = tempo_->frequencyOf(id);
        const double fmax = tempo_->ladder().fastest();
        if (f < fmax) {
            const double end = util::nowSeconds();
            const double target = start + (end - start) * (fmax / f);
            while (util::nowSeconds() < target) {
                // busy-wait: this burns cycles exactly like running
                // the task longer would
            }
        }
    }

    if (dynamic) {
        platform::unpinSelf(config_.profile.topology.numCores());
        ownedAdd(ws.affinitySets);
    }

    ownedAdd(ws.executed);
    if (task.group)
        task.group->finish();
    ownedAdd(ws.activeDepth, -1);
    // Task bodies are the only unbounded-duration stretches between
    // deque events; invalidating the coarse clock here bounds its
    // staleness to one task body (or 32 back-to-back spawns) instead
    // of 32 arbitrary-length tasks. The next tempo hook re-reads the
    // wall clock.
    ws.clockEvents = 0;
}

bool
Runtime::findAndExecute(core::WorkerId id)
{
    auto &ws = *workers_[id];
    // Progress heartbeat for the stall watchdog: one relaxed bump
    // per scheduler iteration, same cost class as the counters
    // below. Covers workerMain and the help-while-waiting loop in
    // TaskGroup::wait — everywhere a live worker spins.
    ownedAdd(ws.heartbeat);
    Task task;
    size_t size_after = 0;

    // Algorithm 2.1: POP own deque first (most immediate task).
    if (ws.deque.pop(task, size_after)) {
        ownedAdd(ws.pops);
        if (tempo_)
            tempo_->onPopSuccess(id, size_after, coarseNow(ws));
        execute(id, task);
        return true;
    }

    // Deque empty: the immediacy relay fires before victim hunting
    // (Figure 5 lines 6-14). Idempotent across retries. Fresh
    // timestamp: out-of-work is off the hot path and resyncs the
    // coarse clock.
    if (tempo_)
        tempo_->onOutOfWork(id, freshNow(ws));

    // Externally submitted work (the program's root tasks).
    if (popInjected(id, task)) {
        execute(id, task);
        return true;
    }

    // SELECT victims and STEAL from the head of their deques. One
    // hunt probes same-domain victims first (localityRounds passes),
    // then every other worker once from a random position
    // (steal_policy.hpp) — a hunt that probed a single victim per
    // scheduler iteration could miss the only busy one and drop into
    // backoff, which is how the pool used to serialize on short
    // workloads.
    if (config_.numWorkers > 1) {
        // Per-thief stream: splitmix64 decorrelates adjacent worker
        // ids, so thieves do not chase the same victims in lockstep.
        thread_local util::Rng rng(util::mix64(config_.seed, id));
        appendVictimOrder(rng, id, config_.numWorkers,
                          localPeers_[id],
                          config_.stealPolicy.localityRounds,
                          ws.huntOrder);
        for (const auto victim : ws.huntOrder) {
            if (tryStealFrom(id, victim))
                return true;
        }
        // One failed hunt, however many victims it probed.
        ownedAdd(ws.failedSteals);
    }
    return false;
}

bool
Runtime::tryStealFrom(core::WorkerId id, core::WorkerId victim)
{
    auto &ws = *workers_[id];
    auto &buf = ws.stealBuf;
    buf.clear();
    size_t size_after = 0;
    const size_t got = workers_[victim]->deque.stealHalf(buf, size_after);
    if (got == 0)
        return false;

    ownedAdd(ws.steals);
    ownedAdd(ws.stolenTasks, got);
    if (got > 1)
        ownedAdd(ws.bulkSteals);
    ownedAdd(ws.stealSize[RuntimeStats::stealSizeBucket(got)]);
    ownedAdd(domainMap_.sameDomain(id, victim) ? ws.localHits
                                               : ws.remoteHits);

    // Wake chaining: the victim still has surplus tasks, so another
    // parked thief has something to take — preferably one near the
    // victim's deque.
    if (size_after > 0)
        notifyIfParked(domainMap_.domainOf(victim));

    const double now = freshNow(ws);
    if (tempo_) {
        // Algorithm 3.5's victim-side workload check, then line 20's
        // thief procrastination + list splice. A bulk grab is still
        // one steal event; the surplus re-enters through onPush.
        tempo_->onVictimStolen(victim, size_after, now);
        tempo_->onStealSuccess(id, victim, now);
    }

    // Everything below that executes a task can re-enter this
    // function on the same worker (a task body reaching
    // TaskGroup::wait hunts again), and a nested hunt clears and
    // refills ws.stealBuf — so every task leaves `buf` for a local
    // *before* any execute() runs. The surplus pushes themselves
    // execute nothing and are safe while `buf` is live.
    std::vector<Task> overflow;
    if (got > 1) {
        // Stock our own deque with the surplus, preserving the
        // victim's head order: our pops take the most immediate of
        // the batch, thieves take the least — the work-first
        // ordering survives the transfer. Then chain wakes for the
        // surplus: a steal landing k tasks can employ up to k-1 more
        // workers (docs/STEALING.md).
        for (size_t i = 1; i < got; ++i) {
            size_t my_size = 0;
            if (ws.deque.push(std::move(buf[i]), my_size)) {
                ownedAdd(ws.pushes);
                // The whole surplus transfer is one instant to the
                // controller — the steal's fresh timestamp covers it.
                if (tempo_)
                    tempo_->onPush(id, my_size, now);
            } else {
                // Ring full (cannot happen while every deque shares
                // config_.dequeCapacity — a ceil-half grab always
                // fits an empty ring of the same size — but stays
                // correct if capacities ever diverge): queue for
                // inline execution after `buf` is retired.
                overflow.push_back(std::move(buf[i]));
            }
        }
        notifyManyIfParked(got - 1, domainMap_.domainOf(id));
    }

    Task first = std::move(buf[0]);
    for (auto &task : overflow) {
        ownedAdd(ws.inlined);
        execute(id, task);
    }
    execute(id, first);
    return true;
}

void
Runtime::workerMain(core::WorkerId id)
{
    tls_runtime = this;
    tls_worker = id;

    if (config_.scheduling == SchedulingMode::Static) {
        platform::pinSelfToCore(plannedCores_[id]);
        ownedAdd(workers_[id]->affinitySets);
    }

    // Idle protocol: yield through a handful of empty hunts, then
    // park — publish on the lot, re-check every work source, and
    // block in the kernel until a producer notifies. The short yield
    // phase absorbs the common a-steal-is-about-to-succeed races
    // without a syscall; it is deliberately small because on an
    // oversubscribed core CFS penalizes repeated sched_yield by
    // requeueing the caller behind every runnable thread, while a
    // parked thief is woken with enough vruntime credit to preempt
    // the producer and steal. No frequency change on yield or park
    // (Section 3.4): going idle never touches the DVFS backend — the
    // energy saving of parking comes from the core's C-state, which
    // packagePower() models via parkedPower.
    unsigned empty_hunts = 0;
    bool just_woke = false;

    while (!stop_.load(std::memory_order_acquire)) {
        // Chaos hook: a pending stallWorker() nap fires here, at the
        // loop top — outside any task body, between two heartbeat
        // bumps, exactly like the thread losing the CPU. The relaxed
        // pre-check keeps the healthy path to one uncontended load.
        auto &ws = *workers_[id];
        if (ws.stallNanosRequested.load(std::memory_order_relaxed)
            != 0) {
            const uint64_t nap = ws.stallNanosRequested.exchange(
                0, std::memory_order_acq_rel);
            if (nap != 0)
                std::this_thread::sleep_for(
                    std::chrono::nanoseconds(nap));
        }
        if (findAndExecute(id)) {
            empty_hunts = 0;
            just_woke = false;
            continue;
        }
        if (just_woke) {
            // Woken (or returned spuriously) yet the first hunt
            // found nothing: either a sibling raced us to the task
            // or the wakeup was spurious.
            ownedAdd(workers_[id]->spuriousWakes);
            just_woke = false;
        }
        ++empty_hunts;
        if (!config_.enableParking
                || empty_hunts < config_.parkThreshold) {
            std::this_thread::yield();
            continue;
        }
        empty_hunts = 0;
        just_woke = parkUntilWork(id);
    }

    tls_runtime = nullptr;
    tls_worker = core::invalidWorker;
}

bool
Runtime::workPossiblyAvailable() const
{
    if (stop_.load(std::memory_order_seq_cst))
        return true;
    if (injectPending_.load(std::memory_order_seq_cst) != 0)
        return true;
    for (const auto &ws : workers_) {
        // Deque indices are seq_cst, so this load is ordered after
        // the parked-publish in parkUntilWork() — the read half of
        // the Dekker handshake with a producer's tail store.
        if (!ws->deque.empty())
            return true;
    }
    return false;
}

bool
Runtime::parkUntilWork(core::WorkerId id)
{
    auto &ws = *workers_[id];
    // Heartbeat around the park: the parked flag excuses the worker
    // from the watchdog while blocked; this bump marks the
    // transition so the flag and the counter never both read stale.
    ownedAdd(ws.heartbeat);

    // Publish-then-recheck (docs/ARCHITECTURE.md walks through why
    // this has no lost-wakeup window):
    //   1. snapshot the wake epoch,
    //   2. publish this worker as parked (seq_cst RMW),
    //   3. re-scan every work source (seq_cst loads),
    //   4. block only if the scan found nothing, with the kernel
    //      re-validating the epoch against a racing notify.
    const ParkingLot::Epoch epoch = lot_.prepare(id);
    ws.parked.store(true, std::memory_order_seq_cst);
    parkedCount_.fetch_add(1, std::memory_order_seq_cst);

    bool blocked = false;
    if (!workPossiblyAvailable()) {
        // The tempo controller sees only real blocks, keeping its
        // parkEvents aligned with the `parks` stat (aborted parks
        // count in neither) and the controller mutex off the
        // aborted-park path.
        if (tempo_)
            tempo_->onPark(id, freshNow(ws));
        ownedAdd(ws.parks);
        // Parked-time clock: while blocked, the word holds the total
        // minus the block's start, so a reader credits the block up
        // to its own clock (parkedNanosOf()). On waking, the exchange
        // to the waking state is visible before the end clock read,
        // so no reader can have credited the block past that end;
        // the fold back to the awake state is one store.
        const uint64_t total = clockNanos(ws.parkClock.load(
            std::memory_order_relaxed));
        ws.parkClock.store(
            packClock(total - steadyNowNanos(), kClockParked),
            std::memory_order_relaxed);
        lot_.wait(id, epoch);
        const uint64_t parked_word =
            ws.parkClock.load(std::memory_order_relaxed);
        ws.parkClock.exchange(
            (parked_word & ~kClockStateMask) | kClockWaking,
            std::memory_order_seq_cst);
        ws.parkClock.store(packClock(clockNanos(parked_word)
                                         + steadyNowNanos(),
                                     kClockAwake),
                           std::memory_order_relaxed);
        ownedAdd(ws.wakes);
        if (tempo_)
            tempo_->onWake(id, freshNow(ws));
        blocked = true;
    }

    parkedCount_.fetch_sub(1, std::memory_order_seq_cst);
    ws.parked.store(false, std::memory_order_seq_cst);
    return blocked;
}

RuntimeStats
Runtime::workerStats(core::WorkerId w) const
{
    HERMES_ASSERT(w < workers_.size(), "worker out of range");
    const auto &ws = *workers_[w];
    RuntimeStats s;
    s.pushes = ws.pushes.load(std::memory_order_relaxed);
    s.pops = ws.pops.load(std::memory_order_relaxed);
    s.steals = ws.steals.load(std::memory_order_relaxed);
    s.failedSteals = ws.failedSteals.load(std::memory_order_relaxed);
    s.executed = ws.executed.load(std::memory_order_relaxed);
    s.inlined = ws.inlined.load(std::memory_order_relaxed);
    s.affinitySets = ws.affinitySets.load(std::memory_order_relaxed);
    s.parks = ws.parks.load(std::memory_order_relaxed);
    s.wakes = ws.wakes.load(std::memory_order_relaxed);
    s.spuriousWakes =
        ws.spuriousWakes.load(std::memory_order_relaxed);
    s.bulkSteals = ws.bulkSteals.load(std::memory_order_relaxed);
    s.stolenTasks = ws.stolenTasks.load(std::memory_order_relaxed);
    // Deque contention counters live on the deque itself. They are
    // charged to the deque's *owner*: stealCasRetries counts thieves
    // losing claims on this worker's deque, which measures how
    // contended this victim is.
    s.stealCasRetries = ws.deque.stealCasRetries();
    s.popCasLosses = ws.deque.popCasLosses();
    s.localHits = ws.localHits.load(std::memory_order_relaxed);
    s.remoteHits = ws.remoteHits.load(std::memory_order_relaxed);
    for (unsigned b = 0; b < RuntimeStats::kStealSizeBuckets; ++b)
        s.stealSize[b] =
            ws.stealSize[b].load(std::memory_order_relaxed);
    // Credits an in-progress block up to now: without this, a worker
    // parked across a measurement window would attribute the whole
    // block to the moment it wakes, skewing windowed parked-time
    // fractions in both directions.
    s.parkedNanos = parkedNanosOf(ws.parkClock);
    return s;
}

InjectTelemetry
Runtime::injectTelemetry() const
{
    InjectTelemetry t;
    // Relaxed loads: admission control consumes a racy instantaneous
    // reading by design (a decision lags the queue by one submission
    // anyway); the parking-correctness reads of injectPending_ stay
    // seq_cst where they matter (workPossiblyAvailable()).
    t.pending = injectPending_.load(std::memory_order_relaxed);
    t.fastPath = injectFastPath_.load(std::memory_order_relaxed);
    t.spill = injectSpill_.load(std::memory_order_relaxed);
    t.drainBack = injectQueue_.drainBacks();
    return t;
}

StallTelemetry
Runtime::stallTelemetry() const
{
    StallTelemetry t;
    t.workers.resize(config_.numWorkers);
    for (unsigned w = 0; w < config_.numWorkers; ++w) {
        // Relaxed: the watchdog compares snapshots sample periods
        // apart; staleness of one iteration cannot fake a stall.
        t.workers[w].heartbeat =
            workers_[w]->heartbeat.load(std::memory_order_relaxed);
        t.workers[w].parked =
            workers_[w]->parked.load(std::memory_order_relaxed);
    }
    return t;
}

unsigned
Runtime::wakeWorkers(unsigned count)
{
    // No fresh work-publish needed: the caller is compensating for
    // already-published backlog (see the header contract), and
    // notifyIfParked() bails in O(1) when nobody is parked.
    unsigned woken = 0;
    for (unsigned i = 0; i < count; ++i) {
        if (!notifyIfParked(platform::invalidDomain))
            break;
        ++woken;
    }
    return woken;
}

void
Runtime::stallWorker(core::WorkerId w, uint64_t nanos)
{
    HERMES_ASSERT(w < workers_.size(), "worker out of range");
    workers_[w]->stallNanosRequested.store(
        nanos, std::memory_order_relaxed);
}

uint64_t
Runtime::droppedHandleErrors() const
{
    return droppedHandleErrors_.load(std::memory_order_relaxed);
}

unsigned
Runtime::parkedWorkers() const
{
    return parkedCount_.load(std::memory_order_seq_cst);
}

bool
Runtime::workerParked(core::WorkerId w) const
{
    HERMES_ASSERT(w < workers_.size(), "worker out of range");
    return workers_[w]->parked.load(std::memory_order_seq_cst);
}

RuntimeStats
Runtime::stats() const
{
    RuntimeStats total;
    for (unsigned w = 0; w < config_.numWorkers; ++w)
        total += workerStats(static_cast<core::WorkerId>(w));
    total.injected = injectedCount_.load(std::memory_order_relaxed);
    // Wake selection is a producer-side event (possibly an external
    // thread), so like `injected` it is tracked runtime-wide.
    total.localWakes = localWakes_.load(std::memory_order_relaxed);
    total.remoteWakes = remoteWakes_.load(std::memory_order_relaxed);
    // The inject-path counters are runtime-wide too: producers are
    // external threads, and a drain can be served by any worker.
    total.injectFastPath =
        injectFastPath_.load(std::memory_order_relaxed);
    total.injectSpill = injectSpill_.load(std::memory_order_relaxed);
    total.injectShardHits =
        injectShardHits_.load(std::memory_order_relaxed);
    total.injectDrainBack = injectQueue_.drainBacks();
    total.droppedHandleErrors =
        droppedHandleErrors_.load(std::memory_order_relaxed);
    for (unsigned b = 0; b < RuntimeStats::kInjectDrainBuckets; ++b)
        total.injectDrain[b] =
            injectDrain_[b].load(std::memory_order_relaxed);
    return total;
}

double
Runtime::packagePower(const energy::PowerModel &model) const
{
    const auto &topo = config_.profile.topology;
    double power = model.uncorePower();

    // Aggregate worker states per core: with more workers than cores
    // several workers share one (constructor wrap-around), and the
    // core is only as idle as its most active resident — one busy
    // thread keeps the clocks running no matter how many siblings
    // are parked.
    enum : uint8_t { kVacant = 0, kParked = 1, kHunting = 2,
                     kBusy = 3 };
    std::vector<uint8_t> core_state(topo.numCores(), kVacant);
    for (unsigned w = 0; w < config_.numWorkers; ++w) {
        const auto &ws = *workers_[w];
        uint8_t s = kHunting;
        if (ws.activeDepth.load(std::memory_order_relaxed) > 0)
            s = kBusy;
        else if (ws.parked.load(std::memory_order_relaxed))
            s = kParked;
        auto &cs = core_state[plannedCores_[w]];
        cs = std::max(cs, s);
    }

    for (platform::CoreId c = 0; c < topo.numCores(); ++c) {
        const auto freq = backend_->domainFreq(topo.domainOf(c));
        switch (core_state[c]) {
        case kBusy:
            power += model.coreActivePower(freq);
            break;
        case kHunting:
            // Awake but out of work: hunting victims at its tempo.
            power += model.coreSpinPower(freq);
            break;
        case kParked:
            // Every resident worker is blocked in the kernel: the
            // core sits in a C-state, clock-gated, until a wake.
            power += model.parkedPower(freq);
            break;
        default:
            power += model.coreIdlePower(freq);
            break;
        }
    }
    return power;
}

} // namespace hermes::runtime
