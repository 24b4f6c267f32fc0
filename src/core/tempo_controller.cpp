#include "core/tempo_controller.hpp"

#include <algorithm>

#include "runtime/sync.hpp"
#include "util/assert.hpp"

namespace hermes::core {

TempoController::TempoController(
    TempoConfig config, dvfs::DvfsBackend &backend,
    std::vector<platform::DomainId> domain_of)
    : config_(std::move(config)),
      ladder_(config_.ladder.has_value()
                  ? *config_.ladder
                  : platform::FrequencyLadder({1})),
      backend_(backend), domainOf_(std::move(domain_of)),
      list_(numWorkers()),
      tempo_(numWorkers(), 0),
      region_(numWorkers(), 0),
      profiler_(numWorkers(),
                ThresholdProfiler(config_.numThresholds,
                                  config_.profilerWindow))
{
    HERMES_ASSERT(config_.ladder.has_value(),
                  "TempoConfig::ladder must be resolved before "
                  "constructing a TempoController (see "
                  "platform::defaultTempoLadder)");
    HERMES_ASSERT(!domainOf_.empty(), "need at least one worker");
    for (const platform::DomainId d : domainOf_) {
        HERMES_ASSERT(d < backend_.numDomains(),
                      "domain " << d << " out of range");
    }
}

void
TempoController::validate(WorkerId w) const
{
    HERMES_ASSERT(w < numWorkers(), "worker " << w << " out of range");
}

void
TempoController::reset()
{
    runtime::sync::Guard lock(mutex_);
    list_.clear();
    for (WorkerId w = 0; w < numWorkers(); ++w) {
        tempo_[w] = 0;
        region_[w] = 0;
        profiler_[w] = ThresholdProfiler(config_.numThresholds,
                                         config_.profilerWindow);
        backend_.setDomainFreq(domainOf_[w], ladder_.fastest());
    }
    counters_ = TempoCounters{};
}

void
TempoController::setTempo(WorkerId w, platform::FreqIndex idx)
{
    idx = std::min(idx, slowestIndex());
    if (tempo_[w] == idx)
        return;
    tempo_[w] = idx;
    backend_.setDomainFreq(domainOf_[w], ladder_.at(idx));
}

void
TempoController::up(WorkerId w)
{
    if (tempo_[w] > 0)
        setTempo(w, tempo_[w] - 1);
}

void
TempoController::down(WorkerId w)
{
    setTempo(w, tempo_[w] + 1);
}

void
TempoController::onStealSuccess(WorkerId thief, WorkerId victim)
{
    validate(thief);
    validate(victim);
    HERMES_ASSERT(thief != victim, "self-steal is impossible");

    runtime::sync::Guard lock(mutex_);

    // The thief starts over with an empty deque in workload terms.
    region_[thief] = 0;

    if (hasWorkpath(config_.policy)) {
        // Thief Procrastination: one tempo below the victim, then
        // splice into the immediacy list right after the victim
        // (Figure 5 lines 20-26). A thief that is still linked can
        // occur only through scheduler misuse; the out-of-work hook
        // always precedes a steal and unlinks it.
        setTempo(thief, tempo_[victim] + 1);
        ++counters_.stealDowns;
        list_.unlink(thief);
        list_.insertAfter(victim, thief);
    } else {
        // Workload-only (Figure 4(b)): an empty deque maps the thief
        // to the slowest workload region's tempo, K steps below
        // fastest, clamped to the usable ladder.
        const auto idx = std::min<platform::FreqIndex>(
            config_.numThresholds, slowestIndex());
        if (idx > tempo_[thief])
            ++counters_.workloadDowns;
        else if (idx < tempo_[thief])
            ++counters_.workloadUps;
        setTempo(thief, idx);
    }
}

void
TempoController::onOutOfWork(WorkerId w)
{
    validate(w);

    runtime::sync::Guard lock(mutex_);
    region_[w] = 0;
    ++counters_.outOfWorkEvents;

    if (!hasWorkpath(config_.policy))
        return;

    // Immediacy Relay: the tempo baton passes to every downstream
    // thief, one step each, preserving their relative order
    // (Figure 5 lines 7-10). Then w leaves the list (lines 11-14).
    // Re-invocations while w stays idle find next == invalid and are
    // no-ops, matching the pseudocode's loop structure.
    list_.forEachDownstream(w, [&](WorkerId t) {
        up(t);
        ++counters_.relayUps;
    });
    list_.unlink(w);
}

void
TempoController::reconcileWorkload(WorkerId w, size_t deque_size)
{
    if (profiler_[w].addSample(deque_size)) {
        ++counters_.profilerPeriods;
        // Thresholds moved; S is re-anchored stepwise below.
    }
    const unsigned target = profiler_[w].regionOf(deque_size);
    while (region_[w] < target) {
        ++region_[w];
        up(w);
        ++counters_.workloadUps;
    }
    while (region_[w] > target) {
        // The single intersection of the two strategies: a worker at
        // the head of the immediacy list holds the most immediate
        // work and is never slowed by workload rules (the
        // `prev != null` condition in Algorithms 3.4/3.5). The guard
        // exists only under the unified policy; under workload-only
        // no list is maintained.
        if (config_.policy == TempoPolicy::Unified
                && list_.prevOf(w) == invalidWorker) {
            ++counters_.guardBlocks;
            break;
        }
        --region_[w];
        down(w);
        ++counters_.workloadDowns;
    }
}

void
TempoController::onPush(WorkerId w, size_t deque_size)
{
    validate(w);
    if (!hasWorkload(config_.policy))
        return;
    runtime::sync::Guard lock(mutex_);
    reconcileWorkload(w, deque_size);
}

void
TempoController::onPopSuccess(WorkerId w, size_t deque_size)
{
    validate(w);
    if (!hasWorkload(config_.policy))
        return;
    runtime::sync::Guard lock(mutex_);
    reconcileWorkload(w, deque_size);
}

void
TempoController::onVictimStolen(WorkerId victim, size_t deque_size)
{
    validate(victim);
    if (!hasWorkload(config_.policy))
        return;
    runtime::sync::Guard lock(mutex_);
    reconcileWorkload(victim, deque_size);
}

platform::FreqIndex
TempoController::tempoOf(WorkerId w) const
{
    validate(w);
    runtime::sync::Guard lock(mutex_);
    return tempo_[w];
}

platform::FreqMhz
TempoController::frequencyOf(WorkerId w) const
{
    validate(w);
    runtime::sync::Guard lock(mutex_);
    return ladder_.at(tempo_[w]);
}

WorkerId
TempoController::nextOf(WorkerId w) const
{
    validate(w);
    runtime::sync::Guard lock(mutex_);
    return list_.nextOf(w);
}

WorkerId
TempoController::prevOf(WorkerId w) const
{
    validate(w);
    runtime::sync::Guard lock(mutex_);
    return list_.prevOf(w);
}

unsigned
TempoController::regionOf(WorkerId w) const
{
    validate(w);
    runtime::sync::Guard lock(mutex_);
    return region_[w];
}

TempoCounters
TempoController::counters() const
{
    runtime::sync::Guard lock(mutex_);
    return counters_;
}

} // namespace hermes::core
