#include "sim/simulator.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace hermes::sim {

/**
 * DVFS backend whose requests become simulator events: the requested
 * frequency is visible to the controller immediately (it reads its
 * own intent), while the physical effect lands one transition
 * latency after the event being handled, via a DvfsApply event. This
 * backend is the only place a frequency change gets a time.
 */
class Simulator::Backend : public dvfs::DvfsBackend
{
  public:
    Backend(Simulator &sim, unsigned num_domains,
            platform::FreqMhz f0)
        : sim_(sim), freq_(num_domains, f0)
    {}

    unsigned
    numDomains() const override
    {
        return static_cast<unsigned>(freq_.size());
    }

    platform::FreqMhz
    domainFreq(platform::DomainId domain) const override
    {
        HERMES_ASSERT(domain < freq_.size(), "domain out of range");
        return freq_[domain];
    }

    void
    setDomainFreq(platform::DomainId domain,
                  platform::FreqMhz f) override
    {
        HERMES_ASSERT(domain < freq_.size(), "domain out of range");
        if (freq_[domain] == f)
            return;
        freq_[domain] = f;
        sim_.onFreqRequest(domain, f);
    }

  private:
    Simulator &sim_;
    std::vector<platform::FreqMhz> freq_;  // requested (intent)
};

Simulator::Simulator(const Dag &dag, SimConfig config)
    : dag_(dag), config_(std::move(config)),
      usableLadder_(config_.profile.ladder), rng_(config_.seed)
{
    const auto &topo = config_.profile.topology;
    HERMES_ASSERT(config_.numWorkers >= 1, "need at least one worker");
    HERMES_ASSERT(config_.numWorkers <= 64,
                  "simulator supports at most 64 workers");
    if (config_.numWorkers > topo.numDomains()) {
        util::fatal("simulator places one worker per clock domain; "
                    + std::to_string(config_.numWorkers)
                    + " workers exceed "
                    + std::to_string(topo.numDomains())
                    + " domains on " + config_.profile.name);
    }

    workers_.resize(config_.numWorkers);
    const auto cores = topo.distinctDomainCores(config_.numWorkers);
    domainWorker_.assign(topo.numDomains(), ~0u);
    for (unsigned w = 0; w < config_.numWorkers; ++w) {
        workers_[w].core = cores[w];
        domainWorker_[topo.domainOf(cores[w])] = w;
    }

    appliedFreq_.assign(topo.numDomains(),
                        config_.profile.ladder.fastest());

    backend_ = std::make_unique<Backend>(*this, topo.numDomains(),
                                         config_.profile.ladder
                                             .fastest());

    if (config_.enableTempo) {
        if (!config_.tempo.ladder.has_value()) {
            config_.tempo.ladder =
                platform::defaultTempoLadder(config_.profile);
        }
        for (auto f : config_.tempo.ladder->rungs()) {
            if (!config_.profile.ladder.contains(f)) {
                util::fatal(
                    "tempo ladder rung " + std::to_string(f)
                    + " MHz is not supported by profile "
                    + config_.profile.name);
            }
        }
        usableLadder_ = *config_.tempo.ladder;
        std::vector<platform::DomainId> domain_of;
        for (const WorkerSim &ws : workers_)
            domain_of.push_back(topo.domainOf(ws.core));
        tempo_ = std::make_unique<core::TempoController>(
            config_.tempo, *backend_, std::move(domain_of));
    }

    frames_.assign(dag_.frameCount(), FrameState{});
    busySecondsAtRung_.assign(config_.profile.ladder.size(), 0.0);
}

Simulator::~Simulator() = default;

void
Simulator::push(Event ev)
{
    ev.seq = eventSeq_++;
    events_.push(ev);
}

void
Simulator::schedule(double t, EventKind kind, unsigned w)
{
    Event ev{};
    ev.time = t;
    ev.kind = kind;
    ev.worker = w;
    ev.epoch = workers_[w].epoch;
    push(ev);
}

double
Simulator::rateOf(unsigned w) const
{
    const auto &topo = config_.profile.topology;
    const auto f = appliedFreq_[topo.domainOf(workers_[w].core)];
    const double f_hz = static_cast<double>(f) * 1e6;
    const double fmax_hz =
        static_cast<double>(config_.profile.ladder.fastest()) * 1e6;

    // Frame work is denominated in cycles at f_max. The compute
    // share scales with 1/f; the memory-stall share is frequency-
    // invariant (DRAM does not care about the core's P-state), so
    //   time = W * ((1-m)/f + m/f_max)  =>  rate = 1/(...).
    const auto &ws = workers_[w];
    double m = 0.0;
    if (ws.current.frame != invalidFrame)
        m = dag_.frame(ws.current.frame).memFraction;
    return 1.0 / ((1.0 - m) / f_hz + m / fmax_hz);
}

void
Simulator::markActive(unsigned w, double t)
{
    if (!workers_[w].idleLedger)
        return;
    workers_[w].idleLedger = false;
    ledger_->setCoreActivity(workers_[w].core, t,
                             energy::CoreActivity::Active);
}

void
Simulator::markIdle(unsigned w, double t)
{
    if (workers_[w].idleLedger)
        return;
    workers_[w].idleLedger = true;
    // A work-hunting worker spins in the steal loop at its current
    // tempo; it does not park (YIELD is uncommon, Section 3.4). The
    // baseline therefore spins its idlers at f_max while HERMES often
    // leaves them at a procrastinated frequency.
    ledger_->setCoreActivity(workers_[w].core, t,
                             energy::CoreActivity::Spin);
}

double
Simulator::reapDvfsCost()
{
    const double cost = static_cast<double>(dvfsCallsPending_)
        * config_.dvfsCallCostSec;
    dvfsCallsPending_ = 0;
    return cost;
}

void
Simulator::onFreqRequest(platform::DomainId domain,
                         platform::FreqMhz freq)
{
    ++stats_.dvfsRequests;
    ++dvfsCallsPending_;
    Event ev{};
    ev.time = now_ + config_.profile.dvfsLatencySec;
    ev.kind = EventKind::DvfsApply;
    ev.domain = domain;
    ev.freqMhz = freq;
    push(ev);
}

void
Simulator::accrueBusy(unsigned w, double t)
{
    const auto &topo = config_.profile.topology;
    const auto f = appliedFreq_[topo.domainOf(workers_[w].core)];
    if (t > workers_[w].segStart) {
        busySecondsAtRung_[config_.profile.ladder.indexOf(f)] +=
            t - workers_[w].segStart;
    }
}

void
Simulator::applyFreq(platform::DomainId domain,
                     platform::FreqMhz freq, double t)
{
    // Bank busy time at the outgoing frequency before switching.
    {
        const unsigned w = domainWorker_[domain];
        if (w != ~0u && workers_[w].busy)
            accrueBusy(w, t);
    }
    appliedFreq_[domain] = freq;
    for (auto core : config_.profile.topology.coresIn(domain))
        ledger_->setCoreFreq(core, t, freq);

    const unsigned w = domainWorker_[domain];
    if (w == ~0u || !workers_[w].busy)
        return;

    // Re-time the in-flight segment: bank the cycles drained at the
    // old rate, then finish the remainder at the new rate.
    auto &ws = workers_[w];
    if (t > ws.segStart) {
        ws.current.cursor += (t - ws.segStart) * ws.rateAtSeg;
        ws.current.cursor = std::min(ws.current.cursor,
                                     ws.stopCycles);
        ws.segStart = t;
    }
    ws.rateAtSeg = rateOf(w);
    ++ws.epoch;
    const double remain = std::max(0.0, ws.stopCycles
                                            - ws.current.cursor);
    schedule(ws.segStart + remain / ws.rateAtSeg,
             EventKind::SegmentEnd, w);
}

void
Simulator::startSegment(unsigned w, double t)
{
    auto &ws = workers_[w];
    HERMES_ASSERT(ws.busy, "startSegment on non-busy worker");
    const Frame &fr = dag_.frame(ws.current.frame);
    ws.stopCycles = ws.current.nextSpawn < fr.spawns.size()
        ? fr.spawns[ws.current.nextSpawn].offsetCycles
        : fr.ownCycles;
    ws.segStart = t;
    ws.rateAtSeg = rateOf(w);
    ++ws.epoch;
    const double remain = std::max(0.0, ws.stopCycles
                                            - ws.current.cursor);
    schedule(t + remain / ws.rateAtSeg, EventKind::SegmentEnd, w);
}

void
Simulator::onSegmentEnd(unsigned w, double t)
{
    auto &ws = workers_[w];
    accrueBusy(w, t);
    ws.current.cursor = ws.stopCycles;
    const Frame &fr = dag_.frame(ws.current.frame);

    if (ws.current.nextSpawn < fr.spawns.size()
            && ws.current.cursor
                   >= fr.spawns[ws.current.nextSpawn].offsetCycles) {
        // Spawn point: push the continuation of this frame (the less
        // immediate work) and dive into the child — the work-first
        // principle, exactly as compiled Cilk does it.
        const FrameId child = fr.spawns[ws.current.nextSpawn].child;
        const FrameId parent = ws.current.frame;
        Continuation contin{parent, ws.current.cursor,
                            ws.current.nextSpawn + 1};
        ws.deque.push_back(contin);
        ++stats_.pushes;
        ++frames_[parent].outstanding;
        if (tempo_)
            tempo_->onPush(w, ws.deque.size());
        maybeWake(t);
        const double cost = reapDvfsCost();
        ws.current = Continuation{child, 0.0, 0};
        startSegment(w, t + cost);
        return;
    }

    // The frame's own serial work is done.
    const FrameId f = ws.current.frame;
    stats_.executedCycles += fr.ownCycles;
    HERMES_ASSERT(frames_[f].outstanding >= 1,
                  "frame join counter underflow");
    if (--frames_[f].outstanding == 0) {
        if (completeFrame(f, w, t))
            return;  // worker resumed a sequel (or the run ended)
    }
    // Children still outstanding: the frame is suspended at its sync
    // and the worker moves on (greedy scheduling).
    workerFree(w, t);
}

bool
Simulator::completeFrame(FrameId f, unsigned w, double t)
{
    ++completedFrames_;
    if (completedFrames_ == dag_.frameCount()) {
        done_ = true;
        endTime_ = t;
        return true;
    }

    const Frame &fr = dag_.frame(f);
    if (fr.sequel != invalidFrame) {
        // The worker that satisfied the sync resumes the post-sync
        // continuation directly (Cilk's last-child-returns rule).
        auto &ws = workers_[w];
        ws.busy = true;
        ws.current = Continuation{fr.sequel, 0.0, 0};
        startSegment(w, t);
        return true;
    }

    if (fr.parent != invalidFrame) {
        HERMES_ASSERT(frames_[fr.parent].outstanding >= 1,
                      "parent join counter underflow");
        if (--frames_[fr.parent].outstanding == 0)
            return completeFrame(fr.parent, w, t);
    }
    return false;
}

void
Simulator::startAcquired(unsigned w, const Continuation &c, double t,
                         double extra_cost)
{
    auto &ws = workers_[w];
    ws.busy = true;
    // Ledger writes must use the current event time (monotonicity);
    // the worker is genuinely busy during the acquisition tolls.
    markActive(w, t);
    // Dynamic scheduling: affinity set before WORK and reset after —
    // modelled as a fixed toll on each acquisition (Section 3.4).
    const double cost = extra_cost
        + (config_.scheduling == SchedulingMode::Dynamic
               ? 2.0 * config_.affinityCostSec
               : 0.0);
    ws.current = c;
    startSegment(w, t + cost);
}

void
Simulator::workerFree(unsigned w, double t)
{
    auto &ws = workers_[w];
    ws.busy = false;

    if (!ws.deque.empty()) {
        // POP: the tail holds the most immediate task.
        const Continuation c = ws.deque.back();
        ws.deque.pop_back();
        ++stats_.pops;
        if (tempo_)
            tempo_->onPopSuccess(w, ws.deque.size());
        startAcquired(w, c, t, reapDvfsCost());
        return;
    }

    // Out of work: immediacy relay fires before victim hunting. The
    // relay's DVFS calls are issued (and paid for) by this worker.
    if (tempo_)
        tempo_->onOutOfWork(w);
    attemptSteal(w, t, reapDvfsCost());
}

void
Simulator::attemptSteal(unsigned w, double t, double extra_cost)
{
    auto &ws = workers_[w];

    // SELECT: uniformly among victims that currently have work (a
    // collapsed model of randomized probing — real thieves find a
    // non-empty victim within a few microsecond probes).
    unsigned candidates[64];
    unsigned n = 0;
    for (unsigned v = 0; v < workers_.size(); ++v) {
        if (v != w && !workers_[v].deque.empty())
            candidates[n++] = v;
    }

    if (n == 0) {
        ++stats_.failedStealScans;
        markIdle(w, t);
        ws.backoff = ws.backoff <= 0.0
            ? config_.initialBackoffSec
            : std::min(ws.backoff * 2.0, config_.maxBackoffSec);
        ++ws.epoch;
        schedule(t + extra_cost + ws.backoff, EventKind::StealRetry,
                 w);
        return;
    }

    const unsigned v = candidates[rng_.uniformInt(0, n - 1)];
    auto &vs = workers_[v];
    // STEAL takes the head: the least immediate task.
    const Continuation c = vs.deque.front();
    vs.deque.pop_front();
    ++stats_.steals;
    ws.backoff = 0.0;

    if (tempo_) {
        // Algorithm 3.5's victim-side workload check, then the
        // thief's procrastination + immediacy-list splice (Fig. 5).
        tempo_->onVictimStolen(v, vs.deque.size());
        tempo_->onStealSuccess(w, v);
    }

    const double cost = extra_cost + config_.stealLatencySec
        + reapDvfsCost();
    startAcquired(w, c, t, cost);

    // The victim may still have stealable work for another idler.
    if (!vs.deque.empty())
        maybeWake(t);
}

void
Simulator::maybeWake(double t)
{
    unsigned idle[64];
    unsigned n = 0;
    for (unsigned v = 0; v < workers_.size(); ++v) {
        if (!workers_[v].busy && workers_[v].deque.empty())
            idle[n++] = v;
    }
    if (n == 0)
        return;
    const unsigned w = idle[rng_.uniformInt(0, n - 1)];
    ++stats_.wakes;
    // Wake with the *current* epoch: if the worker acts before this
    // lands, the epoch moves on and the wake is dropped as stale.
    schedule(t + config_.wakeLatencySec, EventKind::StealRetry, w);
}

SimResult
Simulator::run()
{
    const auto &topo = config_.profile.topology;
    ledger_ = std::make_unique<energy::EnergyLedger>(
        energy::PowerModel(config_.profile), topo.numCores(), 0.0,
        config_.profile.ladder.fastest());

    // Domains hosting no worker idle at the lowest P-state in both
    // arms (the ondemand governor parks unused cores); only worker
    // domains are subject to tempo control.
    for (platform::DomainId d = 0; d < topo.numDomains(); ++d) {
        if (domainWorker_[d] != ~0u)
            continue;
        appliedFreq_[d] = config_.profile.ladder.slowest();
        for (auto core : topo.coresIn(d))
            ledger_->setCoreFreq(core, 0.0,
                                 config_.profile.ladder.slowest());
    }

    if (tempo_)
        tempo_->reset();
    dvfsCallsPending_ = 0;  // bootstrap requests are free

    // Worker 0 receives the root frame (the program's main()).
    frames_[dag_.root()].started = true;
    workers_[0].busy = true;
    workers_[0].current = Continuation{dag_.root(), 0.0, 0};
    markActive(0, 0.0);
    startSegment(0, 0.0);

    while (!events_.empty() && !done_) {
        const Event ev = events_.top();
        events_.pop();
        now_ = ev.time;
        ++stats_.eventsProcessed;
        HERMES_ASSERT(stats_.eventsProcessed < 500000000ULL,
                      "simulator event storm: likely model bug");

        switch (ev.kind) {
          case EventKind::SegmentEnd:
            if (ev.epoch != workers_[ev.worker].epoch)
                break;  // stale: segment was re-timed
            onSegmentEnd(ev.worker, ev.time);
            break;
          case EventKind::StealRetry:
            if (ev.epoch != workers_[ev.worker].epoch
                    || workers_[ev.worker].busy)
                break;
            workerFree(ev.worker, ev.time);
            break;
          case EventKind::DvfsApply:
            applyFreq(ev.domain, ev.freqMhz, ev.time);
            break;
        }
    }

    HERMES_ASSERT(done_,
                  "simulation deadlocked with "
                  << (dag_.frameCount() - completedFrames_)
                  << " frames incomplete");

    ledger_->finish(endTime_);

    SimResult result;
    result.seconds = endTime_;
    result.joules = ledger_->totalJoules();
    result.seriesJoules = ledger_->seriesJoules(100.0);
    result.stats = stats_;
    result.busySecondsAtRung = busySecondsAtRung_;
    if (tempo_)
        result.tempoCounters = tempo_->counters();
    if (config_.recordPowerSeries)
        result.powerSeries = ledger_->powerSeries(100.0);
    return result;
}

SimResult
simulate(const Dag &dag, const SimConfig &config)
{
    Simulator sim(dag, config);
    return sim.run();
}

} // namespace hermes::sim
