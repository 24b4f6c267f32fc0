#include "harness/serve/serve_driver.hpp"

#include <atomic>
#include <chrono>
#include <functional>
#include <thread>

#include "energy/power_model.hpp"
#include "platform/system_profile.hpp"
#include "util/assert.hpp"
#include "util/time.hpp"
#include "workloads/registry.hpp"

namespace hermes::harness::serve {

namespace {

/** Per-worker latency sinks. Each is written only by its owner
 * worker; the merge happens after every SubmitHandle has been
 * waited, so completion-synchronization orders writer before
 * reader. Cache-line aligned so neighbors' count bumps do not
 * false-share. */
struct alignas(64) WorkerRecorders
{
    LatencyRecorder sojourn;
    LatencyRecorder queueing;
    LatencyRecorder service;
    // Outcome taxonomy, same owner-worker write discipline as the
    // recorders above (plain words: no other thread reads them until
    // after every handle has been waited).
    uint64_t ok = 0;
    uint64_t retriedOk = 0;
    uint64_t failed = 0;
    uint64_t deadlineExpired = 0;
    uint64_t retriesSpent = 0;
    uint64_t stragglers = 0;
    uint64_t injectedFaults = 0;
};

/** Run-wide chaos context shared by every request body. Split from
 * the per-request RequestFault so the request lambda stays within
 * TaskFn's 64-byte inline budget — the healthy path must not start
 * boxing closures because chaos exists. */
struct ChaosShared
{
    const faults::FaultConfig *fc;
    const faults::RequestFault *base; ///< fault plan rows (index 0)
    uint64_t deadlineNanos;           ///< 0 = no deadline
    uint64_t seed;                    ///< backoff stream seed
};

/** Busy-spin for `nanos` of wall-clock time. Timed, not counted:
 * iteration-count kernels change meaning under sanitizer
 * instrumentation and DVFS, wall-clock spins do not. */
void
spinFor(uint64_t nanos)
{
    const uint64_t deadline = util::nowNanos() + nanos;
    while (util::nowNanos() < deadline) {
        // spin
    }
}

/** A mix entry compiled to a callable request kernel. */
using Kernel = std::function<void(runtime::Runtime &, uint64_t)>;

Kernel
compileKernel(const MixEntry &m)
{
    if (m.workload.empty()) {
        const uint64_t spin = m.spinNanos;
        return [spin](runtime::Runtime &, uint64_t) { spinFor(spin); };
    }
    return [name = m.workload, scale = m.scale](runtime::Runtime &rt,
                                                uint64_t seed) {
        workloads::runWorkload(rt, name, scale, seed);
    };
}

} // namespace

ServeResult
runServe(runtime::Runtime &rt, const ServeConfig &config)
{
    HERMES_ASSERT(!config.mix.empty(), "mix must be non-empty");
    HERMES_ASSERT(config.producers >= 1, "need at least one producer");

    ServeResult result;
    result.config = config;

    // The mix is the one source of truth for arrival weights.
    result.config.arrivals.mixWeights.clear();
    for (const MixEntry &m : config.mix)
        result.config.arrivals.mixWeights.push_back(m.weight);
    result.schedule = generateSchedule(result.config.arrivals);
    for (const Arrival &a : result.schedule) {
        HERMES_ASSERT(a.mixIndex < config.mix.size(),
                      "schedule mix index out of range for this mix");
    }

    // hermes-chaos: draw the fault plan up front from its own
    // decorrelated streams — pure data, byte-identical per seed, and
    // (by stream-tag construction) incapable of moving an arrival.
    const bool chaos_on = config.faults.enabled;
    result.faultPlan = faults::generateFaultPlan(
        config.faults, result.config.arrivals.seed,
        result.schedule.size());
    const ChaosShared chaos_shared{
        &result.config.faults, result.faultPlan.requests.data(),
        static_cast<uint64_t>(config.faults.deadlineMs * 1e6),
        result.config.arrivals.seed};
    const ChaosShared *chaos = chaos_on ? &chaos_shared : nullptr;

    const unsigned num_workers = rt.numWorkers();
    std::vector<WorkerRecorders> recorders(num_workers);

    std::vector<Kernel> kernels;
    kernels.reserve(config.mix.size());
    for (const MixEntry &m : config.mix)
        kernels.push_back(compileKernel(m));

    // Live counters the watchdog reads mid-run. Relaxed: it only
    // asks whether accepted work is still outstanding.
    std::atomic<uint64_t> accepted_live{0};
    std::atomic<uint64_t> completed_live{0};

    // Stall watchdog (docs/RESILIENCE.md): a worker whose heartbeat
    // is frozen while unparked for kStallSamples consecutive samples
    // is treated as stalled. Always on — the sampler is already
    // polling the runtime at sampleHz and a compensating wake of a
    // parked peer is harmless when spurious (it re-checks every work
    // source and re-parks). Its state is touched only by the sampler
    // thread and read after sampler.stop().
    constexpr unsigned kStallSamples = 3;
    std::vector<uint64_t> last_beat(num_workers, 0);
    std::vector<unsigned> stagnant(num_workers, 0);
    uint64_t watchdog_stalls = 0;
    uint64_t compensating_wakes = 0;
    // The sampler doubles as the chaos clock: a scheduled worker
    // stall fires at its run-relative time from the hook.
    bool stall_pending = chaos_on && config.faults.stall.active()
        && config.faults.stall.worker
            < static_cast<int32_t>(num_workers);
    auto watchdog = [&](RunSample &s) {
        if (stall_pending && s.tSec >= config.faults.stall.atSec) {
            rt.stallWorker(
                static_cast<core::WorkerId>(config.faults.stall.worker),
                static_cast<uint64_t>(
                    config.faults.stall.durationMs * 1e6));
            stall_pending = false;
        }
        const runtime::StallTelemetry beats = rt.stallTelemetry();
        unsigned stalled = 0;
        for (unsigned w = 0; w < beats.workers.size(); ++w) {
            const auto &b = beats.workers[w];
            if (!b.parked && b.heartbeat == last_beat[w]) {
                // One episode per freeze: count at the crossing.
                if (++stagnant[w] == kStallSamples)
                    ++watchdog_stalls;
            } else {
                stagnant[w] = 0;
            }
            last_beat[w] = b.heartbeat;
            if (stagnant[w] >= kStallSamples)
                ++stalled;
        }
        s.stalledWorkers = stalled;
        // Compensating wakes: accepted work is still outstanding and
        // a worker is wedged — re-advertise the published backlog so
        // one stalled worker never strands parked peers. No new
        // work-publish needed (wakeWorkers()).
        const uint64_t accepted =
            accepted_live.load(std::memory_order_relaxed);
        if (stalled > 0
            && completed_live.load(std::memory_order_relaxed) < accepted)
            compensating_wakes += rt.wakeWorkers(num_workers);
    };

    const energy::PowerModel model(
        platform::profileByName(config.profileName));
    const auto t0 = std::chrono::steady_clock::now();
    const uint64_t t0_ns = util::nowNanos();
    RunSampler sampler(rt, model, config.sampleHz, watchdog);

    // One controller and one handle vector per producer: both are
    // single-threaded by construction, so the submit loop takes no
    // locks and never blocks on the runtime or on its peers.
    std::vector<AdmissionController> admissions(
        config.producers, AdmissionController(config.admission));
    std::vector<std::vector<runtime::SubmitHandle>> handles(
        config.producers);

    std::vector<std::thread> producers;
    producers.reserve(config.producers);
    for (unsigned p = 0; p < config.producers; ++p) {
        handles[p].reserve(
            result.schedule.size() / config.producers + 1);
        producers.emplace_back([&, p] {
            AdmissionController &admission = admissions[p];
            // Round-robin deal: producer p owns arrivals p,
            // p + producers, ... — each slice stays time-ordered.
            for (size_t i = p; i < result.schedule.size();
                 i += config.producers) {
                const Arrival &a = result.schedule[i];
                std::this_thread::sleep_until(
                    t0 + std::chrono::nanoseconds(a.offsetNanos));

                if (config.admissionEnabled) {
                    const auto telemetry = rt.injectTelemetry();
                    if (!admission.admit(telemetry.pending,
                                         telemetry.spill))
                        continue;
                } else {
                    admission.admit(0, 0);
                }
                accepted_live.fetch_add(1, std::memory_order_relaxed);

                const Kernel *kernel = &kernels[a.mixIndex];
                const uint64_t request_seed = a.requestSeed;
                WorkerRecorders *sinks = recorders.data();
                std::atomic<uint64_t> *completed = &completed_live;
                runtime::Runtime *rt_ptr = &rt;
                // Null when faults are off: the body's first branch
                // keeps the healthy path exactly the pre-chaos code.
                // Eight word captures = TaskFn's 64-byte inline
                // budget exactly; adding a ninth would heap-box
                // every request closure.
                const faults::RequestFault *rf =
                    chaos ? chaos->base + i : nullptr;
                const uint64_t submit_ns = util::nowNanos();
                handles[p].push_back(rt.submit(
                    [submit_ns, kernel, request_seed, sinks,
                     completed, rt_ptr, chaos, rf] {
                        const uint64_t start_ns = util::nowNanos();
                        if (chaos == nullptr) {
                            (*kernel)(*rt_ptr, request_seed);
                            const uint64_t finish_ns = util::nowNanos();
                            const auto w =
                                runtime::Runtime::currentWorker();
                            HERMES_ASSERT(w != core::invalidWorker,
                                          "request body ran off-worker");
                            sinks[w].sojourn.record(finish_ns
                                                    - submit_ns);
                            sinks[w].queueing.record(start_ns
                                                     - submit_ns);
                            sinks[w].service.record(finish_ns
                                                    - start_ns);
                            sinks[w].ok += 1;
                            completed->fetch_add(
                                1, std::memory_order_relaxed);
                            return;
                        }
                        // hermes-chaos request lifecycle
                        // (docs/RESILIENCE.md). Every accepted
                        // request still reaches exactly one terminal
                        // bucket and one completed bump — the
                        // reconciliation invariant depends on it.
                        const auto w = runtime::Runtime::currentWorker();
                        HERMES_ASSERT(w != core::invalidWorker,
                                      "request body ran off-worker");
                        WorkerRecorders &sink = sinks[w];
                        const faults::FaultConfig &fc = *chaos->fc;
                        const uint64_t index = static_cast<uint64_t>(
                            rf - chaos->base);
                        // Deadline at pickup: an expired request is
                        // counted, never run — the worker spends no
                        // service time on it and nobody waits on it.
                        if (chaos->deadlineNanos != 0
                            && start_ns - submit_ns
                                > chaos->deadlineNanos) {
                            sink.deadlineExpired += 1;
                            completed->fetch_add(
                                1, std::memory_order_relaxed);
                            return;
                        }
                        uint32_t attempt = 0;
                        for (;;) {
                            const uint64_t attempt_start =
                                util::nowNanos();
                            try {
                                // The injection site: planned
                                // failures are real thrown
                                // exceptions through the real catch
                                // path, not skipped kernels.
                                if (attempt < rf->failAttempts) {
                                    sink.injectedFaults += 1;
                                    throw faults::InjectedFault();
                                }
                                (*kernel)(*rt_ptr, request_seed);
                            } catch (const faults::InjectedFault &) {
                                if (attempt >= fc.maxRetries) {
                                    sink.failed += 1;
                                    completed->fetch_add(
                                        1, std::memory_order_relaxed);
                                    return;
                                }
                                // Seeded exponential backoff +
                                // jitter; synchronous by design (the
                                // retrying request keeps its worker
                                // — that occupancy is part of what
                                // chaos runs measure).
                                std::this_thread::sleep_for(
                                    std::chrono::nanoseconds(
                                        faults::retryBackoffNanos(
                                            fc, chaos->seed, index,
                                            attempt)));
                                sink.retriesSpent += 1;
                                ++attempt;
                                if (chaos->deadlineNanos != 0
                                    && util::nowNanos() - submit_ns
                                        > chaos->deadlineNanos) {
                                    sink.deadlineExpired += 1;
                                    completed->fetch_add(
                                        1, std::memory_order_relaxed);
                                    return;
                                }
                                continue;
                            }
                            // Straggler site: stretch the successful
                            // attempt to stragglerFactor x its
                            // measured kernel time (timed spin, like
                            // the service kernels themselves).
                            if (rf->straggler
                                && fc.stragglerFactor > 1.0) {
                                spinFor(static_cast<uint64_t>(
                                    (fc.stragglerFactor - 1.0)
                                    * static_cast<double>(
                                        util::nowNanos()
                                        - attempt_start)));
                                sink.stragglers += 1;
                            }
                            break;
                        }
                        const uint64_t finish_ns = util::nowNanos();
                        sink.sojourn.record(finish_ns - submit_ns);
                        sink.queueing.record(start_ns - submit_ns);
                        sink.service.record(finish_ns - start_ns);
                        (attempt == 0 ? sink.ok : sink.retriedOk) += 1;
                        completed->fetch_add(
                            1, std::memory_order_relaxed);
                    }));
            }
        });
    }

    for (std::thread &t : producers)
        t.join();
    // Retained handles are waited only now — releasing one mid-run
    // would block the producer in the handle's draining deleter and
    // silently turn the generator closed-loop.
    for (auto &producer_handles : handles) {
        for (runtime::SubmitHandle &h : producer_handles)
            h.wait();
        producer_handles.clear();
    }
    const uint64_t end_ns = util::nowNanos();
    sampler.stop();

    for (const AdmissionController &admission : admissions) {
        result.offered += admission.offered();
        result.accepted += admission.accepted();
        result.shed += admission.shed();
        result.admissionTransitions += admission.transitions();
    }
    result.completed = completed_live.load(std::memory_order_relaxed);
    for (const WorkerRecorders &r : recorders) {
        result.sojourn.merge(r.sojourn);
        result.queueing.merge(r.queueing);
        result.service.merge(r.service);
        result.ok += r.ok;
        result.retriedOk += r.retriedOk;
        result.failed += r.failed;
        result.deadlineExpired += r.deadlineExpired;
        result.retriesSpent += r.retriesSpent;
        result.stragglers += r.stragglers;
        result.injectedFaults += r.injectedFaults;
    }
    result.watchdogStalls = watchdog_stalls;
    result.compensatingWakes = compensating_wakes;
    // The taxonomy is total: every offered request landed in exactly
    // one terminal bucket (shed at admission, or one of the body's
    // four exits). This is the accounting contract chaos tests gate.
    HERMES_ASSERT(result.offered
                      == result.shed + result.ok + result.retriedOk
                          + result.failed + result.deadlineExpired,
                  "serve outcome accounting must reconcile");
    result.wallSeconds = static_cast<double>(end_ns - t0_ns) / 1e9;
    result.goodputPerSec = result.wallSeconds > 0.0
        ? static_cast<double>(result.ok + result.retriedOk)
            / result.wallSeconds
        : 0.0;
    result.joules = sampler.joules();
    result.joulesPerRequest = result.completed != 0
        ? result.joules / static_cast<double>(result.completed)
        : 0.0;
    result.stats = rt.stats();
    result.series = sampler.samples();
    return result;
}

} // namespace hermes::harness::serve
