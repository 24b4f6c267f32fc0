#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "bench.hpp"
#include "platform/system_profile.hpp"

namespace bench {

namespace {

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/** Signed difference clamped at zero: a body can start before the
 * driver's submit() returns. */
uint64_t
span(uint64_t from, uint64_t to)
{
    return to > from ? to - from : 0;
}

} // namespace

double
quantile(std::vector<uint64_t> &v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(q * static_cast<double>(v.size()));
    const size_t i = std::clamp<size_t>(static_cast<size_t>(rank), 1,
                                        v.size());
    return static_cast<double>(v[i - 1]);
}

double
sojournTail(const std::vector<uint64_t> &sojourn)
{
    const size_t n = sojourn.size();
    if (n < 2 * kTailWindowOps) {
        std::vector<uint64_t> all = sojourn;
        const double q = n == 0
            ? 0.5
            : std::max(0.5, 1.0 - 10.0 / static_cast<double>(n));
        return quantile(all, q);
    }
    std::vector<uint64_t> p99s;
    for (size_t lo = 0; lo + kTailWindowOps <= n; lo += kTailWindowOps) {
        // The last window takes the remainder.
        const size_t hi = lo + 2 * kTailWindowOps > n ? n
                                                      : lo + kTailWindowOps;
        std::vector<uint64_t> window(sojourn.begin() + lo,
                                     sojourn.begin() + hi);
        p99s.push_back(static_cast<uint64_t>(quantile(window, 0.99)));
    }
    return quantile(p99s, 0.5);
}

double
timeSetups(const std::function<void()> &teardown,
           const std::function<void()> &build)
{
    std::vector<uint64_t> ns;
    for (unsigned i = 0; i < kSetupWarmups + kSetupRepeats; ++i) {
        teardown();
        // Spin rather than sleep: a set-up after a sleep starts on cold
        // caches and a clocked-down core.
        if (i >= kSetupWarmups)
            for (const uint64_t end = nowNs() + kSetupGapNs; nowNs() < end;) {
            }
#ifdef __GLIBC__
        // Hand freed memory back to the kernel, so that every set-up
        // faults its blocks in as a process's first one does. Left to
        // the allocator, some set-ups get warm blocks back and some do
        // not, and set-up times split into two modes.
        malloc_trim(0);
#endif
        const uint64_t t0 = nowNs();
        build();
        if (i >= kSetupWarmups)
            ns.push_back(nowNs() - t0);
    }
    return quantile(ns, 0.5) * 1e-9;
}

unsigned
workerCount()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n > 1 ? n - 1 : 1;
}

hermes::runtime::RuntimeConfig
baseConfig()
{
    hermes::runtime::RuntimeConfig cfg;
    cfg.numWorkers = workerCount();
    cfg.profile = hermes::platform::hostSystem();
    cfg.scheduling = hermes::runtime::SchedulingMode::Static;
    return cfg;
}

bool
waitAllParked(const Runtime &rt, uint64_t timeout_ns)
{
    const uint64_t deadline = nowNs() + timeout_ns;
    while (rt.parkedWorkers() != rt.numWorkers()) {
        if (nowNs() > deadline)
            return false;
        std::this_thread::yield();
    }
    return true;
}

void
printPlan(uint64_t ops)
{
    std::printf("{\"event\": \"plan\", \"ops\": %llu}\n",
                static_cast<unsigned long long>(ops));
    std::fflush(stdout);
}

// ----------------------------------------------------------- Window

Window::Window(Runtime &rt) : rt_(rt), model_(rt.config().profile) {}

void
Window::begin(uint64_t now)
{
    stats0_ = rt_.stats();
    if (const auto *tempo = rt_.tempo())
        tempo0_ = tempo->counters();
    begin_ = now;
    lastSample_ = now;
    sample(now);
}

void
Window::sample(uint64_t now)
{
    // Sample-and-hold: the power read now stands for the interval
    // since the previous sample.
    const double watts = rt_.packagePower(model_);
    joules_ += watts * static_cast<double>(now - lastSample_) * 1e-9;
    lastSample_ = now;
    nextSample_ = now + kPowerSampleNs;
    if (const auto *tempo = rt_.tempo()) {
        const auto fastest = tempo->ladder().fastest();
        for (unsigned w = 0; w < rt_.numWorkers(); ++w) {
            ++workerSamples_;
            if (tempo->frequencyOf(w) < fastest)
                ++slowSamples_;
        }
    }
}

void
Window::end(uint64_t now)
{
    sample(now);
    nextSample_ = ~0ULL;
    end_ = now;
    stats1_ = rt_.stats();
    if (const auto *tempo = rt_.tempo())
        tempo1_ = tempo->counters();
}

void
Window::addLayerMetrics(Result &r, uint64_t ops) const
{
    auto d = [&](uint64_t RuntimeStats::*f) {
        return static_cast<double>(stats1_.*f - stats0_.*f);
    };
    auto t = [&](uint64_t hermes::core::TempoCounters::*f) {
        return static_cast<double>(tempo1_.*f - tempo0_.*f);
    };
    const double n = static_cast<double>(ops);
    const double executed = d(&RuntimeStats::executed);
    const double steals = d(&RuntimeStats::steals);
    const double failed_hunts = d(&RuntimeStats::failedSteals);
    const double fast = d(&RuntimeStats::injectFastPath);
    const double seconds = static_cast<double>(lengthNs()) * 1e-9;

    r.add("scheduler.tasks_per_op", ratio(executed, n), "count");
    r.add("inject_queue.fast_frac",
          ratio(fast, fast + d(&RuntimeStats::injectSpill)), "ratio");
    r.add("parking_lot.parks_per_op", ratio(d(&RuntimeStats::parks), n),
          "count");
    r.add("parking_lot.spurious_wake_frac",
          ratio(d(&RuntimeStats::spuriousWakes),
                d(&RuntimeStats::wakes)),
          "ratio");
    r.add("parking_lot.parked_frac",
          ratio(d(&RuntimeStats::parkedNanos),
                static_cast<double>(lengthNs()) * rt_.numWorkers()),
          "ratio");
    r.add("deque.steals_per_ktask", 1000.0 * ratio(steals, executed),
          "count");
    r.add("deque.steal_cas_retry_per_steal",
          ratio(d(&RuntimeStats::stealCasRetries), steals), "ratio");
    r.add("deque.pop_cas_loss_per_ktask",
          1000.0 * ratio(d(&RuntimeStats::popCasLosses), executed),
          "count");
    r.add("steal_policy.failed_hunt_frac",
          ratio(failed_hunts, failed_hunts + steals), "ratio");
    r.add("steal_policy.tasks_per_steal",
          ratio(d(&RuntimeStats::stolenTasks), steals), "ratio");
    r.add("power_model.watts_mean", ratio(joules_, seconds), "W");
    if (!rt_.tempo())
        return;
    r.add("tempo_controller.slow_residency",
          ratio(static_cast<double>(slowSamples_),
                static_cast<double>(workerSamples_)),
          "ratio");
    r.add("tempo_controller.downs_per_op",
          ratio(t(&hermes::core::TempoCounters::stealDowns)
                    + t(&hermes::core::TempoCounters::workloadDowns),
                n),
          "count");
    r.add("tempo_controller.ups_per_op",
          ratio(t(&hermes::core::TempoCounters::relayUps)
                    + t(&hermes::core::TempoCounters::workloadUps),
                n),
          "count");
}

void
addOpMetrics(Result &r, const std::vector<OpTimes> &ops,
             const Window &w, double setup_s)
{
    std::vector<uint64_t> sojourn, submit, warm_wait, cold_wait, late,
        service;
    for (const auto &op : ops) {
        sojourn.push_back(span(op.due, op.finish));
        submit.push_back(span(op.submitBegin, op.submitEnd));
        // From the submit call, not its return: a worker that is awake
        // often starts the body before submit() has returned.
        (op.cold ? cold_wait : warm_wait)
            .push_back(span(op.submitBegin, op.start));
        late.push_back(span(op.due, op.submitBegin));
        service.push_back(span(op.start, op.finish));
    }
    const double n = static_cast<double>(ops.size());
    const double seconds = static_cast<double>(w.lengthNs()) * 1e-9;
    const double joules_per_op = ratio(w.joules(), n);
    const double tail = sojournTail(sojourn);
    const double p50 = quantile(sojourn, 0.5);

    r.add("sojourn_p50_us", p50 * 1e-3, "us");
    r.add("sojourn_tail_us", tail * 1e-3, "us");
    r.add("ops_per_s", ratio(n, seconds), "1/s");
    r.add("joules_per_op", joules_per_op, "J");
    r.add("edp_js", joules_per_op * p50 * 1e-9, "J*s");
    r.add("setup_s", setup_s, "s");

    r.add("scheduler.submit_p50_ns", quantile(submit, 0.5), "ns");
    r.add("scheduler.submit_p99_ns", quantile(submit, 0.99), "ns");
    r.add("inject_queue.wait_p50_us", quantile(warm_wait, 0.5) * 1e-3,
          "us");
    r.add("inject_queue.wait_p99_us", quantile(warm_wait, 0.99) * 1e-3,
          "us");
    r.add("parking_lot.cold_submit_frac",
          ratio(static_cast<double>(cold_wait.size()), n), "ratio");
    if (!cold_wait.empty()) {
        r.add("parking_lot.wake_wait_p50_us",
              quantile(cold_wait, 0.5) * 1e-3, "us");
        r.add("parking_lot.wake_wait_p99_us",
              quantile(cold_wait, 0.99) * 1e-3, "us");
    }
    r.add("generator.late_p99_us", quantile(late, 0.99) * 1e-3, "us");
    r.add("generator.late_max_us", quantile(late, 1.0) * 1e-3, "us");
    r.add("body.service_p50_us", quantile(service, 0.5) * 1e-3, "us");
}

// ------------------------------------------------------ closed loop

ClosedLoopRun
runClosedLoop(Runtime &rt, Window &w, ClosedWorkload &wl,
              uint64_t measure_ns, unsigned traced_ops)
{
    ClosedLoopRun run;
    std::vector<hermes::runtime::SubmitHandle> handles;
    bool measuring = false;
    uint64_t due = nowNs();
    uint64_t phase_end = due + kWarmupNs;
    uint64_t trace_stride = 0; // 0: no op is traced
    uint64_t measured = 0;

    for (uint32_t op = 0;; ++op) {
        const bool traced = trace_stride != 0
            && measured % trace_stride == 0
            && run.tracedOps.size() < traced_ops;
        if (traced)
            run.tracedOps.push_back(op);

        OpTimes t;
        t.due = due;
        t.cold = rt.parkedWorkers() == rt.numWorkers();
        t.submitBegin = nowNs();
        // Handles are kept to the end: releasing one right after its
        // op finished could free the group while the finishing worker
        // is still inside TaskGroup::finish().
        handles.push_back(wl.issue(op, traced));
        t.submitEnd = nowNs();
        wl.whileRunning(op);
        while (!wl.finished())
            w.tick(nowNs());
        wl.collect(op, t);
        ++run.attempted;
        due = t.finish;

        const uint64_t now = nowNs();
        if (measuring) {
            run.ops.push_back(t);
            ++measured;
            if (now >= phase_end)
                break;
        } else if (now >= phase_end) {
            // Warm-up over: the window starts now, and its first op is
            // due now.
            const double warm_rate = static_cast<double>(op + 1)
                / static_cast<double>(now - (phase_end - kWarmupNs));
            const auto expected = static_cast<uint64_t>(
                warm_rate * static_cast<double>(measure_ns)) + 1;
            printPlan(run.attempted + expected);
            if (traced_ops > 0)
                trace_stride = std::max<uint64_t>(1, expected / traced_ops);
            measuring = true;
            w.begin(now);
            due = nowNs();
            phase_end = due + measure_ns;
        }
    }
    w.end(nowNs());
    waitAllParked(rt, 1'000'000'000);
    handles.clear();
    return run;
}

double
tracedSojournP50(const ClosedLoopRun &run)
{
    const uint64_t first_measured = run.attempted - run.ops.size();
    std::vector<uint64_t> sojourn;
    for (uint32_t op : run.tracedOps) {
        const OpTimes &t = run.ops[op - first_measured];
        sojourn.push_back(span(t.due, t.finish));
    }
    return quantile(sojourn, 0.5) * 1e-3;
}

} // namespace bench
