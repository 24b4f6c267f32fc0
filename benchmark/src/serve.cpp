/**
 * @file
 * serve_sparse / serve_steady: open-loop Poisson arrivals submitted
 * through Runtime::submit() by the spin-paced driver. Each request
 * body spins kBodyNs; latency is timed from the request's due time, so
 * a late generator or a stalled runtime charges every request behind
 * it (no coordinated omission).
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>

#include "bench.hpp"

namespace bench {

namespace {

constexpr uint64_t kBodyNs = 20'000;
/** Release finished handles only in arrival gaps at least this long,
 * and at most kReleaseBatch at a time, so the generator stays on
 * time. */
constexpr uint64_t kReleaseSlackNs = 40'000;
constexpr size_t kReleaseBatch = 32;
/** Requests written to the trace file (four spans each). */
constexpr size_t kTracedRequests = 20'000;

/** Written by the worker that runs the request. */
struct Request
{
    uint64_t start = 0;
    uint64_t finish = 0;
    uint32_t worker = 0;
    std::atomic<uint32_t> runs{0};
};

/** Fill `offsets` with the arrival offsets (ns from the schedule
 * origin) of a Poisson process at `rate` per second over
 * `length_ns`. */
void
poissonSchedule(uint64_t seed, double rate, uint64_t length_ns,
                std::vector<uint64_t> &offsets)
{
    offsets.clear();
    uint64_t state = mix64(seed ^ 0x5e7e5e7eULL);
    double t = 0.0;
    for (;;) {
        state = mix64(state);
        const double u = static_cast<double>(state >> 11) * 0x1.0p-53;
        t += -std::log1p(-u) / rate * 1e9;
        if (t >= static_cast<double>(length_ns))
            return;
        offsets.push_back(static_cast<uint64_t>(t));
    }
}

} // namespace

Result
runServe(const Options &opt, double rate)
{
    const auto measure_ns = static_cast<uint64_t>(opt.seconds * 1e9);
    std::unique_ptr<Runtime> rt;
    std::vector<uint64_t> offsets;
    std::unique_ptr<Request[]> reqs;
    std::vector<OpTimes> ops;
    std::vector<hermes::runtime::SubmitHandle> handles;

    // Every set-up regenerates the same schedule into the same
    // buffers, so only the first one pays for page faults.
    const double setup_s = timeSetups(
        [&] { rt.reset(); },
        [&] {
            rt = std::make_unique<Runtime>(baseConfig());
            poissonSchedule(opt.seed, rate, kWarmupNs + measure_ns,
                            offsets);
            if (!reqs)
                reqs = std::make_unique<Request[]>(offsets.size());
            ops.assign(offsets.size(), OpTimes{});
            handles.resize(offsets.size());
        });

    const size_t n = offsets.size();
    const size_t first_measured = static_cast<size_t>(
        std::lower_bound(offsets.begin(), offsets.end(), kWarmupNs)
        - offsets.begin());
    const unsigned workers = rt->numWorkers();
    printPlan(n);

    // A handle may be dropped only once the worker that ran its
    // request has left TaskGroup::finish(). A parked worker has, so
    // a finished prefix observed before an all-parked reading is safe
    // to release.
    size_t released = 0;
    auto release_finished = [&](size_t submitted) {
        size_t k = released;
        const size_t limit = std::min(submitted, released + kReleaseBatch);
        while (k < limit
               && reqs[k].runs.load(std::memory_order_acquire) != 0)
            ++k;
        if (k > released && rt->parkedWorkers() == workers) {
            for (size_t j = released; j < k; ++j)
                handles[j] = {};
            released = k;
        }
    };

    Window win(*rt);
    const uint64_t origin = nowNs() + 1'000'000;
    const uint64_t window_begin = origin + kWarmupNs;
    bool begun = false;
    for (size_t i = 0; i < n; ++i) {
        const uint64_t due = origin + offsets[i];
        for (uint64_t now = nowNs(); now < due; now = nowNs()) {
            if (!begun && now >= window_begin) {
                win.begin(now);
                begun = true;
            }
            win.tick(now);
            if (due - now > kReleaseSlackNs)
                release_finished(i);
        }
        if (!begun && i == first_measured) {
            win.begin(nowNs());
            begun = true;
        }
        Request *r = &reqs[i];
        OpTimes &t = ops[i];
        t.due = due;
        t.cold = rt->parkedWorkers() == workers;
        t.submitBegin = nowNs();
        handles[i] = rt->submit([r] {
            const uint64_t start = nowNs();
            r->start = start;
            r->worker = Runtime::currentWorker();
            while (nowNs() < start + kBodyNs) {
            }
            r->finish = nowNs();
            r->runs.fetch_add(1, std::memory_order_release);
        });
        t.submitEnd = nowNs();
    }
    for (size_t i = 0; i < n; ++i)
        while (reqs[i].runs.load(std::memory_order_acquire) == 0)
            win.tick(nowNs());
    win.end(nowNs());
    waitAllParked(*rt, 1'000'000'000);
    handles.clear();

    Result r;
    r.attempted = n;
    for (size_t i = 0; i < n; ++i) {
        if (reqs[i].runs.load(std::memory_order_relaxed) != 1)
            ++r.failed;
        ops[i].start = reqs[i].start;
        ops[i].finish = reqs[i].finish;
    }
    std::vector<OpTimes> measured(ops.begin() + first_measured,
                                  ops.end());
    addOpMetrics(r, measured, win, setup_s);
    win.addLayerMetrics(r, measured.size());

    if (opt.trace) {
        // Every span comes from timestamps the run takes with or
        // without --trace, and they are written after the run, so a
        // traced run measures the same as an untraced one.
        Trace trace(workers, kTracedRequests, 3 * kTracedRequests);
        const size_t stride =
            std::max<size_t>(1, measured.size() / kTracedRequests);
        const unsigned drv = trace.driver();
        for (size_t i = first_measured; i < n; i += stride) {
            const OpTimes &t = ops[i];
            const auto op = static_cast<uint32_t>(i);
            const uint64_t req = trace.record(drv, SpanName::Request, op,
                                              t.due, t.finish, 0);
            trace.record(drv, SpanName::Submit, op, t.submitBegin,
                         t.submitEnd, req);
            trace.record(drv, SpanName::Queue, op, t.submitEnd,
                         std::max(t.submitEnd, t.start), req);
            trace.record(std::min(reqs[i].worker, workers - 1),
                         SpanName::Body, op, t.start, t.finish, req);
        }
        trace.writeChromeJson(opt.out + "/trace-" + opt.workload + ".json",
                              origin, [](uint32_t) { return true; });
    }
    return r;
}

} // namespace bench
