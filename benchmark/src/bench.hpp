/**
 * @file
 * Shared pieces of the hermes-bench driver: the clock, the metric
 * record, quantiles, the power sampler, the measured window, per-op
 * timestamps and the span trace.
 *
 * The driver measures the runtime only from outside: timestamps it
 * takes around its own calls into public functions, and deltas of
 * Runtime::stats() and TempoController::counters() over the measured
 * window. It includes no header from src/harness/, so refactors of the
 * scenario, serve and sweep layers cannot move the instrument.
 */

#ifndef HERMES_BENCH_BENCH_HPP
#define HERMES_BENCH_BENCH_HPP

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "energy/power_model.hpp"
#include "runtime/scheduler.hpp"

namespace bench {

using hermes::runtime::Runtime;
using hermes::runtime::RuntimeStats;

/** Monotonic nanoseconds (steady_clock). */
inline uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** splitmix64: derives every generated input from the seed. */
inline uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string out = ".";
};

/** One named measurement with its unit. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** What one run reports. */
struct Result
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<Metric> metrics;

    void add(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
};

/** Nearest-rank `q`-quantile of `v` (sorts `v`); 0 when empty. */
double quantile(std::vector<uint64_t> &v, double q);

/** Fixed run shape shared by every workload. */
constexpr uint64_t kWarmupNs = 1'000'000'000;  ///< unmeasured lead-in
constexpr uint64_t kPowerSampleNs = 1'000'000; ///< packagePower period
constexpr unsigned kSetupRepeats = 41;         ///< timed set-ups per run
/** Untimed set-ups first: the first few of a process take up to a
 * third longer than the rest. */
constexpr unsigned kSetupWarmups = 10;
/** Spin between timed set-ups, so that they spread over about two
 * seconds and a slow spell of the host holds only some of them. */
constexpr uint64_t kSetupGapNs = 50'000'000;
constexpr size_t kTailWindowOps = 1000;        ///< ops per tail window

/**
 * Tail of per-op sojourns given in due order. With at least two
 * windows of kTailWindowOps consecutive ops: the median over windows
 * of each window's p99 (ten ops lie beyond it), so that a host stall
 * of a few milliseconds moves one window, not the run. With fewer
 * ops: the highest percentile with ten ops beyond it, never below the
 * median.
 */
double sojournTail(const std::vector<uint64_t> &sojourn);

/**
 * Run `build` kSetupWarmups times back to back, then kSetupRepeats
 * times kSetupGapNs apart, calling the untimed `teardown` before each,
 * and return the median time of the last kSetupRepeats in seconds.
 * `build` constructs the runtime and generates the inputs and
 * schedule.
 */
double timeSetups(const std::function<void()> &teardown,
                  const std::function<void()> &build);

/** Number of runtime workers: one core is left to the driver. */
unsigned workerCount();

/** Runtime configuration shared by every workload: the host profile,
 * static pinning of the workers to cores 0..n-2. The driver pins
 * itself to the last core. */
hermes::runtime::RuntimeConfig baseConfig();

/** Spin until every worker is parked or `timeout_ns` passes. A parked
 * worker is outside every task body and every TaskGroup::finish(). */
bool waitAllParked(const Runtime &rt, uint64_t timeout_ns);

/**
 * Measured window over one runtime. The driver calls tick() from its
 * own pacing and polling loops — there is no sampler thread — and each
 * tick samples Runtime::packagePower() once per kPowerSampleNs,
 * integrating joules, together with each worker's tempo (the share of
 * worker samples below the fastest rung). begin() and end() snapshot
 * the scheduler and tempo counters for the per-layer deltas.
 */
class Window
{
  public:
    explicit Window(Runtime &rt);

    void begin(uint64_t now);
    void tick(uint64_t now)
    {
        if (now >= nextSample_)
            sample(now);
    }
    void end(uint64_t now);

    uint64_t beginNs() const { return begin_; }
    uint64_t lengthNs() const { return end_ - begin_; }
    double joules() const { return joules_; }

    /** Append the counter- and power-derived layer metrics. */
    void addLayerMetrics(Result &r, uint64_t ops) const;

  private:
    void sample(uint64_t now);

    Runtime &rt_;
    hermes::energy::PowerModel model_;
    uint64_t begin_ = 0;
    uint64_t end_ = 0;
    uint64_t nextSample_ = ~0ULL;
    uint64_t lastSample_ = 0;
    double joules_ = 0.0;
    uint64_t workerSamples_ = 0;
    uint64_t slowSamples_ = 0;
    RuntimeStats stats0_, stats1_;
    hermes::core::TempoCounters tempo0_, tempo1_;
};

/**
 * Timestamps of one op: a request, a fork-join round, or a pass over
 * the paper kernels. A closed-loop op is due when the previous one
 * finished.
 */
struct OpTimes
{
    uint64_t due = 0;
    uint64_t submitBegin = 0;
    uint64_t submitEnd = 0;
    uint64_t start = 0;  ///< body start, taken by the body
    uint64_t finish = 0; ///< body end, taken by the body
    bool cold = false;   ///< every worker was parked at submit
};

/** Add the end-to-end metrics and the driver-side layer metrics
 * (submit, queue wait, generator, body) over measured ops. */
void addOpMetrics(Result &r, const std::vector<OpTimes> &ops,
                  const Window &w, double setup_s);

/** Announce the ops a run will attempt, so that a run that dies
 * midway can be charged with them. */
void printPlan(uint64_t ops);

/**
 * A closed-loop workload: one op in flight, submitted through
 * Runtime::submit() so the driver stays free to sample power while it
 * runs.
 */
class ClosedWorkload
{
  public:
    virtual ~ClosedWorkload() = default;

    /** Submit op `op`; `traced` asks it to record spans. */
    virtual hermes::runtime::SubmitHandle issue(uint32_t op,
                                                bool traced) = 0;

    /** Whether the op in flight has finished (acquire). */
    virtual bool finished() const = 0;

    /** Fill in the body start and finish of the op that just
     * finished and check its output (or queue the check). */
    virtual void collect(uint32_t op, OpTimes &t) = 0;

    /** Driver work to overlap with op `op` while it runs. */
    virtual void whileRunning(uint32_t op) { (void)op; }
};

/** What a closed loop ran. */
struct ClosedLoopRun
{
    std::vector<OpTimes> ops;        ///< measured ops
    uint64_t attempted = 0;          ///< warm-up and measured ops
    std::vector<uint32_t> tracedOps; ///< ops issued with traced=true
};

/**
 * Run `wl` for kWarmupNs, then measure for `measure_ns`: op k+1 is due
 * when op k finished. When `traced_ops` > 0, that many measured ops,
 * spread over the window at the warm-up's rate, are issued traced.
 * Returns after every worker has parked and every handle is released.
 */
ClosedLoopRun runClosedLoop(Runtime &rt, Window &w, ClosedWorkload &wl,
                            uint64_t measure_ns, unsigned traced_ops);

/** Median sojourn (us) of the measured ops that ran traced: the
 * traced side of trace.overhead_frac. */
double tracedSojournP50(const ClosedLoopRun &run);

// ------------------------------------------------------------ trace

enum class SpanName : uint8_t
{
    Request, Submit, Queue, Body,
    Round, Spawn, Wait, Leaf,
    Pass, Sort, Compare, Knn, Ray, Hull,
};

/** One span. Spans of one op share `op`; `parent` is the id of the
 * span that caused it (0 for none). */
struct Span
{
    uint64_t start;
    uint64_t end;
    uint64_t id;
    uint64_t parent;
    uint32_t op;
    SpanName name;
};

/**
 * Per-thread span buffers, allocated and touched at set-up so that
 * recording never allocates or faults. While the runtime runs, each
 * buffer is written only by its owner thread (worker w at index w,
 * the driver at index `workers`); spans past a buffer's capacity are
 * dropped and counted. Read only after the runtime has been destroyed
 * (its threads joined).
 */
class Trace
{
  public:
    Trace(unsigned workers, size_t worker_capacity,
          size_t driver_capacity);

    /** Buffer index of the calling thread. */
    unsigned self() const;

    /** Index of the driver's buffer. */
    unsigned driver() const { return driver_; }

    /** Fresh span id, unique across threads. */
    uint64_t newId(unsigned t)
    {
        return (uint64_t{t + 1} << 48) | buffers_[t]->nextId++;
    }

    /** Record a span with an id from newId(). */
    void record(unsigned t, uint64_t id, SpanName name, uint32_t op,
                uint64_t start, uint64_t end, uint64_t parent);

    /** Record a span under a fresh id; returns the id. */
    uint64_t record(unsigned t, SpanName name, uint32_t op,
                    uint64_t start, uint64_t end, uint64_t parent)
    {
        const uint64_t id = newId(t);
        record(t, id, name, op, start, end, parent);
        return id;
    }

    uint64_t dropped() const;

    /** Self time (ns) of every span named `n`: its duration minus the
     * part its same-thread child spans cover. */
    std::vector<uint64_t> selfTimes(SpanName n) const;

    /** Durations (ns) of every span named `n`. */
    std::vector<uint64_t> durations(SpanName n) const;

    /** Write the spans of ops accepted by `keep` as Chrome trace-event
     * JSON, timestamps relative to `origin`. */
    bool writeChromeJson(const std::string &path, uint64_t origin,
                         const std::function<bool(uint32_t)> &keep)
        const;

  private:
    struct alignas(64) Buffer
    {
        std::vector<Span> spans; ///< spans[0, used) are recorded
        size_t used = 0;
        uint64_t nextId = 1;
        uint64_t dropped = 0;
    };

    unsigned driver_;
    std::vector<std::unique_ptr<Buffer>> buffers_;
};

// -------------------------------------------------------- workloads

Result runServe(const Options &opt, double rate_per_sec);
Result runForkJoin(const Options &opt);
Result runPaperKernels(const Options &opt);

} // namespace bench

#endif // HERMES_BENCH_BENCH_HPP
