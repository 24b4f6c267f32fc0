/**
 * @file
 * fork_join_fine: closed batch of rounds. Each round is a binary
 * TaskGroup split, written out here rather than through parallelFor so
 * that spans can wrap TaskGroup::run and TaskGroup::wait, down to
 * kLeaves leaves of about half a microsecond each. The leaf results
 * are summed back up the tree and checked against the serial sum.
 */

#include <atomic>
#include <deque>
#include <memory>

#include "bench.hpp"

namespace bench {

namespace {

using hermes::runtime::TaskGroup;

constexpr uint32_t kLeaves = 1u << 16;
/** Leaf length. Leaves spin on the clock, as request bodies do, so a
 * round's time beyond kLeaves * kLeafNs / workers is scheduler cost,
 * not the host's current clock speed. */
constexpr uint64_t kLeafNs = 500;
/** Rounds recorded in the trace buffers, spread over the window;
 * the first of them is written to the trace file. */
constexpr unsigned kTracedRounds = 4;
/** Groups preallocated per worker: deeper than the tree plus the
 * nesting that helping in TaskGroup::wait() adds in practice. */
constexpr unsigned kGroupsPerWorker = 64;

uint64_t
leafWork(uint64_t x)
{
    const uint64_t end = nowNs() + kLeafNs;
    while (nowNs() < end) {
    }
    return mix64(x);
}

class ForkJoin final : public ClosedWorkload
{
  public:
    ForkJoin(Runtime &rt, std::vector<uint64_t> inputs, Trace *trace)
        : rt_(rt), inputs_(std::move(inputs)), trace_(trace)
    {
        for (unsigned w = 0; w < rt.numWorkers(); ++w) {
            stacks_.push_back(std::make_unique<GroupStack>());
            for (unsigned i = 0; i < kGroupsPerWorker; ++i)
                stacks_.back()->groups.emplace_back(rt);
        }
    }

    void setExpected(uint64_t sum) { expected_ = sum; }
    uint64_t failed() const { return failed_; }

    hermes::runtime::SubmitHandle issue(uint32_t op, bool traced) override
    {
        done_.store(false, std::memory_order_relaxed);
        op_ = op;
        traced_ = traced;
        if (traced)
            roundSpan_ = trace_->newId(trace_->driver());
        return rt_.submit([this] {
            start_ = nowNs();
            sum_ = node(0, kLeaves);
            finish_ = nowNs();
            done_.store(true, std::memory_order_release);
        });
    }

    bool finished() const override
    {
        return done_.load(std::memory_order_acquire);
    }

    void collect(uint32_t op, OpTimes &t) override
    {
        t.start = start_;
        t.finish = finish_;
        if (sum_ != expected_)
            ++failed_;
        if (traced_)
            trace_->record(trace_->driver(), roundSpan_, SpanName::Round,
                           op, t.due, t.finish, 0);
    }

  private:
    /**
     * The groups a worker's recursion would keep on its stack, kept
     * instead in a per-worker LIFO whose slots only ever hold live
     * TaskGroups. A worker returning from TaskGroup::wait() may reuse
     * a stack slot while the worker that finished the group's last
     * task is still inside TaskGroup::finish() on it (README.md,
     * "Known seed failure"); a slot here is reused only as a
     * TaskGroup, which that late finish() touches harmlessly.
     */
    struct alignas(64) GroupStack
    {
        std::deque<TaskGroup> groups;
        size_t depth = 0;
    };

    uint64_t node(uint32_t lo, uint32_t hi)
    {
        if (hi - lo == 1) {
            if (!traced_)
                return leafWork(inputs_[lo]);
            const uint64_t s = nowNs();
            const uint64_t v = leafWork(inputs_[lo]);
            trace_->record(trace_->self(), SpanName::Leaf, op_, s,
                           nowNs(), roundSpan_);
            return v;
        }
        GroupStack &stack = *stacks_[Runtime::currentWorker()];
        if (stack.depth == stack.groups.size())
            stack.groups.emplace_back(rt_);
        TaskGroup &g = stack.groups[stack.depth++];
        const uint32_t mid = lo + (hi - lo) / 2;
        uint64_t right = 0;
        auto later = [this, &right, mid, hi] { right = node(mid, hi); };
        uint64_t s = traced_ ? nowNs() : 0;
        g.run(later);
        if (traced_)
            trace_->record(trace_->self(), SpanName::Spawn, op_, s,
                           nowNs(), roundSpan_);
        const uint64_t left = node(lo, mid);
        s = traced_ ? nowNs() : 0;
        g.wait();
        if (traced_)
            trace_->record(trace_->self(), SpanName::Wait, op_, s,
                           nowNs(), roundSpan_);
        --stack.depth;
        return left + right;
    }

    Runtime &rt_;
    std::vector<uint64_t> inputs_;
    Trace *trace_;
    std::vector<std::unique_ptr<GroupStack>> stacks_; ///< by worker
    uint64_t expected_ = 0;
    uint64_t failed_ = 0;

    // State of the round in flight: written by the driver before
    // submit() and by the root task before done_ is released.
    uint32_t op_ = 0;
    bool traced_ = false;
    uint64_t roundSpan_ = 0;
    uint64_t start_ = 0;
    uint64_t finish_ = 0;
    uint64_t sum_ = 0;
    std::atomic<bool> done_{false};
};

std::vector<uint64_t>
leafInputs(uint64_t seed)
{
    std::vector<uint64_t> in(kLeaves);
    uint64_t state = mix64(seed ^ 0xf0f0f0f0ULL);
    for (auto &x : in)
        x = state = mix64(state);
    return in;
}

} // namespace

Result
runForkJoin(const Options &opt)
{
    const auto measure_ns = static_cast<uint64_t>(opt.seconds * 1e9);
    // The trace buffers and the reference sum are the benchmark's
    // own; they stay out of setup_s. A traced round records about
    // 3 * kLeaves spans, spread over the workers.
    std::unique_ptr<Trace> trace;
    if (opt.trace)
        trace = std::make_unique<Trace>(
            workerCount(), 3 * kLeaves * kTracedRounds / 2, kTracedRounds);
    uint64_t expected = 0;
    for (uint64_t x : leafInputs(opt.seed))
        expected += mix64(x);

    std::unique_ptr<ForkJoin> fj;
    std::unique_ptr<Runtime> rt;
    const double setup_s = timeSetups(
        [&] {
            fj.reset();
            rt.reset();
        },
        [&] {
            rt = std::make_unique<Runtime>(baseConfig());
            fj = std::make_unique<ForkJoin>(*rt, leafInputs(opt.seed),
                                            trace.get());
        });
    fj->setExpected(expected);

    Window win(*rt);
    const uint64_t origin = nowNs();
    auto run = runClosedLoop(*rt, win, *fj, measure_ns,
                             opt.trace ? kTracedRounds : 0);

    Result r;
    r.attempted = run.attempted;
    r.failed = fj->failed();
    addOpMetrics(r, run.ops, win, setup_s);
    win.addLayerMetrics(r, run.ops.size());

    if (opt.trace) {
        fj.reset();
        rt.reset();
        const double rounds = static_cast<double>(run.tracedOps.size());
        const auto spawn = trace->durations(SpanName::Spawn);
        double spawn_sum = 0.0;
        for (uint64_t d : spawn)
            spawn_sum += static_cast<double>(d);
        double wait_self = 0.0;
        for (uint64_t self : trace->selfTimes(SpanName::Wait))
            wait_self += static_cast<double>(self);
        r.add("task_group.spawn_mean_ns",
              spawn.empty() ? 0.0
                            : spawn_sum / static_cast<double>(spawn.size()),
              "ns");
        r.add("task_group.wait_self_us",
              rounds > 0 ? wait_self / rounds * 1e-3 : 0.0, "us");
        r.add("trace.dropped_spans", static_cast<double>(trace->dropped()),
              "count");
        r.add("trace.traced_p50_us", tracedSojournP50(run), "us");
        const uint32_t written =
            run.tracedOps.empty() ? ~0u : run.tracedOps.front();
        trace->writeChromeJson(
            opt.out + "/trace-" + opt.workload + ".json", origin,
            [written](uint32_t op) { return op == written; });
    }
    return r;
}

} // namespace bench
