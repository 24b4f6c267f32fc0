/**
 * @file
 * paper_kernels: closed batch of passes over the paper's five PBBS
 * kernels — radixSort, sampleSort, KdTree + nearestNeighbors, Bvh +
 * castRays and convexHull — with HERMES tempo control on
 * (TempoPolicy::Unified) and ThrottleMode::PostTaskSpin, so a slower
 * tempo costs time. Every pass's outputs are checked on the driver
 * while the next pass runs.
 */

#include <algorithm>
#include <array>
#include <atomic>
#include <limits>
#include <memory>

#include "bench.hpp"
#include "workloads/data_gen.hpp"
#include "workloads/hull.hpp"
#include "workloads/knn.hpp"
#include "workloads/ray.hpp"
#include "workloads/sort_radix.hpp"
#include "workloads/sort_sample.hpp"

namespace bench {

namespace {

namespace wl = hermes::workloads;

constexpr size_t kScale = 500'000;
constexpr size_t kSampledQueries = 256;
constexpr std::array<SpanName, 5> kKernelSpans = {
    SpanName::Sort, SpanName::Compare, SpanName::Knn, SpanName::Ray,
    SpanName::Hull};
constexpr std::array<const char *, 5> kKernelNames = {
    "sort", "compare", "knn", "ray", "hull"};

/** Inputs at kScale, shaped like workloads::runWorkload's. */
struct Inputs
{
    std::vector<uint32_t> radixKeys, sampleKeys;
    std::vector<wl::Point2> knnPoints, knnQueries, hullPoints;
    std::vector<wl::Triangle> triangles;
    std::vector<wl::RayQuery> rays;

    explicit Inputs(uint64_t seed)
    {
        auto s = [seed](uint64_t k) { return mix64(seed * 8 + k); };
        radixKeys = wl::randomKeys(kScale, s(1));
        sampleKeys = wl::randomKeys(kScale, s(2));
        knnPoints = wl::randomPoints2(kScale, s(3));
        knnQueries = wl::randomPoints2(kScale / 4 + 16, s(4));
        triangles = wl::randomTriangles(kScale / 8 + 64, s(5));
        rays = wl::randomRays(kScale / 4 + 64, s(6));
        hullPoints = wl::randomPoints2(kScale, s(7));
    }
};

struct Outputs
{
    std::vector<uint32_t> radix, sample;
    std::vector<size_t> nearest, hits;
    std::vector<wl::Point2> hull;
};

/** Order-independent hash of a key multiset. */
uint64_t
multisetHash(const std::vector<uint32_t> &keys)
{
    uint64_t h = 0;
    for (uint32_t k : keys)
        h += mix64(k);
    return h;
}

double
dist2(const wl::Point2 &a, const wl::Point2 &b)
{
    const double dx = a.x - b.x, dy = a.y - b.y;
    return dx * dx + dy * dy;
}

/** Brute-force answers for the output checks, computed once. */
struct References
{
    uint64_t radixHash = 0, sampleHash = 0;
    std::vector<size_t> knnSample, raySample;
    std::vector<double> knnDist2, rayT; ///< rayT < 0: the ray misses
    std::vector<wl::Point2> extremes;   ///< min/max x and y

    References(const Inputs &in, uint64_t seed)
    {
        radixHash = multisetHash(in.radixKeys);
        sampleHash = multisetHash(in.sampleKeys);
        uint64_t state = mix64(seed ^ 0xc4ec4ec4ULL);
        for (size_t i = 0; i < kSampledQueries; ++i) {
            state = mix64(state);
            knnSample.push_back(state % in.knnQueries.size());
            state = mix64(state);
            raySample.push_back(state % in.rays.size());
        }
        for (size_t q : knnSample) {
            double best = std::numeric_limits<double>::max();
            for (const auto &p : in.knnPoints)
                best = std::min(best, dist2(p, in.knnQueries[q]));
            knnDist2.push_back(best);
        }
        for (size_t r : raySample) {
            double best = -1.0;
            for (const auto &t : in.triangles) {
                const double d = wl::intersect(in.rays[r], t);
                if (d > 0.0 && (best < 0.0 || d < best))
                    best = d;
            }
            rayT.push_back(best);
        }
        const auto &pts = in.hullPoints;
        auto by = [](auto key) {
            return [key](const wl::Point2 &a, const wl::Point2 &b) {
                return key(a) < key(b);
            };
        };
        const auto x = by([](const wl::Point2 &p) { return p.x; });
        const auto y = by([](const wl::Point2 &p) { return p.y; });
        extremes = {*std::min_element(pts.begin(), pts.end(), x),
                    *std::max_element(pts.begin(), pts.end(), x),
                    *std::min_element(pts.begin(), pts.end(), y),
                    *std::max_element(pts.begin(), pts.end(), y)};
    }
};

bool
checkOutputs(const Inputs &in, const References &ref, const Outputs &o)
{
    auto sorted_same = [](const std::vector<uint32_t> &v, size_t n,
                          uint64_t hash) {
        return v.size() == n && std::is_sorted(v.begin(), v.end())
            && multisetHash(v) == hash;
    };
    if (!sorted_same(o.radix, in.radixKeys.size(), ref.radixHash)
        || !sorted_same(o.sample, in.sampleKeys.size(), ref.sampleHash))
        return false;

    if (o.nearest.size() != in.knnQueries.size())
        return false;
    for (size_t i = 0; i < ref.knnSample.size(); ++i) {
        const size_t q = ref.knnSample[i];
        const size_t p = o.nearest[q];
        if (p >= in.knnPoints.size()
            || dist2(in.knnPoints[p], in.knnQueries[q]) != ref.knnDist2[i])
            return false;
    }

    if (o.hits.size() != in.rays.size())
        return false;
    for (size_t i = 0; i < ref.raySample.size(); ++i) {
        const size_t r = ref.raySample[i];
        const size_t h = o.hits[r];
        if (ref.rayT[i] < 0.0 ? h != SIZE_MAX
                              : h >= in.triangles.size()
                    || wl::intersect(in.rays[r], in.triangles[h])
                        != ref.rayT[i])
            return false;
    }

    // Convex, counter-clockwise, and through every extreme point.
    const auto &h = o.hull;
    if (h.size() < 3)
        return false;
    for (size_t i = 0; i < h.size(); ++i) {
        if (wl::orient(h[i], h[(i + 1) % h.size()], h[(i + 2) % h.size()])
            <= 0.0)
            return false;
    }
    for (const auto &e : ref.extremes) {
        if (std::none_of(h.begin(), h.end(), [&](const wl::Point2 &p) {
                return p.x == e.x && p.y == e.y;
            }))
            return false;
    }
    return true;
}

class PaperKernels final : public ClosedWorkload
{
  public:
    PaperKernels(Runtime &rt, uint64_t seed, Trace *trace)
        : rt_(rt), in_(seed), trace_(trace)
    {}

    void setReferences(const References *ref) { ref_ = ref; }
    const Inputs &inputs() const { return in_; }
    uint64_t failed() const { return failed_; }

    /** Per-kernel call times (ns) of op `op` onwards. */
    std::array<std::vector<uint64_t>, 5> kernelTimesFrom(uint32_t op) const
    {
        std::array<std::vector<uint64_t>, 5> out;
        for (size_t i = op; i < kernelNs_.size(); ++i)
            for (size_t k = 0; k < 5; ++k)
                out[k].push_back(kernelNs_[i][k]);
        return out;
    }

    hermes::runtime::SubmitHandle issue(uint32_t op, bool traced) override
    {
        done_.store(false, std::memory_order_relaxed);
        op_ = op;
        traced_ = traced;
        if (traced)
            passSpan_ = trace_->newId(trace_->driver());
        return rt_.submit([this] { pass(); });
    }

    bool finished() const override
    {
        return done_.load(std::memory_order_acquire);
    }

    void collect(uint32_t op, OpTimes &t) override
    {
        t.start = start_;
        t.finish = finish_;
        kernelNs_.push_back(lastKernelNs_);
        if (traced_)
            trace_->record(trace_->driver(), passSpan_, SpanName::Pass, op,
                           t.due, t.finish, 0);
        unchecked_ = &out_[op % 2];
    }

    /** Check the previous pass while this one runs: the two use
     * different output slots. */
    void whileRunning(uint32_t) override { checkPending(); }

    void checkPending()
    {
        if (unchecked_ && !checkOutputs(in_, *ref_, *unchecked_))
            ++failed_;
        unchecked_ = nullptr;
    }

  private:
    void pass()
    {
        start_ = nowNs();
        Outputs &o = out_[op_ % 2];
        o.radix = in_.radixKeys;
        o.sample = in_.sampleKeys;
        const auto kernels = std::array<std::function<void()>, 5>{
            [&] { wl::radixSort(rt_, o.radix); },
            [&] { wl::sampleSort(rt_, o.sample); },
            [&] {
                wl::KdTree tree(rt_, in_.knnPoints);
                o.nearest = wl::nearestNeighbors(rt_, tree, in_.knnQueries);
            },
            [&] {
                wl::Bvh bvh(rt_, in_.triangles);
                o.hits = wl::castRays(rt_, bvh, in_.rays);
            },
            [&] { o.hull = wl::convexHull(rt_, in_.hullPoints); },
        };
        for (size_t k = 0; k < kernels.size(); ++k) {
            const uint64_t s = nowNs();
            kernels[k]();
            const uint64_t e = nowNs();
            lastKernelNs_[k] = e - s;
            if (traced_)
                trace_->record(trace_->self(), kKernelSpans[k], op_, s, e,
                               passSpan_);
        }
        finish_ = nowNs();
        done_.store(true, std::memory_order_release);
    }

    Runtime &rt_;
    const Inputs in_;
    Trace *trace_;
    const References *ref_ = nullptr;
    Outputs out_[2];
    const Outputs *unchecked_ = nullptr;
    uint64_t failed_ = 0;
    std::vector<std::array<uint64_t, 5>> kernelNs_;

    // State of the pass in flight: written by the driver before
    // submit() and by the pass task before done_ is released.
    uint32_t op_ = 0;
    bool traced_ = false;
    uint64_t passSpan_ = 0;
    uint64_t start_ = 0;
    uint64_t finish_ = 0;
    std::array<uint64_t, 5> lastKernelNs_{};
    std::atomic<bool> done_{false};
};

} // namespace

Result
runPaperKernels(const Options &opt)
{
    const auto measure_ns = static_cast<uint64_t>(opt.seconds * 1e9);
    std::unique_ptr<Trace> trace;
    if (opt.trace)
        trace = std::make_unique<Trace>(workerCount(), 1 << 12, 1 << 12);

    std::unique_ptr<PaperKernels> pk;
    std::unique_ptr<Runtime> rt;
    const double setup_s = timeSetups(
        [&] {
            pk.reset();
            rt.reset();
        },
        [&] {
            auto cfg = baseConfig();
            cfg.enableTempo = true;
            cfg.tempo.policy = hermes::core::TempoPolicy::Unified;
            cfg.throttle = hermes::runtime::ThrottleMode::PostTaskSpin;
            rt = std::make_unique<Runtime>(cfg);
            pk = std::make_unique<PaperKernels>(*rt, opt.seed, trace.get());
        });
    const References ref(pk->inputs(), opt.seed);
    pk->setReferences(&ref);

    Window win(*rt);
    const uint64_t origin = nowNs();
    auto run = runClosedLoop(*rt, win, *pk, measure_ns,
                             opt.trace ? ~0u : 0);
    pk->checkPending();

    Result r;
    r.attempted = run.attempted;
    r.failed = pk->failed();
    addOpMetrics(r, run.ops, win, setup_s);
    win.addLayerMetrics(r, run.ops.size());
    auto kernel_ns = pk->kernelTimesFrom(
        static_cast<uint32_t>(run.attempted - run.ops.size()));
    for (size_t k = 0; k < kKernelNames.size(); ++k)
        r.add(std::string("workloads.") + kKernelNames[k] + "_p50_ms",
              quantile(kernel_ns[k], 0.5) * 1e-6, "ms");

    if (opt.trace) {
        pk.reset();
        rt.reset();
        r.add("trace.traced_p50_us", tracedSojournP50(run), "us");
        trace->writeChromeJson(opt.out + "/trace-" + opt.workload + ".json",
                               origin, [](uint32_t) { return true; });
    }
    return r;
}

} // namespace bench
