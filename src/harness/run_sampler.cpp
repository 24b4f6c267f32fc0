#include "harness/run_sampler.hpp"

#include <chrono>

#include "runtime/scheduler.hpp"
#include "util/assert.hpp"
#include "util/time.hpp"

namespace hermes::harness {

RunSampler::RunSampler(runtime::Runtime &rt,
                       const energy::PowerModel &model, double sampleHz,
                       Hook hook)
    : rt_(rt), model_(model), hook_(std::move(hook)),
      periodNanos_(sampleHz > 0.0
                       ? static_cast<uint64_t>(1e9 / sampleHz)
                       : 0),
      t0Nanos_(util::nowNanos())
{
    HERMES_ASSERT(periodNanos_ > 0, "sample rate must be positive");
    samples_.push_back(takeRow(t0Nanos_));
    thread_ = std::thread([this] { run(); });
}

RunSampler::~RunSampler()
{
    stop();
}

void
RunSampler::stop()
{
    uint64_t stop_nanos = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopping_)
            return;
        stopping_ = true;
        // Read under the lock, as every row's time is: each row the
        // thread stores is older than this, so the last interval of
        // the integral is never negative.
        stop_nanos = util::nowNanos();
    }
    wake_.notify_one();
    thread_.join();
    const RunSample &last = samples_.back();
    joules_ += last.packageWatts
        * (static_cast<double>(stop_nanos - t0Nanos_) / 1e9
           - last.tSec);
}

RunSample
RunSampler::takeRow(uint64_t nowNanos) const
{
    RunSample row;
    row.tSec = static_cast<double>(nowNanos - t0Nanos_) / 1e9;
    const runtime::RuntimeStats stats = rt_.stats();
    row.executed = stats.executed;
    row.steals = stats.steals;
    row.injectPending = rt_.injectTelemetry().pending;
    row.parkedWorkers = rt_.parkedWorkers();
    row.packageWatts = rt_.packagePower(model_);
    return row;
}

void
RunSampler::run()
{
    using clock = std::chrono::steady_clock;
    // util::nowNanos() reads this clock, so the schedule is anchored
    // at the construction row.
    auto next = clock::time_point(
        std::chrono::duration_cast<clock::duration>(
            std::chrono::nanoseconds(t0Nanos_)));
    const auto period = std::chrono::duration_cast<clock::duration>(
        std::chrono::nanoseconds(periodNanos_));
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        next += period;
        if (wake_.wait_until(lock, next, [this] { return stopping_; }))
            return;
        RunSample row = takeRow(util::nowNanos());
        lock.unlock();
        if (hook_)
            hook_(row);
        lock.lock();
        const RunSample &prev = samples_.back();
        joules_ += prev.packageWatts * (row.tSec - prev.tSec);
        samples_.push_back(row);
    }
}

} // namespace hermes::harness
