/**
 * @file
 * The one thread that samples a run.
 *
 * Emulates the paper's measurement rig (current meters -> NI DAQ ->
 * LabVIEW at 100 samples/s, docs/ENERGY_MODEL.md): a RunSampler takes
 * a row of runtime state and modeled package power at construction
 * and then one every `1/sampleHz` seconds until stop(). The rows are
 * the run's time series (events.jsonl), and the energy is their
 * integral: each row's power is held until the next row, and the last
 * row's power until stop(). A 15 ms run sampled at 100 Hz is thus
 * charged for 15 ms, not for one or two whole periods.
 *
 * An optional hook runs on the sampler thread for every periodic row
 * (not the construction row) before the row is stored; the serve
 * driver uses it as its chaos clock and stall watchdog.
 */

#ifndef HERMES_HARNESS_RUN_SAMPLER_HPP
#define HERMES_HARNESS_RUN_SAMPLER_HPP

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "energy/power_model.hpp"

namespace hermes::runtime {
class Runtime;
}

namespace hermes::harness {

/** One sampled row of a run: events.jsonl has one line per row. */
struct RunSample
{
    double tSec = 0.0;          ///< seconds since the sampler started
    uint64_t executed = 0;      ///< cumulative executed tasks
    uint64_t steals = 0;        ///< cumulative successful steals
    size_t injectPending = 0;   ///< inject backlog at sample time
    unsigned parkedWorkers = 0; ///< workers parked at sample time
    double packageWatts = 0.0;  ///< modeled package power
    /** Workers the serve watchdog currently suspects stalled (set
     * by its hook; emitted only when faults are enabled). */
    unsigned stalledWorkers = 0;
};

/** Background sampler of one run: the time series and its joules. */
class RunSampler
{
  public:
    /** Called on the sampler thread with each periodic row before it
     * is stored; may edit the row. Must not throw. */
    using Hook = std::function<void(RunSample &)>;

    /**
     * Take the first row now and start sampling.
     *
     * @param rt runtime to sample; must outlive the sampler
     * @param model power model turning runtime state into watts
     * @param sampleHz rows per second after the first (paper: 100)
     * @param hook optional per-row hook for periodic rows
     */
    RunSampler(runtime::Runtime &rt, const energy::PowerModel &model,
               double sampleHz, Hook hook = nullptr);

    /** Stops the sampler if stop() was not called. */
    ~RunSampler();

    RunSampler(const RunSampler &) = delete;
    RunSampler &operator=(const RunSampler &) = delete;

    /** End the run: read the stop time, wake the sampler thread and
     * join it without waiting out the current period. A second call
     * does nothing. */
    void stop();

    /** The rows taken, oldest first. Read only after stop(). */
    const std::vector<RunSample> &samples() const { return samples_; }

    /** Joules from the first row to stop(), each row's power held
     * until the next row. Read only after stop(). */
    double joules() const { return joules_; }

  private:
    RunSample takeRow(uint64_t nowNanos) const;
    void run();

    runtime::Runtime &rt_;
    const energy::PowerModel model_;
    const Hook hook_;
    const uint64_t periodNanos_;
    const uint64_t t0Nanos_;

    std::mutex mutex_;
    std::condition_variable wake_;
    bool stopping_ = false;          ///< guarded by mutex_
    std::vector<RunSample> samples_; ///< appended under mutex_
    double joules_ = 0.0;            ///< accumulated under mutex_

    std::thread thread_;
};

} // namespace hermes::harness

#endif // HERMES_HARNESS_RUN_SAMPLER_HPP
