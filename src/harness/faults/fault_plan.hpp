/**
 * @file
 * hermes-chaos: deterministic, seeded fault planning.
 *
 * The serving stack's healthy path is byte-replayable per seed
 * (arrivals.hpp); this layer extends the same discipline to the
 * failure path. A FaultPlan is pure data drawn from its own
 * decorrelated util::mix64 streams, so enabling faults — or changing
 * any fault probability — cannot move an arrival time, a request
 * seed, or an MMPP modulation draw by even one tick. The plan is
 * computed up front from (seed, request count, FaultConfig), written
 * to `faults.csv` in the evidence bundle, and byte-identical across
 * runs with the same seed.
 *
 * Fault sites (see docs/RESILIENCE.md):
 *  - request-body exception: attempt i of request r throws
 *    InjectedFault with probability `failProb` (drawn per attempt
 *    from request r's private stream, so a request's fate is fixed
 *    before the run starts);
 *  - straggler inflation: with probability `stragglerProb` a
 *    request's service time is stretched to `stragglerFactor` x its
 *    measured kernel time;
 *  - worker stall: one chosen worker naps `stall.durationMs` at
 *    t = `stall.atSec` (scheduled by the serve sampler thread, which
 *    doubles as the watchdog that detects it);
 *  - forced inject-ring spill: the scenario layer shrinks the inject
 *    ring's shard capacity so submissions exercise the mutex
 *    spillover path under load.
 *
 * Stream layout: request r draws from stream `kFaultStreamTag + r`,
 * far above the arrival streams (0, 1, 2+i) and the MMPP modulation
 * stream (0x4d4d5050 << 32, "MMPP"); retry backoff jitter for
 * (request r, attempt a) derives from the request's fault stream
 * seed mixed with `kBackoffStreamTag + a`. Within a request stream
 * the straggler coin is always flipped first, then the per-attempt
 * failure coins — so changing `failProb` never moves a straggler
 * decision.
 */

#ifndef HERMES_HARNESS_FAULTS_FAULT_PLAN_HPP
#define HERMES_HARNESS_FAULTS_FAULT_PLAN_HPP

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace hermes::harness::faults {

/// Stream tag for per-request fault draws ("CHAO" << 32); request r
/// uses util::mix64(seed, kFaultStreamTag + r).
inline constexpr uint64_t kFaultStreamTag = 0x4348414fULL << 32;

/// Stream tag for retry-backoff jitter ("BKOF" << 32); attempt a of
/// request r uses util::mix64(requestStream(r), kBackoffStreamTag + a).
inline constexpr uint64_t kBackoffStreamTag = 0x424b4f46ULL << 32;

/// The exception type thrown by injected request-body failures. The
/// serve driver's retry wrapper catches exactly this type; anything
/// else escaping a request kernel is a real bug and still propagates
/// through the TaskGroup exception channel.
struct InjectedFault : std::runtime_error {
    InjectedFault() : std::runtime_error("hermes-chaos injected fault") {}
};

/// Scheduled stall of one worker: worker `worker` naps `durationMs`
/// once, at `atSec` into the run. worker < 0 disables the site.
struct StallSpec {
    int32_t worker = -1;
    double atSec = 0.0;
    double durationMs = 0.0;

    bool active() const { return worker >= 0 && durationMs > 0.0; }
};

/**
 * Everything hermes-chaos can do to a serve run. `enabled` gates the
 * whole layer: when false the serve driver takes the exact pre-chaos
 * path and the bundle carries no chaos artifact (no faults.csv, no
 * outcome counters in run.json, no stalled_workers in events.jsonl).
 */
struct FaultConfig {
    bool enabled = false;

    // -- fault sites ---------------------------------------------------
    double failProb = 0.0;       ///< per-attempt injected-exception prob
    double stragglerProb = 0.0;  ///< per-request straggler prob
    double stragglerFactor = 4.0; ///< service-time inflation (x)
    StallSpec stall;             ///< scheduled worker stall
    bool forceSpill = false;     ///< shrink inject ring => mutex spill

    // -- request lifecycle ---------------------------------------------
    double deadlineMs = 0.0;     ///< 0 = no deadline
    uint32_t maxRetries = 0;     ///< retries after the first attempt
    double retryBackoffMs = 0.1; ///< backoff base (doubles per attempt)
};

/**
 * The precomputed fate of one request. `failAttempts` is how many
 * leading attempts throw InjectedFault: 0 = clean first try,
 * 1..maxRetries = retried-ok (if the deadline holds),
 * maxRetries + 1 = permanent failure (every attempt throws).
 */
struct RequestFault {
    uint32_t failAttempts = 0;
    bool straggler = false;

    bool faulted() const { return failAttempts > 0 || straggler; }
    bool operator==(const RequestFault &o) const
    {
        return failAttempts == o.failAttempts && straggler == o.straggler;
    }
};

/** A full per-request fault schedule: pure data, replayable per seed. */
struct FaultPlan {
    FaultConfig config;
    std::vector<RequestFault> requests; ///< one per arrival, in order

    /// Count of requests with any planned fault (faults.csv rows).
    uint64_t faultedCount() const;
    /// FNV-1a over the planned rows; a compact determinism fingerprint.
    uint64_t hash() const;
};

/**
 * Draw the fault plan for `numRequests` arrivals. Pure function of
 * its arguments; returns an empty request vector when
 * `config.enabled` is false. `seed` is the same scenario seed the
 * arrival schedule uses — decorrelation comes from the stream tags,
 * not from a second seed knob.
 */
FaultPlan generateFaultPlan(const FaultConfig &config, uint64_t seed,
                            size_t numRequests);

/**
 * Deterministic backoff before retry attempt `attempt` (0-based: the
 * delay between attempt `attempt` failing and attempt `attempt` + 1
 * starting) of request `index`: retryBackoffMs x 2^attempt, jittered
 * by a uniform [0.5, 1.5) factor from the request's backoff stream.
 * Capped at 1 s so a misconfigured plan cannot wedge a worker.
 */
uint64_t retryBackoffNanos(const FaultConfig &config, uint64_t seed,
                           uint64_t index, uint32_t attempt);

/**
 * Write the plan's faulted rows as CSV: header
 * `arrival_index,fail_attempts,straggler`, integer columns, one row
 * per request with any planned fault. Byte-identical per
 * (seed, config): no floats, no locale, no timestamps.
 */
void writeFaultsCsv(const std::string &path, const FaultPlan &plan);

} // namespace hermes::harness::faults

#endif // HERMES_HARNESS_FAULTS_FAULT_PLAN_HPP
