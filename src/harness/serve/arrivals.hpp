/**
 * @file
 * Arrival-schedule generation for the open-loop serving harness.
 *
 * Open-loop means arrival times are independent of completions: the
 * whole schedule is computed up front as pure data, and the driver's
 * producer threads pace submissions against the wall clock no matter
 * how far the runtime falls behind. Keeping generation here, away
 * from any runtime state, is what makes a fixed seed produce a
 * byte-identical schedule across runs and machines — the schedule's
 * hash is part of the run bundle's deterministic section precisely
 * so that claim can be checked.
 *
 * Decorrelated RNG streams are derived from the base seed via
 * util::mix64: stream 0 draws inter-arrival gaps, stream 1 draws the
 * workload-mix choice, stream 2+i seeds request i's own kernel, and
 * MMPP mode adds a far-away modulation stream for state-dwell draws.
 * Separate streams mean changing the mix weights cannot perturb the
 * arrival times and vice versa — and switching Poisson to MMPP at
 * equal rates cannot move a gap draw.
 */

#ifndef HERMES_HARNESS_SERVE_ARRIVALS_HPP
#define HERMES_HARNESS_SERVE_ARRIVALS_HPP

#include <cstdint>
#include <string>
#include <vector>

namespace hermes::util {
class CsvWriter;
}

namespace hermes::harness::serve {

/** How arrival times are produced. */
enum class ArrivalMode
{
    kPoisson, ///< exponential inter-arrival gaps at a fixed mean rate
    kTrace,   ///< replay offsets recorded in a schedule CSV
    kMmpp,    ///< 2-state Markov-modulated Poisson (bursty arrivals)
};

/**
 * Parameters of the 2-state MMPP arrival model (kMmpp mode).
 *
 * The process alternates between a base state and a burst state;
 * dwell times in each state are exponential with the configured
 * means, and within a state arrivals are Poisson at that state's
 * rate. Because the exponential is memoryless, restarting the gap
 * clock at each state boundary is statistically exact, not an
 * approximation. When the two rates are equal the process *is*
 * Poisson, and generation short-circuits to the Poisson path so the
 * schedule is byte-identical to kPoisson at that rate.
 */
struct MmppParams
{
    /** Arrival rate (requests per second) in the base state. */
    double baseRatePerSec = 500.0;

    /** Arrival rate (requests per second) in the burst state. */
    double burstRatePerSec = 5000.0;

    /** Mean dwell time in the base state, seconds. */
    double baseDwellSec = 0.1;

    /** Mean dwell time in the burst state, seconds. */
    double burstDwellSec = 0.02;
};

/** Inputs to generateSchedule(). */
struct ArrivalConfig
{
    ArrivalMode mode = ArrivalMode::kPoisson;

    /** Base seed; all sub-streams derive from it. */
    uint64_t seed = 42;

    /** Mean offered load (requests per second), Poisson mode. */
    double ratePerSec = 1000.0;

    /** Schedule length in seconds, Poisson and MMPP modes. */
    double durationSec = 1.0;

    /** State rates and dwell times, MMPP mode. */
    MmppParams mmpp;

    /** Relative weight of each workload-mix entry; request i's
     * mixIndex is drawn from this distribution. Must be non-empty
     * with a positive total. */
    std::vector<double> mixWeights = {1.0};

    /** Schedule CSV to replay, trace mode (same columns as
     * writeScheduleCsv emits). */
    std::string tracePath;
};

/** One scheduled request — everything the driver needs to submit it. */
struct Arrival
{
    uint64_t offsetNanos = 0; ///< arrival time relative to run start
    uint32_t mixIndex = 0;    ///< workload-mix entry serving it
    uint64_t requestSeed = 0; ///< decorrelated per-request seed

    bool operator==(const Arrival &other) const = default;
};

/**
 * Produce the full arrival schedule for `config`, sorted by offset.
 * Pure function of the config: a fixed seed yields a bitwise-stable
 * schedule. Poisson and MMPP modes stop at the first arrival past
 * durationSec; trace mode replays tracePath exactly.
 */
std::vector<Arrival> generateSchedule(const ArrivalConfig &config);

/** One dwell interval of the MMPP state process. */
struct MmppSegment
{
    uint64_t startNanos = 0; ///< segment start, inclusive
    uint64_t endNanos = 0;   ///< segment end (clamped to the horizon)
    bool burst = false;      ///< true while in the burst state
};

/**
 * The MMPP state timeline for `config` — the exact alternating
 * base/burst dwell segments generateSchedule() modulates arrivals
 * with, clamped to the duration horizon. Pure function of the
 * config (the modulation stream is decorrelated from gap, mix, and
 * request-seed draws); exposed so tests can check realized dwell
 * times and per-state rates against the configured means.
 */
std::vector<MmppSegment> mmppStateTimeline(const ArrivalConfig &config);

/** Echo `schedule` as CSV (offset_nanos,mix_index,request_seed) —
 * integer columns, so the file is byte-identical per seed. */
void writeScheduleCsv(util::CsvWriter &csv,
                      const std::vector<Arrival> &schedule);

/** Parse a CSV in writeScheduleCsv() format. util::fatal() on
 * missing file or malformed rows. */
std::vector<Arrival> loadTraceCsv(const std::string &path);

} // namespace hermes::harness::serve

#endif // HERMES_HARNESS_SERVE_ARRIVALS_HPP
