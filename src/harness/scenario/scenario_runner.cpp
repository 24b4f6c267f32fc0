#include "harness/scenario/scenario_runner.hpp"

#include <atomic>
#include <cmath>
#include <filesystem>
#include <sstream>

#include "energy/ledger.hpp"
#include "energy/power_model.hpp"
#include "harness/serve/serve_driver.hpp"
#include "platform/system_profile.hpp"
#include "runtime/scheduler.hpp"
#include "sim/dag_generators.hpp"
#include "sim/simulator.hpp"
#include "util/assert.hpp"
#include "util/atomic_file.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/time.hpp"

namespace hermes::harness::scenario {

namespace {

/** Wall-clock busy spin (same rationale as the serve driver's:
 * timed spins survive sanitizer instrumentation and DVFS skew where
 * iteration counts do not). */
void
spinFor(uint64_t nanos)
{
    if (nanos == 0)
        return;
    const uint64_t deadline = util::nowNanos() + nanos;
    while (util::nowNanos() < deadline) {
        // spin
    }
}

/** The dvfs block as the controller config both substrates take. */
core::TempoConfig
tempoConfig(const ScenarioConfig &c)
{
    core::TempoConfig tc;
    tc.policy = core::policyFromString(c.dvfs.policy);
    if (!c.dvfs.ladder.empty())
        tc.ladder =
            platform::profileByName(c.profile).ladder.select(c.dvfs.ladder);
    tc.numThresholds = c.dvfs.thresholds;
    tc.profilerWindow = c.dvfs.window;
    return tc;
}

/** The scenario's DAG at generator seed `seed`, its grains anchored
 * at the profile's fastest rung on both substrates. */
sim::Dag
makeDag(const ScenarioConfig &config, uint64_t seed)
{
    sim::WorkloadParams params;
    params.scale = config.dag.scale;
    params.seed = seed;
    params.fmaxMhz =
        platform::profileByName(config.profile).ladder.fastest();
    return sim::makeBenchmark(config.dag.benchmark, params);
}

uint64_t
spawnCount(const sim::Dag &dag)
{
    uint64_t spawns = 0;
    for (sim::FrameId f = 0;
         f < static_cast<sim::FrameId>(dag.frameCount()); ++f)
        spawns += dag.frame(f).spawns.size();
    return spawns;
}

} // namespace

runtime::RuntimeConfig
makeRuntimeConfig(const ScenarioConfig &c)
{
    runtime::RuntimeConfig rc;
    rc.numWorkers = c.runtime.workers;
    rc.profile = platform::profileByName(c.profile);
    rc.seed = c.seed;
    rc.enableParking = c.runtime.parking;
    rc.parkThreshold = c.runtime.parkThreshold;
    rc.enableTempo = c.dvfs.tempo;
    rc.tempo = tempoConfig(c);
    // Chaos fault site: shrink the inject ring shards so sustained
    // load trips the spillover path (docs/RESILIENCE.md).
    if (c.faults.enabled && c.faults.forceSpill)
        rc.inject.shardCapacity = 8;
    return rc;
}

namespace {

/** Build the ServeConfig a serve-kind scenario forwards to
 * harness::serve::runServe(). */
serve::ServeConfig
makeServeConfig(const ScenarioConfig &config)
{
    const ServeParams &p = config.serve;
    serve::ServeConfig sc;
    sc.arrivals.seed = config.seed;
    sc.arrivals.ratePerSec = p.ratePerSec;
    sc.arrivals.durationSec = p.durationSec;
    if (p.arrivals == "mmpp") {
        sc.arrivals.mode = serve::ArrivalMode::kMmpp;
        sc.arrivals.mmpp.baseRatePerSec = p.ratePerSec;
        sc.arrivals.mmpp.burstRatePerSec =
            p.ratePerSec * p.mmppBurstFactor;
        sc.arrivals.mmpp.baseDwellSec = p.mmppBaseDwellSec;
        sc.arrivals.mmpp.burstDwellSec = p.mmppBurstDwellSec;
    }
    serve::MixEntry entry;
    entry.spinNanos = p.spinNanos;
    if (!p.workload.empty()) {
        entry.name = p.workload;
        entry.workload = p.workload;
        entry.scale = static_cast<size_t>(p.scale);
    }
    sc.mix = {entry};
    sc.producers = p.producers;
    sc.admissionEnabled = p.admission;
    sc.admission.highWatermark = static_cast<size_t>(p.admitHigh);
    sc.admission.lowWatermark = static_cast<size_t>(p.admitLow);
    sc.sampleHz = config.sampleHz;
    sc.profileName = config.profile;
    if (config.faults.enabled) {
        const FaultParams &f = config.faults;
        sc.faults.enabled = true;
        sc.faults.failProb = f.failProb;
        sc.faults.stragglerProb = f.stragglerProb;
        sc.faults.stragglerFactor = f.stragglerFactor;
        sc.faults.stall.worker = f.stallWorker;
        sc.faults.stall.atSec = f.stallAtSec;
        sc.faults.stall.durationMs = f.stallMs;
        sc.faults.forceSpill = f.forceSpill;
        sc.faults.deadlineMs = f.deadlineMs;
        sc.faults.maxRetries = f.maxRetries;
        sc.faults.retryBackoffMs = f.retryBackoffMs;
    }
    return sc;
}

/** FNV-1a over the schedule — the serve kind's determinism digest
 * (the schedule is the only seed-deterministic part of a timed
 * serving run). */
uint64_t
scheduleHash(const std::vector<serve::Arrival> &schedule)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    };
    for (const serve::Arrival &a : schedule) {
        mix(a.offsetNanos);
        mix(a.mixIndex);
        mix(a.requestSeed);
    }
    return h;
}

/** Execute DAG frame `f` (and its sequel chain) as real tasks:
 * spin the frame's serial work, spawning each child at its offset,
 * sync at frame end — the fully-strict semantics the simulator
 * assumes, driven onto the threaded runtime. */
struct DagDriver
{
    runtime::Runtime &rt;
    const sim::Dag &dag;
    double nanosPerCycle;
    std::atomic<uint64_t> &checksum;
    uint64_t seed;

    void
    runFrame(sim::FrameId start) const
    {
        for (sim::FrameId cur = start; cur != sim::invalidFrame;) {
            const sim::Frame &frame = dag.frame(cur);
            runtime::TaskGroup group(rt);
            double done_cycles = 0.0;
            for (const sim::SpawnPoint &sp : frame.spawns) {
                spinFor(static_cast<uint64_t>(
                    (sp.offsetCycles - done_cycles)
                    * nanosPerCycle));
                done_cycles = sp.offsetCycles;
                const sim::FrameId child = sp.child;
                const DagDriver *self = this;
                group.run([self, child] { self->runFrame(child); });
            }
            spinFor(static_cast<uint64_t>(
                (frame.ownCycles - done_cycles) * nanosPerCycle));
            group.wait();
            checksum.fetch_add(util::mix64(seed, cur),
                               std::memory_order_relaxed);
            cur = frame.sequel;
        }
    }
};

void
putStats(const runtime::RuntimeStats &stats,
         std::map<std::string, double> &metrics)
{
    metrics["executed"] = static_cast<double>(stats.executed);
    metrics["steals"] = static_cast<double>(stats.steals);
    metrics["failed_steals"] =
        static_cast<double>(stats.failedSteals);
    metrics["tasks_per_steal"] = stats.tasksPerSteal();
    metrics["parks"] = static_cast<double>(stats.parks);
    metrics["wakes"] = static_cast<double>(stats.wakes);
    metrics["inject_fast_frac"] = stats.injectFastFraction();
    metrics["injected"] = static_cast<double>(stats.injected);
    metrics["steal_cas_retries"] =
        static_cast<double>(stats.stealCasRetries);
    metrics["pop_cas_losses"] =
        static_cast<double>(stats.popCasLosses);
    metrics["local_wakes"] = static_cast<double>(stats.localWakes);
    metrics["remote_wakes"] =
        static_cast<double>(stats.remoteWakes);
}

/** What one fork_join or dag body ran, for the deterministic
 * section. */
struct BodyCounts
{
    uint64_t expectedTasks = 0;
    uint64_t checksum = 0;
    uint64_t dagFrames = 0;
    uint64_t dagSpawns = 0;
};

/** The fork_join or dag workload of `config`, run once on `rt`:
 * what `run` measures and `soak` repeats. */
BodyCounts
runBody(runtime::Runtime &rt, const ScenarioConfig &config)
{
    BodyCounts counts;
    std::atomic<uint64_t> checksum{0};
    if (config.kind == ScenarioKind::kForkJoin) {
        const ForkJoinParams &p = config.forkJoin;
        counts.expectedTasks = 1 + static_cast<uint64_t>(p.repeats)
            * p.tasks;
        const uint64_t seed = config.seed;
        runtime::Runtime *rt_ptr = &rt;
        std::atomic<uint64_t> *sum = &checksum;
        rt.run([rt_ptr, sum, p, seed] {
            for (unsigned rep = 0; rep < p.repeats; ++rep) {
                runtime::TaskGroup group(*rt_ptr);
                for (uint64_t i = 0; i < p.tasks; ++i) {
                    const uint64_t index =
                        static_cast<uint64_t>(rep) * p.tasks + i;
                    const uint64_t spin = p.spinNanos;
                    group.run([sum, seed, index, spin] {
                        spinFor(spin);
                        sum->fetch_add(util::mix64(seed, index),
                                       std::memory_order_relaxed);
                    });
                }
                group.wait();
            }
        });
    } else {
        HERMES_ASSERT(config.kind == ScenarioKind::kDag && !config.onSim(),
                      "serve and sim handled elsewhere");
        const sim::Dag dag = makeDag(config, config.seed);
        counts.dagFrames = dag.frameCount();
        counts.dagSpawns = spawnCount(dag);
        counts.expectedTasks = 1 + counts.dagSpawns;
        // Cycles spin at the fastest rung the DAG was generated at.
        const double nanos_per_cycle =
            1e3 / platform::profileByName(config.profile).ladder.fastest();
        const DagDriver driver{rt, dag, nanos_per_cycle, checksum,
                               config.seed};
        const DagDriver *driver_ptr = &driver;
        const sim::FrameId root = dag.root();
        rt.run([driver_ptr, root] { driver_ptr->runFrame(root); });
    }
    counts.checksum = checksum.load(std::memory_order_relaxed);
    return counts;
}

ScenarioResult
runForkJoinOrDag(const ScenarioConfig &config)
{
    ScenarioResult result;
    result.config = config;

    runtime::Runtime rt(makeRuntimeConfig(config));
    const energy::PowerModel model(
        platform::profileByName(config.profile));

    const uint64_t t0 = util::nowNanos();
    RunSampler sampler(rt, model, config.sampleHz);
    const BodyCounts counts = runBody(rt, config);
    result.wallSeconds =
        static_cast<double>(util::nowNanos() - t0) / 1e9;
    sampler.stop();
    result.events = sampler.samples();
    result.joules = sampler.joules();
    result.stats = rt.stats();

    result.deterministic.emplace_back("expected_tasks",
                                      counts.expectedTasks);
    result.deterministic.emplace_back("executed_tasks",
                                      result.stats.executed);
    result.deterministic.emplace_back("checksum", counts.checksum);
    if (config.kind == ScenarioKind::kDag) {
        result.deterministic.emplace_back("dag_frames",
                                          counts.dagFrames);
        result.deterministic.emplace_back("dag_spawns",
                                          counts.dagSpawns);
    }

    putStats(result.stats, result.metrics);
    result.metrics["seconds"] = result.wallSeconds;
    result.metrics["joules"] = result.joules;
    result.metrics["edp"] =
        energy::edp(result.joules, result.wallSeconds);
    result.metrics["tasks_per_second"] = result.wallSeconds > 0.0
        ? static_cast<double>(result.stats.executed)
            / result.wallSeconds
        : 0.0;
    result.metrics["executed_matches_expected"] =
        result.stats.executed == counts.expectedTasks ? 1.0 : 0.0;
    return result;
}

/**
 * A dag scenario on the simulator, by the protocol of Section 4.1:
 * 20 trials with the first 2 discarded. Trial t regenerates the DAG
 * at seed `seed + 7919 t` (new grain draws, like a fresh run on new
 * data) and simulates it at seed `seed * 31 + t` (victim choice).
 * The counters are the kept trials' means; events.jsonl is trial 0's
 * 100 Hz power series.
 */
ScenarioResult
runSimDag(const ScenarioConfig &config)
{
    constexpr unsigned kTrials = 20;
    constexpr unsigned kWarmupTrials = 2;
    ScenarioResult result;
    result.config = config;

    sim::SimConfig sc;
    sc.profile = platform::profileByName(config.profile);
    sc.numWorkers = config.runtime.workers;
    sc.enableTempo = config.dvfs.tempo;
    sc.tempo = tempoConfig(config);
    sc.scheduling = config.dag.scheduling == "dynamic"
        ? sim::SchedulingMode::Dynamic
        : sim::SchedulingMode::Static;
    sc.dvfsCallCostSec = config.dvfs.callCostUs / 1e6;

    util::TrialSet seconds(kWarmupTrials);
    util::TrialSet joules(kWarmupTrials);
    for (unsigned t = 0; t < kTrials; ++t) {
        const sim::Dag dag = makeDag(config, config.seed + 7919ULL * t);
        if (t == 0) {
            result.deterministic.emplace_back("dag_frames",
                                              dag.frameCount());
            result.deterministic.emplace_back("dag_spawns",
                                              spawnCount(dag));
        }
        sc.seed = config.seed * 31ULL + t;
        sc.recordPowerSeries = t == 0;
        const sim::SimResult r = sim::simulate(dag, sc);
        seconds.add(r.seconds);
        joules.add(r.joules);
        for (size_t i = 0; i < r.powerSeries.size(); ++i) {
            RunSample sample;
            sample.tSec = static_cast<double>(i) / 100.0;
            sample.packageWatts = r.powerSeries[i];
            result.events.push_back(sample);
        }
    }

    result.wallSeconds = seconds.mean();
    result.joules = joules.mean();
    result.deterministic.emplace_back(
        "mean_seconds_ns",
        static_cast<uint64_t>(std::llround(result.wallSeconds * 1e9)));
    result.deterministic.emplace_back(
        "mean_joules_nj",
        static_cast<uint64_t>(std::llround(result.joules * 1e9)));
    result.metrics["seconds"] = result.wallSeconds;
    result.metrics["joules"] = result.joules;
    result.metrics["edp"] = result.wallSeconds * result.joules;
    return result;
}

ScenarioResult
runServeScenario(const ScenarioConfig &config)
{
    ScenarioResult result;
    result.config = config;

    runtime::Runtime rt(makeRuntimeConfig(config));
    serve::ServeResult serve_result =
        serve::runServe(rt, makeServeConfig(config));

    result.wallSeconds = serve_result.wallSeconds;
    result.joules = serve_result.joules;
    result.stats = serve_result.stats;

    result.deterministic.emplace_back(
        "offered", static_cast<uint64_t>(serve_result.offered));
    result.deterministic.emplace_back(
        "schedule_hash", scheduleHash(serve_result.schedule));
    if (config.faults.enabled) {
        // The drawn fault plan is pure data (decorrelated RNG
        // streams), so its size and digest join the determinism
        // contract. Outcome *counts* stay out: deadlines and
        // admission make them timing-dependent in general.
        result.faultPlan = serve_result.faultPlan;
        result.deterministic.emplace_back(
            "fault_rows", result.faultPlan.faultedCount());
        result.deterministic.emplace_back("fault_hash",
                                          result.faultPlan.hash());
    }

    putStats(result.stats, result.metrics);
    result.metrics["offered"] =
        static_cast<double>(serve_result.offered);
    result.metrics["accepted"] =
        static_cast<double>(serve_result.accepted);
    result.metrics["shed"] = static_cast<double>(serve_result.shed);
    result.metrics["completed"] =
        static_cast<double>(serve_result.completed);
    result.metrics["shed_frac"] = serve_result.offered != 0
        ? static_cast<double>(serve_result.shed)
            / static_cast<double>(serve_result.offered)
        : 0.0;
    result.metrics["completed_eq_accepted"] =
        serve_result.completed == serve_result.accepted ? 1.0 : 0.0;
    result.metrics["admission_transitions"] =
        static_cast<double>(serve_result.admissionTransitions);
    if (config.faults.enabled) {
        result.metrics["outcome_ok"] =
            static_cast<double>(serve_result.ok);
        result.metrics["outcome_retried_ok"] =
            static_cast<double>(serve_result.retriedOk);
        result.metrics["outcome_failed"] =
            static_cast<double>(serve_result.failed);
        result.metrics["outcome_deadline_expired"] =
            static_cast<double>(serve_result.deadlineExpired);
        result.metrics["retries_spent"] =
            static_cast<double>(serve_result.retriesSpent);
        result.metrics["stragglers"] =
            static_cast<double>(serve_result.stragglers);
        result.metrics["injected_faults"] =
            static_cast<double>(serve_result.injectedFaults);
        result.metrics["goodput_per_sec"] =
            serve_result.goodputPerSec;
        // The sojourn recorder holds successful requests only.
        result.metrics["success_p50_ns"] = static_cast<double>(
            serve_result.sojourn.quantileNanos(0.50));
        result.metrics["success_p99_ns"] = static_cast<double>(
            serve_result.sojourn.quantileNanos(0.99));
        // Outcome fractions of accepted requests, for gates. A run
        // that accepted nothing reads 0 failed and 0 expired and a
        // goodput of 1, so no outcome bound fails on it.
        const double accepted =
            static_cast<double>(serve_result.accepted);
        const auto frac = [accepted](uint64_t count, double none) {
            return accepted > 0.0 ? static_cast<double>(count) / accepted
                                  : none;
        };
        result.metrics["outcome_failed_frac"] =
            frac(serve_result.failed, 0.0);
        result.metrics["outcome_deadline_expired_frac"] =
            frac(serve_result.deadlineExpired, 0.0);
        result.metrics["outcome_goodput_frac"] =
            frac(serve_result.ok + serve_result.retriedOk, 1.0);
    }
    // The watchdog runs on every serve run; on a faults-off run any
    // compensating wake is a scheduler bug signal.
    result.metrics["watchdog_stalls"] =
        static_cast<double>(serve_result.watchdogStalls);
    result.metrics["compensating_wakes"] =
        static_cast<double>(serve_result.compensatingWakes);
    result.metrics["sojourn_p50_ns"] = static_cast<double>(
        serve_result.sojourn.quantileNanos(0.50));
    result.metrics["sojourn_p99_ns"] = static_cast<double>(
        serve_result.sojourn.quantileNanos(0.99));
    result.metrics["sojourn_p999_ns"] = static_cast<double>(
        serve_result.sojourn.quantileNanos(0.999));
    result.metrics["sojourn_mean_ns"] = serve_result.sojourn.meanNanos();
    result.metrics["queueing_p99_ns"] = static_cast<double>(
        serve_result.queueing.quantileNanos(0.99));
    result.metrics["service_p50_ns"] = static_cast<double>(
        serve_result.service.quantileNanos(0.50));
    result.metrics["joules"] = serve_result.joules;
    result.metrics["joules_per_request"] =
        serve_result.joulesPerRequest;
    result.metrics["accepted_rate_per_sec"] =
        serve_result.wallSeconds > 0.0
        ? static_cast<double>(serve_result.accepted)
            / serve_result.wallSeconds
        : 0.0;
    result.metrics["package_watts_mean"] =
        serve_result.wallSeconds > 0.0
        ? serve_result.joules / serve_result.wallSeconds
        : 0.0;
    // Mean fraction of workers parked over the sampled series — the
    // power-side axis of the tail-vs-parked-power tradeoff curves.
    double parked_sum = 0.0;
    for (const RunSample &s : serve_result.series)
        parked_sum += static_cast<double>(s.parkedWorkers);
    result.metrics["mean_parked_fraction"] =
        (!serve_result.series.empty()
         && config.runtime.workers > 0)
        ? parked_sum
            / (static_cast<double>(serve_result.series.size())
               * config.runtime.workers)
        : 0.0;

    result.events = std::move(serve_result.series);
    return result;
}

} // namespace

ScenarioResult
runScenario(const ScenarioConfig &config)
{
    if (config.kind == ScenarioKind::kServe)
        return runServeScenario(config);
    if (config.onSim())
        return runSimDag(config);
    return runForkJoinOrDag(config);
}

void
runScenarioIteration(runtime::Runtime &rt,
                     const ScenarioConfig &config)
{
    if (config.kind == ScenarioKind::kServe)
        serve::runServe(rt, makeServeConfig(config));
    else
        runBody(rt, config);
}

std::string
writeDeterministicJson(const ScenarioResult &result)
{
    std::ostringstream out;
    out << "{";
    for (size_t i = 0; i < result.deterministic.size(); ++i) {
        const auto &[name, value] = result.deterministic[i];
        out << (i ? "," : "") << "\n    " << util::jsonQuote(name)
            << ": " << value;
    }
    out << "\n  }";
    return out.str();
}

std::string
writeRunJson(const ScenarioResult &result)
{
    std::ostringstream out;
    out << "{\n"
        << "  \"context\": {\n"
        << "    \"executable\": \"hermes-scenario\",\n"
        << "    \"scenario\": "
        << util::jsonQuote(result.config.name) << ",\n"
        << "    \"kind\": \"" << toString(result.config.kind)
        << "\",\n"
        << "    \"workers\": " << result.config.runtime.workers
        << "\n  },\n"
        << "  \"deterministic\": " << writeDeterministicJson(result)
        << ",\n"
        << "  \"benchmarks\": [\n"
        << "    {\n"
        << "      \"name\": \"scenario/"
        << result.config.name << "\",\n"
        << "      \"run_type\": \"iteration\",\n"
        << "      \"iterations\": 1,\n"
        << "      \"real_time\": "
        << util::jsonNumber(result.wallSeconds * 1e9) << ",\n"
        << "      \"time_unit\": \"ns\",\n"
        << "      \"counters\": {";
    size_t i = 0;
    for (const auto &[name, value] : result.metrics) {
        out << (i++ ? "," : "") << "\n        "
            << util::jsonQuote(name) << ": "
            << util::jsonNumber(value);
    }
    out << "\n      }\n"
        << "    }\n"
        << "  ]\n"
        << "}\n";
    return out.str();
}

void
writeScenarioBundle(const std::string &dir,
                    const ScenarioResult &result)
{
    std::filesystem::create_directories(dir);
    // Atomic writes: a crash or kill mid-write must never leave a
    // truncated artifact that a later reader (`sweep --reduce-only`,
    // a CI `cmp`) would trust.
    auto write = [&dir](const std::string &file,
                        const std::string &content) {
        util::writeFileAtomic(dir + "/" + file, content);
    };

    const bool chaos = result.config.faults.enabled;
    const bool sim = result.config.onSim();

    write("config.json", writeConfigJson(result.config));
    write("run.json", writeRunJson(result));

    {
        std::ostringstream out;
        char buf[64];
        for (const RunSample &e : result.events) {
            std::snprintf(buf, sizeof(buf), "%.6f", e.tSec);
            out << "{\"t_sec\": " << buf;
            // A simulated run has a power trace and no runtime.
            if (!sim)
                out << ", \"executed\": " << e.executed
                    << ", \"steals\": " << e.steals
                    << ", \"inject_pending\": " << e.injectPending
                    << ", \"parked_workers\": " << e.parkedWorkers;
            if (chaos)
                out << ", \"stalled_workers\": "
                    << e.stalledWorkers;
            std::snprintf(buf, sizeof(buf), "%.6f",
                          e.packageWatts);
            out << ", \"package_watts\": " << buf << "}\n";
        }
        write("events.jsonl", out.str());
    }

    if (chaos)
        faults::writeFaultsCsv(dir + "/faults.csv",
                               result.faultPlan);

    {
        std::ostringstream out;
        out << "# Scenario run: " << result.config.name << "\n\n"
            << "- kind: `" << toString(result.config.kind)
            << (sim ? "` on the simulator" : "`") << ", seed "
            << result.config.seed << ", "
            << result.config.runtime.workers << " workers, tempo "
            << (result.config.dvfs.tempo ? result.config.dvfs.policy
                                         : "off")
            << "\n"
            << (sim ? "- mean makespan " : "- wall ")
            << util::jsonNumber(result.wallSeconds) << " s, energy "
            << util::jsonNumber(result.joules) << " J\n\n"
            << "## Deterministic counters\n\n"
            << "| counter | value |\n|---|---|\n";
        for (const auto &[name, value] : result.deterministic)
            out << "| " << name << " | " << value << " |\n";
        out << "\n## Metrics\n\n| metric | value |\n|---|---|\n";
        for (const auto &[name, value] : result.metrics)
            out << "| " << name << " | " << util::jsonNumber(value)
                << " |\n";
        out << "\n(events.jsonl has the "
            << result.events.size() << "-sample time series.)\n";
        write("summary.md", out.str());
    }

    util::inform("scenario: wrote evidence bundle to " + dir);
}

std::vector<std::string>
checkGates(const std::vector<CounterGate> &gates,
           const std::map<std::string, double> &metrics)
{
    std::vector<std::string> failures;
    for (const CounterGate &gate : gates) {
        const auto it = metrics.find(gate.counter);
        if (it == metrics.end()) {
            failures.push_back("gate " + gate.counter
                               + ": counter missing from run.json");
            continue;
        }
        // Negated compares, so a NaN value fails its gate.
        const double value = it->second;
        if (gate.min && !(value >= *gate.min))
            failures.push_back("gate " + gate.counter + ": "
                               + util::jsonNumber(value)
                               + " is below min "
                               + util::jsonNumber(*gate.min));
        if (gate.max && !(value <= *gate.max))
            failures.push_back("gate " + gate.counter + ": "
                               + util::jsonNumber(value)
                               + " is above max "
                               + util::jsonNumber(*gate.max));
    }
    return failures;
}

std::vector<std::string>
checkGates(const ScenarioResult &result)
{
    return checkGates(result.config.gates, result.metrics);
}

} // namespace hermes::harness::scenario
