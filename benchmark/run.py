#!/usr/bin/env python3
"""Build hermes-bench, run the benchmark workloads, check and report.

    python3 benchmark/run.py [--workloads NAME[,NAME...]] [--seed N]
                             [--repeat R] [--trace [0|1]] [--seconds S]
                             [--out DIR]

Builds benchmark/ (CMake, Release) into .bench_build/, then runs each
(workload, repeat) in its own hermes-bench child process with a deadline
of 3x its duration + 30 s. Repeat r uses seed N + r. The workloads are
those of BENCHMARK.json unless named; paper_kernels runs only when
named. A child that dies on a signal or misses its deadline has all the
ops it planned counted as failed; its stderr is kept in the output
directory and it is not retried. With --trace, every workload writes
trace-<workload>.json (Chrome trace-event JSON): serve_* from its one
run, the others from one more run per repeat with spans on.

Prints every metric with its unit, writes <out>/results.json (CPU key,
commit, per-run and median metrics, ops attempted and failed), and ends
with one JSON line: {"correct", "attempted", "failed", "metrics"}, where
the metrics are BENCHMARK.json's end_to_end ones, or its per_layer ones
under --trace. Exit status: 0 when every output check passed and every
metric was measured, 1 otherwise, 2 when the build fails.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build"
BINARY = BUILD_DIR / "hermes-bench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
DEFAULT_WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# paper_kernels runs only when named: on the current runtime it crashes
# or hangs in some of its runs (README.md, "Known seed failure").
WORKLOADS = DEFAULT_WORKLOADS + ["paper_kernels"]
# These build their spans from timestamps every run takes, so one
# traced run also gives the untraced numbers; the others' spans add
# work, and --trace runs them once more.
FREE_SPANS = {"serve_sparse", "serve_steady"}
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure and build hermes-bench; exit 2 on failure."""
    BUILD_DIR.mkdir(exist_ok=True)
    jobs = str(os.cpu_count() or 1)
    steps = [
        ["cmake", "-S", str(ROOT / "benchmark"), "-B", str(BUILD_DIR),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD_DIR), "--target", "hermes-bench",
         "-j", jobs],
    ]
    with open(BUILD_DIR / "build.log", "w") as build_log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=build_log,
                               stderr=subprocess.STDOUT) != 0:
                build_log.flush()
                tail = (BUILD_DIR / "build.log").read_text()[-4000:]
                log(tail)
                log("run.py: build failed (%s)" % " ".join(cmd))
                sys.exit(2)


def cpu_key():
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return "%s x%d" % (model, os.cpu_count() or 1)


def commit():
    try:
        return subprocess.check_output(
            ["git", "rev-parse", "HEAD"], cwd=ROOT,
            stderr=subprocess.DEVNULL, text=True).strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_child(workload, seed, seconds, trace, out, deadline=None):
    """One hermes-bench process; returns a run record. The deadline
    defaults to 3x the measured seconds + 30 s. The record's `headline`
    says whether its end-to-end numbers count: not when spans added
    work to the run."""
    tag = "%s-seed%d%s" % (workload, seed, "-trace" if trace else "")
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--out", str(out)]
    deadline = deadline or 3 * seconds + 30
    stderr_path = out / (tag + ".stderr")
    with open(stderr_path, "w") as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                text=True)
        try:
            stdout, _ = proc.communicate(timeout=deadline)
            status = "ok"
        except subprocess.TimeoutExpired:
            proc.kill()
            stdout, _ = proc.communicate()
            status = "timeout after %ds" % deadline
    if status == "ok" and proc.returncode < 0:
        status = "killed by %s" % signal.Signals(-proc.returncode).name
    planned, result = 1, None
    for line in stdout.splitlines():
        try:
            event = json.loads(line)
        except ValueError:
            continue
        if event.get("event") == "plan":
            planned = max(1, int(event["ops"]))
        elif event.get("event") == "result":
            result = event
    if status == "ok" and result is None:
        status = "exit %d without a result" % proc.returncode
    record = {"seed": seed, "trace": trace,
              "headline": not trace or workload in FREE_SPANS,
              "status": status}
    if status == "ok":
        record.update(attempted=result["attempted"],
                      failed=result["failed"], metrics=result["metrics"])
        if os.path.getsize(stderr_path) == 0:
            os.remove(stderr_path)
    else:
        # The run's results died with it: every op it planned failed.
        record.update(attempted=planned, failed=planned, metrics={})
        log("run.py: %s %s; %d ops counted as failed; stderr kept in %s"
            % (tag, status, planned, stderr_path))
    return record


def summarize(runs):
    """Median of every metric over the headline runs that finished."""
    headline = [r for r in runs if r["headline"] and r["metrics"]]
    traced = {r["seed"]: r for r in runs
              if r["trace"] and not r["headline"] and r["metrics"]}
    values, units = {}, {}
    for r in headline:
        extra = {}
        t = traced.get(r["seed"])
        if r["trace"]:
            # Its spans added no work: tracing costs nothing.
            extra["trace.overhead_frac"] = {"value": 0.0, "unit": "ratio"}
        elif t:
            # Span-derived layer metrics exist only in the traced run.
            extra = {k: v for k, v in t["metrics"].items()
                     if k not in r["metrics"]}
            # Median sojourn of the traced ops over the untraced run's.
            base = r["metrics"]["sojourn_p50_us"]["value"]
            traced_p50 = t["metrics"]["trace.traced_p50_us"]["value"]
            extra["trace.overhead_frac"] = {
                "value": traced_p50 / base - 1 if base else 0.0,
                "unit": "ratio"}
        for name, m in list(r["metrics"].items()) + list(extra.items()):
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    return {name: {"value": statistics.median(v), "unit": units[name]}
            for name, v in values.items()}


def print_table(workload, summary, attempted, failed):
    print("\n%s  (ops attempted %d, failed %d, failed_frac %.6g)"
          % (workload, attempted, failed, failed / max(1, attempted)))
    for section, names in (("end to end", [m["name"] for m in SPEC["end_to_end"]]),
                           ("per layer", [m["name"] for m in SPEC["per_layer"]]),
                           ("other", sorted(set(summary) - set(UNITS)))):
        print("  %s" % section)
        for name in names:
            m = summary.get(name)
            value = "%.6g" % m["value"] if m else "n/a"
            unit = m["unit"] if m else UNITS.get(name, "")
            print("    %-36s %14s %s" % (name, value, unit))


def main():
    parser = argparse.ArgumentParser(
        description="Build and run the HERMES benchmark (see "
                    "benchmark/README.md).")
    # --workload and --seconds are the calling convention of a
    # BENCHMARK.json command (README.md, "Interface").
    parser.add_argument("--workloads", "--workload",
                        default=",".join(DEFAULT_WORKLOADS),
                        help="comma-separated workloads (default: those "
                             "of BENCHMARK.json; also: paper_kernels)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"],
                        help="measured seconds per run (default: "
                             "BENCHMARK.json run_seconds)")
    parser.add_argument("--out", default="bench-out")
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    unknown = [w for w in workloads if w not in WORKLOADS]
    if unknown or args.repeat < 1 or args.seconds < 1:
        parser.error("unknown workload %s (have %s)" % (unknown, WORKLOADS)
                     if unknown else "--repeat and --seconds must be >= 1")

    build()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    results = {"cpu_key": cpu_key(), "commit": commit(), "seed": args.seed,
               "seconds": args.seconds, "repeat": args.repeat,
               "trace": args.trace, "workloads": {}}
    print("cpu key: %s  commit: %s" % (results["cpu_key"], results["commit"]))

    wanted = [m["name"] for m in SPEC["per_layer" if args.trace else "end_to_end"]]
    line_metrics, correct, attempted, failed = {}, True, 0, 0
    for workload in workloads:
        runs = []
        for r in range(args.repeat):
            seed = args.seed + r
            free = bool(args.trace) and workload in FREE_SPANS
            runs.append(run_child(workload, seed, args.seconds, free, out))
            if args.trace and not free:
                runs.append(run_child(workload, seed, args.seconds, True, out))
        summary = summarize(runs)
        w_attempted = sum(r["attempted"] for r in runs)
        w_failed = sum(r["failed"] for r in runs)
        results["workloads"][workload] = {
            "ops_attempted": w_attempted, "ops_failed": w_failed,
            "failed_frac": w_failed / max(1, w_attempted),
            "metrics": summary, "runs": runs}
        print_table(workload, summary, w_attempted, w_failed)
        attempted += w_attempted
        failed += w_failed
        # A failed output check fails the run; a crash only when it
        # leaves no run to report from.
        correct &= all(r["failed"] == 0 for r in runs if r["metrics"])
        for name in wanted:
            m = summary.get(name)
            if m is None:
                correct = False
                continue
            if m["unit"] != UNITS[name]:
                log("run.py: %s has unit %s, BENCHMARK.json says %s"
                    % (name, m["unit"], UNITS[name]))
                correct = False
            key = name if len(workloads) == 1 else "%s/%s" % (workload, name)
            line_metrics[key] = {"value": m["value"], "unit": UNITS[name]}

    (out / "results.json").write_text(json.dumps(results, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": line_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
