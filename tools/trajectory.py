#!/usr/bin/env python3
"""Append one measured commit to BENCH_trajectory.json.

Usage:
    trajectory.py --pr N --label {parent,change} RESULTS.json [...]
        [--file BENCH_trajectory.json]

Reads one or more `benchmark/run.py` results files of one commit (a
single `--repeat R` run, or the one-run files an alternating A/B
writes) and appends one entry to the trajectory:

    {"pr": 7, "label": "change", "commit": "...", "cpu_key": "...",
     "seconds": 12,
     "workloads": {"fork_join_fine": {"repeat": 10, "ops_failed": 0,
                                      "sojourn_p50_us": ..., ...}}}

Each workload carries the median of BENCHMARK.json's end-to-end
metrics over every headline run of it in the files, how many runs
that was (`repeat`) and its failed ops. The sync counts per task are
not copied: `test_sync_count` pins them exactly in tier-1. Absolute
numbers compare only within one CPU key. `commit` is what run.py
read from `git rev-parse HEAD`, so a change measured before it is
committed records its parent's hash; the PR number and label tell
the two entries apart.

The file is append-only: an earlier entry is never rewritten. The
tool appends nothing and exits 1 when a results file has failed ops,
lacks an end-to-end metric, records the commit as "unknown" (run.py
writes that when `git rev-parse HEAD` fails, as in a `git archive`
copy), or disagrees with the others on the commit, CPU key or run
length. Exit 2 is a usage error.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = [m["name"] for m in SPEC["end_to_end"]]


class Rejected(Exception):
    """A results file that must not enter the trajectory."""


def load(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as err:
        raise Rejected("cannot read %s: %s" % (path, err))


def entry(pr, label, paths):
    """The trajectory entry for the results files at `paths`."""
    header, runs = None, {}
    for path in paths:
        results = load(path)
        try:
            this = {k: results[k] for k in ("commit", "cpu_key", "seconds")}
            workloads = results["workloads"]
        except (KeyError, TypeError) as err:
            raise Rejected("%s is not a run.py results file (%s)"
                           % (path, err))
        if this["commit"] == "unknown":
            raise Rejected("%s does not name its commit" % path)
        if header is None:
            header = this
        elif this != header:
            raise Rejected("%s measured %s, the first file %s"
                           % (path, this, header))
        for name, w in workloads.items():
            if w.get("ops_failed", 1) != 0:
                raise Rejected("%s: %s failed %s ops"
                               % (path, name, w.get("ops_failed")))
            headline = [r for r in w.get("runs", [])
                        if r.get("headline") and r.get("metrics")]
            if not headline:
                raise Rejected("%s: %s has no finished run" % (path, name))
            for r in headline:
                missing = [m for m in METRICS if m not in r["metrics"]]
                if missing:
                    raise Rejected("%s: %s run seed %s lacks %s"
                                   % (path, name, r.get("seed"),
                                      ", ".join(missing)))
            runs.setdefault(name, []).extend(headline)
    medians = {}
    for name, rs in sorted(runs.items()):
        row = {"repeat": len(rs), "ops_failed": 0}
        for m in METRICS:
            row[m] = statistics.median(r["metrics"][m]["value"] for r in rs)
        medians[name] = row
    return {"pr": pr, "label": label, "commit": header["commit"],
            "cpu_key": header["cpu_key"], "seconds": header["seconds"],
            "workloads": medians}


def main():
    parser = argparse.ArgumentParser(
        description="Append one measured commit to the benchmark "
                    "trajectory.")
    parser.add_argument("--pr", type=int, required=True,
                        help="the PR the measured commit belongs to")
    parser.add_argument("--label", required=True,
                        choices=("parent", "change"),
                        help="the PR's parent commit or its change")
    parser.add_argument("--file", default=str(ROOT / "BENCH_trajectory.json"),
                        help="trajectory to append to (default: "
                             "BENCH_trajectory.json at the repo root)")
    parser.add_argument("results", nargs="+",
                        help="run.py results.json files of one commit")
    args = parser.parse_args()

    try:
        new = entry(args.pr, args.label, args.results)
        trajectory = Path(args.file)
        entries = load(trajectory) if trajectory.exists() else []
        if not isinstance(entries, list):
            raise Rejected("%s is not a JSON list" % trajectory)
    except Rejected as err:
        print("trajectory: %s; nothing appended" % err, file=sys.stderr)
        return 1
    entries.append(new)
    trajectory.write_text(json.dumps(entries, indent=1) + "\n")
    print("trajectory: appended PR %d %s (%s) to %s"
          % (args.pr, args.label, new["commit"][:12], trajectory))
    return 0


if __name__ == "__main__":
    sys.exit(main())
