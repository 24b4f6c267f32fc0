#!/usr/bin/env python3
"""Check that two benchmark result sets agree within BENCHMARK.json's bounds.

    python3 benchmark/agree.py A B

A and B are results.json files written by run.py (or directories that
hold one), for example two runs of `python3 benchmark/run.py --repeat 5`.
For every workload both sets ran and every end-to-end metric, it takes
the median over each set's headline runs (those whose spans, if any,
added no work) and compares them: the two
disagree when they differ by more than the metric's bound, as a share of
A's median. It prints one row per workload, then each set's max-min
spread per metric as a share of its median, which is what the bounds
are calibrated against.

Exit status: 0 when every metric agrees, 1 on any disagreement, 2 when
the sets cannot be compared (different CPU keys, no workload in common).
"""

import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent
                   / "BENCHMARK.json").read_text())
METRICS = SPEC["end_to_end"]


def load(arg):
    path = Path(arg)
    if path.is_dir():
        path = path / "results.json"
    return json.loads(path.read_text())


def values(results, workload, name):
    runs = results["workloads"][workload]["runs"]
    return [r["metrics"][name]["value"] for r in runs
            if r["headline"] and name in r["metrics"]]


def share(delta, base):
    return delta / base if base else float("inf") if delta else 0.0


def table(title, rows):
    width = max(14, max(len(m["name"]) for m in METRICS) + 1)
    print(title)
    print("  %-16s" % "workload" + "".join("%*s" % (width, m["name"])
                                            for m in METRICS))
    for workload, cells in rows:
        print("  %-16s" % workload + "".join("%*s" % (width, c)
                                            for c in cells))


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    a, b = load(sys.argv[1]), load(sys.argv[2])
    if a["cpu_key"] != b["cpu_key"]:
        print("agree.py: CPU keys differ (%r vs %r); absolute numbers "
              "compare only within one key" % (a["cpu_key"], b["cpu_key"]),
              file=sys.stderr)
        return 2
    workloads = [w for w in a["workloads"] if w in b["workloads"]]
    if not workloads:
        print("agree.py: no workload in common", file=sys.stderr)
        return 2

    disagree, diffs, spreads = [], [], []
    for w in workloads:
        diff_cells, spread_cells = [], []
        for m in METRICS:
            va, vb = values(a, w, m["name"]), values(b, w, m["name"])
            if not va or not vb:
                diff_cells.append("missing")
                spread_cells.append("missing")
                disagree.append((w, m["name"], "missing"))
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            d = share(mb - ma, ma)
            bad = abs(d) > m["bound"]
            diff_cells.append("%+.1f%%%s" % (100 * d, " !" if bad else ""))
            spread_cells.append("%.1f/%.1f%%" % (
                100 * share(max(va) - min(va), ma),
                100 * share(max(vb) - min(vb), mb)))
            if bad:
                disagree.append((w, m["name"], "%+.1f%% vs bound %.0f%%"
                                 % (100 * d, 100 * m["bound"])))
        diffs.append((w, diff_cells))
        spreads.append((w, spread_cells))

    table("median of B vs A (! = beyond the metric's bound)", diffs)
    table("max-min spread within A / within B", spreads)
    print("bounds: " + ", ".join("%s %.0f%%" % (m["name"], 100 * m["bound"])
                                 for m in METRICS))
    for w, name, why in disagree:
        print("DISAGREE %s %s: %s" % (w, name, why))
    print("agree" if not disagree else "disagree")
    return 1 if disagree else 0


if __name__ == "__main__":
    sys.exit(main())
