#!/usr/bin/env python3
"""Compares two directories of perf_suite results (files written by --out,
for example by bench/perf/run.sh --runs N --out DIR).

usage: compare.py A/ [B/] [--stable]

For each workload and end-to-end metric it prints the median and
quartiles of each side and, given B, applies the regression bound from
BENCHMARK.json to B against A:

  regressed   B's median is worse than A's by more than the bound
  improved    B's median is better than A's by more than the bound
  unresolved  the run-to-run spread (quartile distance over median) of
              either side is wider than the bound, and not every B run
              beats every A run
  unchanged   otherwise

It then prints per-layer deltas from the traced runs. --stable checks
that every counter is identical across the runs of each workload and
seed, since a claim may rest on a count only when it repeats exactly.

Exits 1 if a metric regressed or --stable found a counter that moved.
"""

import argparse
import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]


def load(directory):
    """{(workload, traced): [result, ...]} for every result file."""
    runs = {}
    for path in sorted(pathlib.Path(directory).glob("*.json")):
        doc = json.loads(path.read_text())
        if "workload" in doc and "metrics" in doc:
            runs.setdefault((doc["workload"], doc["trace"]), []).append(doc)
    if not runs:
        sys.exit(f"compare.py: no perf_suite results in {directory}")
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def rel_spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def verdict(a, b, better, bound):
    sign = 1 if better == "lower" else -1
    worse = sign * (statistics.median(b) - statistics.median(a))
    worse /= abs(statistics.median(a)) or 1.0
    b_beats_all = all(sign * (y - x) < 0 for x in a for y in b)
    if max(rel_spread(a), rel_spread(b)) > bound:
        return "improved" if b_beats_all else "unresolved"
    if worse > bound:
        return "regressed"
    if worse < -bound:
        return "improved"
    return "unchanged"


def values(docs, section, name):
    return [d[section][name]["value"] for d in docs if name in d[section]]


def fmt(values):
    q1, med, q3 = quartiles(values)
    return f"{med:14.6g} [{q1:.6g}, {q3:.6g}]"


def end_to_end(a, b, spec):
    regressed = False
    for workload in sorted({w for w, traced in a if not traced}):
        docs_a = a.get((workload, False), [])
        docs_b = b.get((workload, False), []) if b else []
        print(f"\n== {workload}: end-to-end (median [q1, q3]; "
              f"{len(docs_a)} run(s) A, {len(docs_b)} run(s) B)")
        bounded = {m["name"]: m for m in spec["end_to_end"]}
        for name, m in docs_a[0]["metrics"].items():
            va = values(docs_a, "metrics", name)
            line = f"  {name:16s} {m['unit']:4s} A {fmt(va)}"
            vb = values(docs_b, "metrics", name)
            if vb:
                delta = statistics.median(vb) / statistics.median(va) - 1
                line += f"  B {fmt(vb)}  {100 * delta:+6.1f}%"
                if name in bounded:
                    metric = bounded[name]
                    label = verdict(va, vb, metric["better"], metric["bound"])
                    regressed |= label == "regressed"
                    line += f"  bound {100 * metric['bound']:.0f}%  {label}"
                else:
                    line += "  (no bound)"
            print(line)
    return regressed


def per_layer(a, b):
    for workload in sorted({w for w, traced in a if traced}):
        docs_a = a[(workload, True)]
        docs_b = b.get((workload, True), []) if b else []
        print(f"\n== {workload}: per-layer (median of traced runs)")
        names = sorted({n for d in docs_a for n in d.get("spans_ms", {})})
        for name in names:
            va = [d["spans_ms"][name] for d in docs_a if name in d["spans_ms"]]
            line = f"  {name:30s} ms    A {statistics.median(va):12.4f}"
            vb = [d["spans_ms"][name] for d in docs_b
                  if name in d.get("spans_ms", {})]
            if vb:
                mb, ma = statistics.median(vb), statistics.median(va)
                line += f"  B {mb:12.4f}  delta {mb - ma:+10.4f}"
            print(line)
        for name in docs_a[0]["counters"]:
            va = values(docs_a, "counters", name)
            unit = docs_a[0]["counters"][name]["unit"]
            line = f"  {name:30s} {unit:5s} A {statistics.median(va):12.6g}"
            vb = values(docs_b, "counters", name)
            if vb:
                line += f"  B {statistics.median(vb):12.6g}"
            print(line)
        for key in ("partition_pct", "trace_overhead_pct"):
            ma = statistics.median(d[key] for d in docs_a)
            line = f"  {key:30s} %     A {ma:12.4f}"
            if docs_b:
                mb = statistics.median(d[key] for d in docs_b)
                line += f"  B {mb:12.4f}"
            print(line)


def unstable_counters(runs, label):
    """Counters that differ between runs of one workload and seed."""
    moved = []
    groups = {}
    for docs in runs.values():
        for d in docs:
            groups.setdefault((d["workload"], d["meta"]["seed"]), []).append(d)
    for (workload, seed), docs in sorted(groups.items()):
        for name in docs[0]["counters"]:
            seen = {d["counters"][name]["value"] for d in docs}
            if len(seen) > 1:
                moved.append(f"{label}: {workload} seed {seed}: {name} "
                             f"took {sorted(seen)}")
        if len(docs) < 2:
            print(f"note: {label}: {workload} seed {seed} has one run; "
                  "nothing to compare", file=sys.stderr)
    return moved


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="baseline result directory")
    parser.add_argument("b", nargs="?", help="candidate result directory")
    parser.add_argument("--stable", action="store_true",
                        help="fail unless counters repeat exactly")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a = load(args.a)
    b = load(args.b) if args.b else None

    status = 1 if end_to_end(a, b, spec) else 0
    per_layer(a, b)
    if args.stable:
        moved = unstable_counters(a, "A")
        if b:
            moved += unstable_counters(b, "B")
        for line in moved:
            print(f"UNSTABLE {line}")
        print("\ncounters: " + ("identical across runs" if not moved
                                else f"{len(moved)} moved"))
        status |= 1 if moved else 0
    return status


if __name__ == "__main__":
    sys.exit(main())
