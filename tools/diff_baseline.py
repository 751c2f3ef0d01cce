#!/usr/bin/env python3
"""Diff the headline counters of two schema-1 corpus reports.

Usage: diff_baseline.py BASELINE.json CURRENT.json

Compares the deterministic headline counters (site count, aggregate
operations / HB edges / CHC queries, vector-clock chain and clock-arena
counters (clock_bytes / clock_merges / shared_clocks), intern and epoch
fast-path hit counters, detect-phase virtual time, the SHB/WCP
predictive-pass headline counters (wr_prediction pairs_checked /
candidates / observed_matched / predicted totals and WCP's dropped
edges), the
wr_sampling attrition group when the run sampled, raw and
filtered race totals per kind, filter attrition, and the
static-analysis precision tallies with their per-guard-class breakdown)
and prints one line per drifted counter. The
diff is WARN-ONLY: drift exits 0 so CI surfaces it without failing the
build (counters legitimately move when the corpus or detector changes;
refresh the baseline in the same PR). Only malformed input exits
nonzero.
"""

import json
import sys

HEADLINE_PATHS = [
    ("aggregate", "operations"),
    ("aggregate", "hb_edges"),
    ("aggregate", "chc_queries"),
    ("aggregate", "vc_chains"),
    ("aggregate", "clock_bytes"),
    ("aggregate", "clock_merges"),
    ("aggregate", "shared_clocks"),
    ("aggregate", "accesses"),
    ("aggregate", "tracked_locations"),
    ("aggregate", "interned_locations"),
    ("aggregate", "intern_hits"),
    ("aggregate", "epoch_hits"),
    ("aggregate", "wr_epochs", "reads"),
    ("aggregate", "wr_epochs", "epoch_reads"),
    ("aggregate", "wr_epochs", "read_inflations"),
    ("aggregate", "wr_epochs", "read_deflations"),
    ("aggregate", "wr_epochs", "read_vector_locations"),
    ("aggregate", "wr_epochs", "detector_bytes"),
    # wr_sampling is present only when the run sampled (rate < 1); the
    # unsampled CI corpus run has it absent on both sides, which compares
    # equal (None == None) and stays silent.
    ("aggregate", "wr_sampling", "rate_ppm"),
    ("aggregate", "wr_sampling", "seen", "total"),
    ("aggregate", "wr_sampling", "sampled", "total"),
    ("aggregate", "wr_sampling", "dropped", "total"),
    ("aggregate", "wr_sampling", "passes", "cold"),
    ("aggregate", "wr_sampling", "passes", "hot"),
    ("aggregate", "wr_sampling", "hot_locations"),
    ("aggregate", "phases", "detect", "virtual_us"),
    ("aggregate", "phases", "detect", "entries"),
    ("aggregate", "wr_prediction", "shb", "pairs_checked"),
    ("aggregate", "wr_prediction", "shb", "candidates"),
    ("aggregate", "wr_prediction", "shb", "observed_matched"),
    ("aggregate", "wr_prediction", "shb", "predicted", "total"),
    ("aggregate", "wr_prediction", "wcp", "pairs_checked"),
    ("aggregate", "wr_prediction", "wcp", "candidates"),
    ("aggregate", "wr_prediction", "wcp", "observed_matched"),
    ("aggregate", "wr_prediction", "wcp", "predicted", "total"),
    ("aggregate", "wr_prediction", "wcp", "dropped_edges"),
    ("aggregate", "races_raw", "total"),
    ("aggregate", "races_raw", "html"),
    ("aggregate", "races_raw", "function"),
    ("aggregate", "races_raw", "variable"),
    ("aggregate", "races_raw", "event_dispatch"),
    ("aggregate", "races_filtered", "total"),
    ("aggregate", "filter_attrition", "input"),
    ("aggregate", "filter_attrition", "kept"),
    ("filtered_totals", "total"),
    ("static_precision", "predicted"),
    ("static_precision", "confirmed"),
    ("static_precision", "refuted"),
    ("static_precision", "refuted_by_guards"),
    ("static_precision", "by_class", "unguarded", "predicted"),
    ("static_precision", "by_class", "guarded_one_side", "predicted"),
    ("static_precision", "by_class", "guarded_both_sides", "predicted"),
    ("static_precision", "by_class", "guarded_both_sides", "refuted"),
    ("triage", "signatures"),
    ("triage", "occurrences"),
]


def lookup(doc, path):
    node = doc
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node


def load(path):
    try:
        with open(path, "rb") as f:
            doc = json.load(f)
    except (OSError, ValueError) as err:
        sys.exit(f"error: cannot load {path}: {err}")
    if doc.get("schema") != 1 or doc.get("kind") != "corpus":
        sys.exit(f"error: {path} is not a schema-1 corpus report")
    return doc


def main(argv):
    if len(argv) != 3:
        sys.exit(f"usage: {argv[0]} BASELINE.json CURRENT.json")
    baseline = load(argv[1])
    current = load(argv[2])

    drifted = 0
    rows = [(("sites (count)",), len(baseline.get("sites", [])),
             len(current.get("sites", [])))]
    rows += [(p, lookup(baseline, p), lookup(current, p))
             for p in HEADLINE_PATHS]
    for path, base, cur in rows:
        name = ".".join(str(p) for p in path)
        if base == cur:
            continue
        drifted += 1
        print(f"WARNING: {name}: baseline={base} current={cur}")

    if drifted:
        print(f"\n{drifted} headline counter(s) drifted from {argv[1]}.")
        print("If intentional, regenerate the baseline in this PR:")
        print("  ./build/tools/webracer-cli corpus --json "
              "bench/baseline.json")
    else:
        print(f"OK: headline counters match {argv[1]}")
    return 0  # Warn-only by design.


if __name__ == "__main__":
    sys.exit(main(sys.argv))
