#!/usr/bin/env python3
"""Diff two schema-1 corpus reports leaf by leaf.

Usage: diff_baseline.py BASELINE.json CURRENT.json

Compares every leaf of the two documents outside the per-site "sites"
rows (plus the site count): the aggregate stats object exactly as
RunStats::toJson() writes it, per-rule HB edges and the optional
wr_sampling / wr_prediction groups included, the raw-race
distributions, filtered totals, static-analysis precision tallies and
the triage groups. A leaf is named by its dotted path; array elements
by their index, and keys that are not plain identifiers are quoted
(aggregate.hb_edges_by_rule."rule 9 (dispatch order)"). A leaf present
on one side only prints with None on the other. The diff prints one
line per drifted leaf and is WARN-ONLY: drift exits 0 so CI surfaces
it without failing the build (counters legitimately move when the
corpus or detector changes; refresh the baseline in the same PR). Only
malformed input exits nonzero.
"""

import json
import re
import sys

PLAIN_KEY = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def leaves(node, path, out):
    """Fills out with dotted path -> scalar for every leaf under node."""
    if isinstance(node, dict):
        for key, child in node.items():
            name = key if PLAIN_KEY.match(key) else json.dumps(key)
            leaves(child, f"{path}.{name}" if path else name, out)
    elif isinstance(node, list):
        for index, child in enumerate(node):
            leaves(child, f"{path}.{index}", out)
    else:
        out[path] = node
    return out


def load(path):
    try:
        with open(path, "rb") as f:
            doc = json.load(f)
    except (OSError, ValueError) as err:
        sys.exit(f"error: cannot load {path}: {err}")
    if (not isinstance(doc, dict) or doc.get("schema") != 1
            or doc.get("kind") != "corpus"):
        sys.exit(f"error: {path} is not a schema-1 corpus report")
    return doc


def compared(doc):
    """The leaves the diff covers: everything but the per-site rows."""
    out = {"sites (count)": len(doc.get("sites", []))}
    return leaves({k: v for k, v in doc.items() if k != "sites"}, "", out)


def main(argv):
    if len(argv) != 3:
        sys.exit(f"usage: {argv[0]} BASELINE.json CURRENT.json")
    baseline = compared(load(argv[1]))
    current = compared(load(argv[2]))

    drifted = 0
    for name in list(baseline) + [n for n in current if n not in baseline]:
        base, cur = baseline.get(name), current.get(name)
        if base == cur and (name in baseline) == (name in current):
            continue
        drifted += 1
        print(f"WARNING: {name}: baseline={base} current={cur}")

    if drifted:
        print(f"\n{drifted} report leaf(s) drifted from {argv[1]}.")
        print("If intentional, regenerate the baseline in this PR:")
        print("  ./build/tools/webracer-cli corpus --json "
              "bench/baseline.json")
    else:
        print(f"OK: {len(baseline)} report leaves match {argv[1]}")
    return 0  # Warn-only by design.


if __name__ == "__main__":
    sys.exit(main(sys.argv))
