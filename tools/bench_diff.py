"""Compare perfbench runs of a parent and a change, metric by metric.

Usage: python tools/bench_diff.py PARENT_FILE CHANGE_FILE [--benchmark PATH]

Each file holds the tail of ``perfbench/run.py`` runs: its
``# <workload> seed=...`` summary line followed by the JSON result line.
Runs are grouped by workload and paired in file order (the i-th parent
run with the i-th change run). For every workload and metric it prints
the parent and change medians, the parent's IQR/median, how many pairs
the change won, and ``WORSE`` where the change's median moved against the
metric's ``better`` direction by more than its ``BENCHMARK.json`` bound.
Exits 1 if any metric is flagged or a run is incorrect or failed an
operation. ``BENCHMARK.json`` is only read.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_runs(lines) -> dict[str, list[dict]]:
    """workload -> result objects, in order. A result line belongs to the
    workload named by the last summary line before it."""
    runs: dict[str, list[dict]] = {}
    workload = "-"
    for line in lines:
        line = line.strip()
        if line.startswith("# "):
            workload = line[2:].split()[0]
        elif line.startswith("{"):
            runs.setdefault(workload, []).append(json.loads(line))
    return runs


def compare(parent: list[dict], change: list[dict], spec: dict) -> list[dict]:
    """One row per metric present in both run lists."""
    better = {m["name"]: (m["better"], m.get("bound"))
              for m in spec["end_to_end"] + spec["per_layer"]}
    names = [m for m in better
             if all(m in r["metrics"] for r in parent + change)]
    rows = []
    for m in names:
        p = np.array([r["metrics"][m]["value"] for r in parent], float)
        c = np.array([r["metrics"][m]["value"] for r in change], float)
        direction, bound = better[m]
        pm, cm = float(np.median(p)), float(np.median(c))
        q1, q3 = np.percentile(p, [25, 75])
        sign = 1.0 if direction == "lower" else -1.0
        pairs = min(len(p), len(c))
        wins = int(np.sum(sign * (c[:pairs] - p[:pairs]) < 0))
        worse = sign * (cm - pm) / pm if pm else 0.0
        rows.append({"metric": m, "parent": pm, "change": cm,
                     "parent_iqr": float(q3 - q1) / pm if pm else 0.0,
                     "wins": wins, "pairs": pairs,
                     "flag": bound is not None and worse > bound})
    return rows


def unhealthy(runs: list[dict]) -> int:
    """Runs that were incorrect or failed an operation."""
    return sum(1 for r in runs if not r["correct"] or r["failed"])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--benchmark", default=os.path.join(_ROOT,
                                                        "BENCHMARK.json"))
    args = ap.parse_args(argv)
    with open(args.benchmark) as f:
        spec = json.load(f)
    with open(args.parent) as f:
        parent = parse_runs(f)
    with open(args.change) as f:
        change = parse_runs(f)
    failed = False
    for w in sorted(set(parent) & set(change)):
        bad_p, bad_c = unhealthy(parent[w]), unhealthy(change[w])
        print(f"## {w}: {len(parent[w])} parent runs ({bad_p} incorrect or "
              f"failing), {len(change[w])} change runs ({bad_c})")
        failed |= bool(bad_p or bad_c)
        print(f"{'metric':34} {'parent':>12} {'change':>12} "
              f"{'move':>7} {'p_iqr':>6} {'wins':>6}")
        for r in compare(parent[w], change[w], spec):
            move = (r["change"] - r["parent"]) / r["parent"] \
                if r["parent"] else 0.0
            print(f"{r['metric']:34} {r['parent']:12.6g} {r['change']:12.6g}"
                  f" {move:+7.1%} {r['parent_iqr']:6.2f} "
                  f"{r['wins']:>3}/{r['pairs']:<2}"
                  + ("  WORSE" if r["flag"] else ""))
            failed |= r["flag"]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
