#!/usr/bin/env python3
"""Alternating runs of the benchmark on a parent revision and on this checkout.

Each pair runs ``perfbench/run.py --workload W --seed S --seconds N`` once
in a tree built from ``git archive REV`` in a temporary directory and once
in this checkout (the working tree, uncommitted edits included), each
tree's own ``perfbench/run.py`` from that tree's root, with
``PYTHONDONTWRITEBYTECODE=1`` and no ``PYTHONPATH``.  Pairs alternate which
side runs first.  After every run it prints that run's end-to-end metrics;
at the end, for each end-to-end metric of ``BENCHMARK.json``, each side's
median and quartiles, the change/parent ratio of the medians, how many
pairs the change won (ties count for neither), and whether the medians
differ by more than the parent's quartile spread.

Exits non-zero if any run does not report ``correct``.

    python3 benchmarks/pairs.py --parent HEAD~1 --workload ladder --pairs 10
    python3 benchmarks/pairs.py --parent main --workload grid --seed 7 --pairs 5
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from same_behaviour import ROOT, parent_tree


def run(tree: Path, args) -> dict:
    """The result line of one ``perfbench/run.py`` run on ``tree``, or a
    result with ``correct`` false if it printed none."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    argv = [
        sys.executable, str(tree / "perfbench" / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--size", args.size,
    ]
    proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr[-2000:])
        return {"correct": False, "metrics": {}}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, metavar="REV", help="git revision")
    parser.add_argument("--workload", required=True, choices=("grid", "ladder", "oracle"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=34.0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--size", choices=("full", "toy"), default="full")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    values = {side: {m["name"]: [] for m in spec} for side in ("parent", "change")}
    correct = True
    with tempfile.TemporaryDirectory(prefix="pairs_") as tmp:
        trees = {"parent": parent_tree(args.parent, Path(tmp) / "parent"), "change": ROOT}
        for k in range(args.pairs):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                result = run(trees[side], args)
                correct &= bool(result["correct"])
                shown = []
                for m in spec:
                    value = result["metrics"].get(m["name"], {}).get("value")
                    if value is not None:
                        values[side][m["name"]].append(value)
                    shown.append(f"{m['name']}={value}")
                print(f"pair {k + 1}/{args.pairs} {side:>6}: correct={result['correct']} "
                      + " ".join(shown), flush=True)
    print(f"{args.workload} seed {args.seed}, {args.seconds:g} s, {args.pairs} pairs, "
          f"change against {args.parent}:")
    print(f"{'metric':>15} {'unit':>5} {'parent median [q1, q3]':>26} "
          f"{'change median [q1, q3]':>26} {'ratio':>6} {'won':>6} gap>iqr")
    for m in spec:
        parent, change = values["parent"][m["name"]], values["change"][m["name"]]
        if not parent or not change:
            print(f"{m['name']:>15} {m['unit']:>5} missing")
            continue
        (p1, p2, p3), (c1, c2, c3) = quartiles(parent), quartiles(change)
        sign = 1 if m["better"] == "lower" else -1
        won = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
        print(f"{m['name']:>15} {m['unit']:>5} {p2:10.4g} [{p1:.4g}, {p3:.4g}] "
              f"{c2:10.4g} [{c1:.4g}, {c3:.4g}] {c2 / p2:6.3f} "
              f"{won:>2}/{min(len(parent), len(change)):<3} {abs(c2 - p2) > p3 - p1}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
