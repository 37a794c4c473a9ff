#!/usr/bin/env python3
"""Compare two sets of benchmark runs against the bounds in BENCHMARK.json.

    python3 benchmarks/perf/compare.py SET_A SET_B

A set is a directory of run records written by ``run.py --out`` (or a
single record file). For every workload and end-to-end metric the
table shows each set's median and spread - the distance between the
first and third quartile, as ``statistics.quantiles(values, n=4)``
gives them, as a share of the median - and the change of B's median
against A's. A metric passes when both spreads are within its bound
and the two medians differ by less than the bound. Failed operations in any run
fail the comparison. Exit status 1 means some check failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]


def load_set(path: Path) -> Dict[str, List[dict]]:
    """workload -> run records (untraced runs only)."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs: Dict[str, List[dict]] = {}
    for f in files:
        record = json.loads(f.read_text(encoding="utf-8"))
        if not record.get("trace"):
            runs.setdefault(record["workload"], []).append(record)
    return runs


def spread(values: Sequence[float]) -> Tuple[float, float]:
    """(median, (Q3 - Q1) / median); a single run has no spread."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def compare(a: Dict[str, List[dict]], b: Dict[str, List[dict]], bench: dict) -> bool:
    ok = True
    print(f"{'workload':<15} {'metric':<13} {'unit':<5} {'A median':>11} {'A iqr':>7} "
          f"{'B median':>11} {'B iqr':>7} {'B vs A':>8} {'bound':>6}  verdict")
    for workload in sorted(set(a) | set(b)):
        runs_a, runs_b = a.get(workload, []), b.get(workload, [])
        if not runs_a or not runs_b:
            print(f"{workload:<15} missing from one set")
            ok = False
            continue
        for runs, label in ((runs_a, "A"), (runs_b, "B")):
            bad = [r["seed"] for r in runs
                   if r["result"]["failed"] or not r["result"]["correct"]]
            if bad:
                print(f"{workload:<15} set {label}: failed or incorrect runs, seeds {bad}")
                ok = False
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            med_a, iqr_a = spread([r["result"]["metrics"][name]["value"] for r in runs_a])
            med_b, iqr_b = spread([r["result"]["metrics"][name]["value"] for r in runs_b])
            change = (med_b - med_a) / med_a
            problems = []
            if max(iqr_a, iqr_b) > bound:
                problems.append("spread")
            if abs(change) >= bound:
                problems.append("median")
            ok = ok and not problems
            print(f"{workload:<15} {name:<13} {metric['unit']:<5} {med_a:>11.5g} "
                  f"{iqr_a:>7.1%} {med_b:>11.5g} {iqr_b:>7.1%} {change:>+8.1%} "
                  f"{bound:>6.0%}  {'ok' if not problems else 'FAIL ' + ','.join(problems)}")
    return ok


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("set_a", type=Path)
    parser.add_argument("set_b", type=Path)
    parser.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)
    bench = json.loads(args.benchmark.read_text(encoding="utf-8"))
    return 0 if compare(load_set(args.set_a), load_set(args.set_b), bench) else 1


if __name__ == "__main__":
    sys.exit(main())
