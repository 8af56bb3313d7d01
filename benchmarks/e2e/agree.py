#!/usr/bin/env python3
"""Do two sets of benchmark runs agree within the bounds of BENCHMARK.json?

Usage::

    python3 benchmarks/e2e/agree.py SET_A SET_B

Each set is a directory of plain-run records written by ``run.py``
(``<workload>.seed<n>.trace0.json``).  For every (workload, end-to-end
metric) pair it prints each set's median and spread — the interquartile
range over the median, from ``statistics.quantiles(values, n=4)`` — and a
verdict:

* ``unresolved``: a set's spread is wider than the metric's bound (not
  checked for ``setup_s``, whose bound covers set-up work moved around);
* ``disagree``: either median is worse than the other by more than the
  bound, as a share of the other;
* ``agree`` otherwise.

A spread above a third of its bound is flagged ``wide``.  With one set,
only medians and spreads are printed.  Exit status 0 when every pair
agrees.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
EXEMPT_FROM_SPREAD = ("setup_s",)


def load_set(directory: str) -> Dict[str, Dict[str, List[float]]]:
    """workload -> metric -> values, one per plain run in ``directory``."""
    out: Dict[str, Dict[str, List[float]]] = {}
    for path in sorted(Path(directory).glob("*.trace0.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        metrics = out.setdefault(record["workload"], {})
        for name, metric in record["result"]["metrics"].items():
            metrics.setdefault(name, []).append(metric["value"])
    return out


def spread(values: List[float]) -> float:
    if len(values) < 2:
        return float("inf")
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else (0.0 if q3 == q1 else float("inf"))


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    if a == b:
        return 0.0
    if a == 0:
        return float("inf")
    change = (b - a) / abs(a)
    return change if better == "lower" else -change


def verdict(a: List[float], b: List[float], metric: dict) -> str:
    bound = metric["bound"]
    if metric["name"] not in EXEMPT_FROM_SPREAD and max(spread(a), spread(b)) > bound:
        return "unresolved"
    ma, mb = statistics.median(a), statistics.median(b)
    if max(worse_by(ma, mb, metric["better"]), worse_by(mb, ma, metric["better"])) > bound:
        return "disagree"
    return "agree"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sets", nargs="+", help="one or two run-record directories")
    parser.add_argument("--benchmark", default=str(BENCHMARK))
    args = parser.parse_args(argv)
    if len(args.sets) > 2:
        parser.error("give one or two sets")
    metrics = json.loads(Path(args.benchmark).read_text(encoding="utf-8"))["end_to_end"]
    sets = [load_set(directory) for directory in args.sets]
    status = 0
    for workload in sorted(set().union(*sets)):
        runs = [len(next(iter(s.get(workload, {}).values()), [])) for s in sets]
        print(f"{workload}  (runs: {', '.join(map(str, runs))})")
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            columns = []
            values = [s.get(workload, {}).get(name, []) for s in sets]
            if not all(values):
                print(f"  {name:<20} missing")
                status = 1
                continue
            for v in values:
                wide = "wide" if spread(v) > bound / 3 else ""
                columns.append(
                    f"median {statistics.median(v):>12.6g} spread {spread(v):6.3f} {wide:<4}"
                )
            line = f"  {name:<20} bound {bound:<8g} " + " | ".join(columns)
            if len(values) == 2:
                result = verdict(values[0], values[1], metric)
                status |= result != "agree"
                line += f"  {result}"
            print(line)
    return status


if __name__ == "__main__":
    sys.exit(main())
