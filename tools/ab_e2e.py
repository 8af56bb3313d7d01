#!/usr/bin/env python3
"""A/B two git revisions on the end-to-end benchmark, in alternating pairs.

Usage::

    python3 tools/ab_e2e.py BASE HEAD --workload rnn-paper --pairs 10 \\
        --first-seed 101 --seconds 5 --label my-change

Each revision is checked out as a detached ``git worktree`` in a temporary
directory (``TMPDIR`` picks where), removed again at the end.  Pair ``i``
runs ``benchmarks/e2e/run.py --workload W --seed FIRST+i --seconds S
--trace 0`` once in each checkout: the base first in even pairs, the head
first in odd ones, so a host that drifts weighs on both sides alike.  Give
``--workload`` more than once to measure several workloads; the pairs of
one workload run before the next workload starts.

The result goes into ``--out`` (default ``BENCH_e2e.json``) under
``--label``, replacing an earlier result of that label and keeping the
others.  It records both revisions, the pair count, ``--seconds`` and
``os.cpu_count()``, every pair's metrics, and per workload and end-to-end
metric of ``BENCHMARK.json``:

* each side's median and interquartile range (``statistics.quantiles``
  with ``n=4``, as ``benchmarks/e2e/agree.py`` computes it);
* the median and interquartile range of the paired ratios head / base, and
  the number of pairs the head won (strictly better, in the metric's
  ``better`` direction);
* whether the medians differ by more than the base's interquartile range;
* the verdicts the benchmark applies: ``regressed`` when the head median is
  worse than the base median by more than the metric's relative ``bound``,
  ``gain`` when the head won at least nine pairs in ten and its median
  is better than the base median by more than the base's interquartile
  range, and ``unresolved`` when the base's interquartile range, relative
  to its median, is wider than the bound, so the runs spread too widely
  to call the metric unchanged — unless every head run beats every base
  run (choosing-metrics §6.5).

Only pairs where both sides report a metric enter its statistics.

A simulated metric (:data:`SIMULATED`) must not move at all between two
checkouts of the same search: any pair where one differs is listed under
``moved``.  Every side of a pair also records the run's ``correct``,
``attempted`` and ``failed``, since ``run.py`` exits 0 even when a config
fails: a pair where either side is not correct, or where the head failed
more operations than the base, is listed under ``broken``.  The exit
status is 1 when either list is not empty or a metric regressed.  Running
a revision against itself is the null experiment; its widest paired-ratio
interquartile range is the resolution of the method on that host.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = REPO_ROOT / "BENCHMARK.json"
SIMULATED = ("sim_throughput", "peak_device_gib", "comm_gib_per_iter", "fidelity_gap")
SIDES = ("base", "head")


def pair_plan(pairs: int, first_seed: int) -> List[Tuple[int, Tuple[str, str]]]:
    """``(seed, side order)`` of each pair: the base runs first in even
    pairs and the head in odd ones."""
    return [
        (first_seed + i, SIDES if i % 2 == 0 else SIDES[::-1])
        for i in range(pairs)
    ]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """First quartile, median and third quartile of ``values``."""
    if len(values) < 2:
        return (values[0],) * 3 if values else (float("nan"),) * 3
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def wins(base: float, head: float, better: str) -> bool:
    return head < base if better == "lower" else head > base


def summarize(
    samples: List[Dict], better: Dict[str, str], bounds: Dict[str, float]
) -> Dict:
    """Per-metric statistics of one workload's pairs.

    ``samples`` holds one ``{"seed", "order", "base", "head"}`` record per
    pair, each side a ``metric -> value`` dict that also holds the run's
    ``correct``, ``attempted`` and ``failed``; ``better`` maps each
    end-to-end metric to ``"lower"`` or ``"higher"``, and ``bounds`` to the
    relative worsening of its median that counts as a regression.
    """
    metrics: Dict[str, Dict] = {}
    for name, direction in better.items():
        pairs = [
            (s["base"][name], s["head"][name]) for s in samples
            if name in s["base"] and name in s["head"]
        ]
        if not pairs:
            continue
        base, head = (list(side) for side in zip(*pairs))
        sides = {}
        for side, values in (("base", base), ("head", head)):
            q1, median, q3 = quartiles(values)
            sides[side] = {"median": median, "iqr": q3 - q1}
        ratios = [h / b for b, h in pairs if b]
        q1, median, q3 = quartiles(ratios)
        won = sum(wins(b, h, direction) for b, h in pairs)
        # The head median's shift in the better direction (negative: worse).
        gained = sides["head"]["median"] - sides["base"]["median"]
        if direction == "lower":
            gained = -gained
        metrics[name] = {
            **sides,
            "paired_ratio_median": median,
            "paired_ratio_iqr": q3 - q1,
            "wins": won,
            "pairs": len(pairs),
            "median_shift_exceeds_base_iqr": abs(gained) > sides["base"]["iqr"],
            "regressed": -gained > bounds[name] * abs(sides["base"]["median"]),
            "gain": won * 10 >= 9 * len(pairs) and gained > sides["base"]["iqr"],
            "unresolved": (
                sides["base"]["iqr"] > bounds[name] * abs(sides["base"]["median"])
                and not all(wins(b, h, direction) for b in base for h in head)
            ),
        }
    moved = sorted({
        name for s in samples for name in SIMULATED
        if s["base"].get(name) != s["head"].get(name)
    })
    broken = [
        s["seed"] for s in samples
        if not (s["base"]["correct"] and s["head"]["correct"])
        or s["head"]["failed"] > s["base"]["failed"]
    ]
    return {"metrics": metrics, "moved": moved, "broken": broken}


def record_result(out: Path, label: str, result: Dict) -> Dict:
    """``out``'s experiments with ``label`` set to ``result``."""
    document = {"experiments": {}}
    if out.exists():
        document = json.loads(out.read_text(encoding="utf-8"))
    document["experiments"][label] = result
    out.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n",
                   encoding="utf-8")
    return document


def declared_directions() -> Dict[str, str]:
    """End-to-end metric -> ``better`` direction, from ``BENCHMARK.json``."""
    declared = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    return {m["name"]: m["better"] for m in declared["end_to_end"]}


def declared_bounds() -> Dict[str, float]:
    """End-to-end metric -> relative ``bound``, from ``BENCHMARK.json``."""
    declared = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    return {m["name"]: m["bound"] for m in declared["end_to_end"]}


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> Dict:
    """One plain benchmark run in ``checkout``: its metrics by name, and
    its ``correct``, ``attempted`` and ``failed``."""
    command = [
        sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} in {checkout}: {done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {
        **{name: metric["value"] for name, metric in result["metrics"].items()},
        **{key: result[key] for key in ("correct", "attempted", "failed")},
    }


@contextlib.contextmanager
def worktree(revision: str, directory: Path) -> Iterator[Path]:
    """``revision`` checked out, detached, at ``directory``."""
    subprocess.run(
        ["git", "worktree", "add", "--detach", str(directory), revision],
        cwd=REPO_ROOT, check=True, capture_output=True,
    )
    try:
        yield directory
    finally:
        subprocess.run(
            ["git", "worktree", "remove", "--force", str(directory)],
            cwd=REPO_ROOT, check=False, capture_output=True,
        )


def resolve(revision: str) -> str:
    return subprocess.run(
        ["git", "rev-parse", "--verify", f"{revision}^{{commit}}"],
        cwd=REPO_ROOT, check=True, capture_output=True, text=True,
    ).stdout.strip()


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="the revision measured against")
    parser.add_argument("head", help="the revision with the change")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--label", required=True,
                        help="the experiment's name in the output file")
    parser.add_argument("--out", type=Path, default=REPO_ROOT / "BENCH_e2e.json")
    args = parser.parse_args(argv)

    better, bounds = declared_directions(), declared_bounds()
    revisions = {"base": resolve(args.base), "head": resolve(args.head)}
    workloads: Dict[str, Dict] = {}
    with tempfile.TemporaryDirectory(prefix="ab_e2e-") as tmp, \
            worktree(revisions["base"], Path(tmp) / "base") as base_dir, \
            worktree(revisions["head"], Path(tmp) / "head") as head_dir:
        checkouts = {"base": base_dir, "head": head_dir}
        for workload in args.workload:
            samples = []
            for seed, order in pair_plan(args.pairs, args.first_seed):
                sample: Dict = {"seed": seed, "order": list(order)}
                for side in order:
                    sample[side] = run_once(
                        checkouts[side], workload, seed, args.seconds
                    )
                samples.append(sample)
                cold = [sample[s].get("compile_cold_s") for s in SIDES]
                print(f"{workload} seed {seed}: compile_cold_s {cold}", flush=True)
            workloads[workload] = {
                **summarize(samples, better, bounds), "samples": samples
            }

    result = {
        "revisions": revisions,
        "pairs": args.pairs,
        "first_seed": args.first_seed,
        "seconds": args.seconds,
        "cpu_count": os.cpu_count(),
        "workloads": workloads,
    }
    record_result(args.out, args.label, result)
    moved = {w: s["moved"] for w, s in workloads.items() if s["moved"]}
    broken = {w: s["broken"] for w, s in workloads.items() if s["broken"]}
    regressed = {
        w: names for w, s in workloads.items()
        if (names := [n for n, stats in s["metrics"].items() if stats["regressed"]])
    }
    for workload, summary in workloads.items():
        for name, stats in summary["metrics"].items():
            print(
                f"{workload:<14} {name:<18} base {stats['base']['median']:.6g} "
                f"head {stats['head']['median']:.6g} "
                f"ratio {stats['paired_ratio_median']:.4f} "
                f"wins {stats['wins']}/{stats['pairs']} "
                f"gain {stats['gain']} regressed {stats['regressed']}"
                f"{' unresolved' if stats['unresolved'] else ''}"
            )
    if moved:
        print(f"simulated metrics moved: {moved}", file=sys.stderr)
    if broken:
        print(f"pairs with a failed config (seeds): {broken}", file=sys.stderr)
    if regressed:
        print(f"metrics past their bound: {regressed}", file=sys.stderr)
    return 1 if moved or broken or regressed else 0


if __name__ == "__main__":
    sys.exit(main())
