#!/usr/bin/env python3
"""End-to-end benchmark of ``repro.compile`` on the paper's model grid.

Run every workload, each in a fresh child process, and print every metric
with its unit::

    python3 benchmarks/e2e/run.py [--seed N] [--seconds S] [--trace 0|1]

Run one workload in this process (the last line of standard output is the
JSON result: ``correct``, ``attempted``, ``failed``, ``metrics``)::

    python3 benchmarks/e2e/run.py --workload rnn-paper --seed 1 --seconds 10 --trace 0

``--trace 1`` reports the per-layer metrics instead of the end-to-end ones
and writes the spans as Chrome trace-event JSON.  Every run writes its full
record, samples included, under ``--out-dir`` (default
``benchmarks/e2e/out``).  The program under test is imported from the
checkout's ``src``; without it the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
DEFAULT_OUT = HERE / "out"

sys.path.insert(0, str(HERE))

from clock import Clock  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload in this process (default: all, "
                             "each in a child process)")
    parser.add_argument("--seed", type=int, default=1,
                        help="shuffles the compile order of each round")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measure for this long (at least one round)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics and a Chrome trace")
    parser.add_argument("--out-dir", default=str(DEFAULT_OUT),
                        help="directory for run records and traces")
    return parser.parse_args(argv)


def run_one(args) -> int:
    clock = Clock()
    sys.path.insert(0, str(SRC))
    try:
        harness, import_s, _ = clock.time(__import__, "harness")
        origin = Path(harness.repro.__file__).resolve()
        if not origin.is_relative_to(SRC):
            raise ImportError(f"repro resolves to {origin}, outside {SRC}")
    except ImportError as exc:
        print(f"error: cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    record = harness.run_workload(
        WORKLOADS[args.workload], seed=args.seed, seconds=args.seconds,
        trace=bool(args.trace), import_s=import_s, out_dir=args.out_dir,
        clock=clock,
    )
    result = record["result"]
    for name, metric in result["metrics"].items():
        print(f"{args.workload:<14} {name:<28} {metric['value']:>14.6g} {metric['unit']}")
    for failure in record["detail"]["failures"]:
        print(f"FAILED {failure['config']}: {failure['what']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    results = {}
    status = 0
    for name in WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--out-dir", args.out_dir,
        ]
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if child.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {child.returncode}", file=sys.stderr)
            return child.returncode or 1
        results[name] = json.loads(lines[-1])
        if not results[name]["correct"]:
            status = 1
    path = Path(args.out_dir) / f"all.seed{args.seed}.trace{args.trace}.json"
    path.write_text(json.dumps(results, indent=1, sort_keys=True), encoding="utf-8")
    print(f"wrote {path}")
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
