"""CI regression gate for the hot-path benchmark trajectory.

Compares a freshly measured ``bench_hotpath.json`` against the committed
``BENCH_hotpath.json`` baseline and fails when any scenario's *speedup
ratio* (compiled-vs-reference simulation, warm-vs-cold lowering) regresses
by more than the tolerance.  Ratios — not absolute throughput — are gated:
both sides of each ratio run on the same host in the same process, so the
ratio is machine-independent while raw simulations/sec are not.
``lower_speedup`` is warm ÷ cold lowerings/sec, so making cold lowering
faster lowers it even though nothing got slower.

Usage::

    python benchmarks/check_hotpath.py \
        --baseline BENCH_hotpath.json --current bench_hotpath.json

Exit status 0 when every scenario holds, 1 with per-scenario delta messages
otherwise.
"""

import argparse
import json
import sys

GATED_RATIOS = ("sim_speedup", "lower_speedup")
DEFAULT_TOLERANCE = 0.20


def load_trajectory(path):
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("format") != "tofu-bench-hotpath":
        raise SystemExit(f"{path}: not a hot-path trajectory file")
    return {row["scenario"]: row for row in payload["scenarios"]}


def compare(baseline, current, tolerance):
    """(ok, messages): one message per gated ratio, worst offenders marked."""
    messages = []
    ok = True
    for scenario, base_row in sorted(baseline.items()):
        row = current.get(scenario)
        if row is None:
            ok = False
            messages.append(f"FAIL {scenario}: missing from current run")
            continue
        for ratio in GATED_RATIOS:
            base = base_row[ratio]
            now = row[ratio]
            floor = base * (1.0 - tolerance)
            delta = (now - base) / base * 100.0
            line = (
                f"{scenario} {ratio}: baseline {base:.2f}x, current {now:.2f}x "
                f"({delta:+.1f}%, floor {floor:.2f}x)"
            )
            if now < floor:
                ok = False
                messages.append(f"FAIL {line}")
            else:
                messages.append(f"ok   {line}")
    return ok, messages


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", default="BENCH_hotpath.json")
    parser.add_argument("--current", default="bench_hotpath.json")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="allowed fractional regression per ratio (default 0.20)",
    )
    args = parser.parse_args(argv)

    baseline = load_trajectory(args.baseline)
    current = load_trajectory(args.current)
    ok, messages = compare(baseline, current, args.tolerance)
    for message in messages:
        print(message)
    if not ok:
        print(
            f"\nhot-path regression: a speedup ratio fell more than "
            f"{args.tolerance:.0%} below BENCH_hotpath.json; if the change is "
            f"intentional, refresh the baseline (see benchmarks/bench_hotpath.py)"
        )
        return 1
    print("\nhot-path trajectory holds within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
