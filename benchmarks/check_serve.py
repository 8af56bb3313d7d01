"""CI regression gate for the compile-service benchmark trajectory.

Compares a freshly measured ``bench_serve.json`` against the committed
``BENCH_serve.json`` baseline.  Gated quantities are machine-independent:

* ``latency.warm_speedup`` — warm-hit requests vs cold compiles (a ratio
  of two latencies measured on the same host in the same process);
* ``dedup.dedup_collapse`` — identical concurrent requests per planner
  search actually run (a pure counting ratio; any drop means the
  singleflight window broke).

Raw requests/sec and latency percentiles are recorded in the trajectory
for humans but not gated — they track host speed, not the code.

Usage::

    python benchmarks/check_serve.py \
        --baseline BENCH_serve.json --current bench_serve.json

Exit status 0 when every gate holds, 1 with per-gate delta messages
otherwise.
"""

import argparse
import json
import sys

# (section, key) ratios gated with tolerance against the baseline.
GATED_RATIOS = (("latency", "warm_speedup"), ("dedup", "dedup_collapse"))
DEFAULT_TOLERANCE = 0.20


def load_trajectory(path):
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("format") != "tofu-bench-serve":
        raise SystemExit(f"{path}: not a compile-service trajectory file")
    return payload


def compare(baseline, current, tolerance):
    """(ok, messages): one message per gate, failures marked."""
    messages = []
    ok = True
    for section, key in GATED_RATIOS:
        base = baseline[section][key]
        now = current.get(section, {}).get(key)
        if now is None:
            ok = False
            messages.append(f"FAIL {section}.{key}: missing from current run")
            continue
        floor = base * (1.0 - tolerance)
        delta = (now - base) / base * 100.0
        line = (
            f"{section}.{key}: baseline {base:.2f}x, current {now:.2f}x "
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
    parser.add_argument("--baseline", default="BENCH_serve.json")
    parser.add_argument("--current", default="bench_serve.json")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="allowed fractional regression per gated ratio (default 0.20)",
    )
    args = parser.parse_args(argv)

    baseline = load_trajectory(args.baseline)
    current = load_trajectory(args.current)
    ok, messages = compare(baseline, current, args.tolerance)
    for message in messages:
        print(message)
    if not ok:
        print(
            f"\ncompile-service regression: a gated quantity fell more than "
            f"{args.tolerance:.0%} below BENCH_serve.json; if the change is "
            f"intentional, refresh the baseline (see benchmarks/bench_serve.py)"
        )
        return 1
    print("\ncompile-service trajectory holds within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
