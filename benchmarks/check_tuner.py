"""CI regression gate for the autotuner benchmark trajectory.

Compares a freshly measured ``bench_tuner.json`` against the committed
``BENCH_tuner.json`` baseline.  Gated quantities are machine-independent:

* ``parallel.speedup`` — candidate throughput of the staged search vs the
  legacy full-evaluation sweep (a ratio of two rates measured on the same
  host in the same process);
* ``screening.coverage_ratio`` — candidates the screened sweep decides at
  the legacy sweep's wall-clock, as a multiple of the legacy grid;
* ``parallel.determinism`` — fresh reruns of the staged search still pick
  the same winner content address (boolean, no tolerance);
* ``hetero.tuner_beats_symmetric`` — the tuner still beats symmetric
  placement on the 6+2-device cluster (boolean, no tolerance).

Raw wall-clock seconds and candidates/sec are recorded in the trajectory
for humans but not gated — they track host speed, not the code.

Usage::

    python benchmarks/check_tuner.py \
        --baseline BENCH_tuner.json --current bench_tuner.json

Exit status 0 when every gate holds, 1 with per-gate delta messages
otherwise.
"""

import argparse
import json
import sys

# (section, key) ratios gated with tolerance against the baseline.
GATED_RATIOS = (("parallel", "speedup"), ("screening", "coverage_ratio"))
# (section, key) booleans that must be exactly true in the current run.
GATED_BOOLEANS = (("parallel", "determinism"), ("hetero", "tuner_beats_symmetric"))
DEFAULT_TOLERANCE = 0.20


def load_trajectory(path):
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("format") != "tofu-bench-tuner":
        raise SystemExit(f"{path}: not an autotuner trajectory file")
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

    for section, key in GATED_BOOLEANS:
        value = current.get(section, {}).get(key)
        if value is not True:
            ok = False
            messages.append(f"FAIL {section}.{key}: expected true, got {value!r}")
        else:
            messages.append(f"ok   {section}.{key}: holds")
    return ok, messages


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", default="BENCH_tuner.json")
    parser.add_argument("--current", default="bench_tuner.json")
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
            f"\nautotuner regression: a gated quantity fell more than "
            f"{args.tolerance:.0%} below BENCH_tuner.json; if the change is "
            f"intentional, refresh the baseline (see benchmarks/bench_tuner.py)"
        )
        return 1
    print("\nautotuner trajectory holds within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
