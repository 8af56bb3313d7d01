#!/usr/bin/env python
"""Check that the partition search still returns the paper-scale plans.

``tests/data/paper_plan_signatures.json`` pins the :func:`plan_signature` of
the ``tofu`` plan of each model of the end-to-end benchmark grid (the
paper's RNN-10-8K and six WResNets, at their benchmark batch sizes) on 8
workers.  The golden digests of ``tests/partition/test_plan_digests.py``
cover only toy models; these hold the search to bit-identical plans on the
models whose search time the benchmark measures.  Each plan is searched the
way ``repro.compile`` searches it, by a fresh :class:`Planner`.

Check every pin (exit status 1 and one line per moved plan)::

    python tools/check_plan_signatures.py

After a change that is meant to move plans, rewrite the pins and review the
diff::

    python tools/check_plan_signatures.py --write
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Dict

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.models.resnet import build_wide_resnet  # noqa: E402
from repro.models.rnn import build_rnn  # noqa: E402
from repro.partition.plan import plan_signature  # noqa: E402
from repro.planner import Planner, PlannerConfig  # noqa: E402
from repro.sim.device import k80_8gpu_machine  # noqa: E402

PINS = REPO_ROOT / "tests" / "data" / "paper_plan_signatures.json"
BUILDERS = {"rnn": build_rnn, "wresnet": build_wide_resnet}


def search_signature(pin: Dict) -> str:
    """The signature of a fresh ``tofu`` search of ``pin``'s model."""
    graph = BUILDERS[pin["builder"]](**pin["kwargs"]).graph
    workers = pin["workers"]
    planner = Planner(PlannerConfig(cache_capacity=0))
    plan = planner.plan(graph, workers, machine=k80_8gpu_machine(workers))
    return plan_signature(plan)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    write = argv == ["--write"]
    if argv and not write:
        print(__doc__, file=sys.stderr)
        return 2
    pins = json.loads(PINS.read_text(encoding="utf-8"))
    moved = 0
    for pin in pins["plans"]:
        start = time.perf_counter()
        signature = search_signature(pin)
        seconds = time.perf_counter() - start
        same = signature == pin["signature"]
        verdict = "ok" if same else f"MOVED from {pin['signature'][:16]}"
        print(f"{pin['config']:<20} {signature[:16]}  {seconds:5.2f} s  {verdict}")
        moved += not same
        pin["signature"] = signature
    if write:
        PINS.write_text(json.dumps(pins, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {PINS.relative_to(REPO_ROOT)}")
        return 0
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
