"""Autotuner trajectory: staged-search throughput, screening coverage,
heterogeneous placement.

Drives :class:`repro.tuner.Tuner` through the three claims the autotuner
exists for and records, per scenario:

* **parallel** — candidate throughput of the staged pooled search
  (``jobs=2``, static screen in the parent, survivors fanned across the
  process pool) against the legacy serial ``auto`` sweep that fully
  compiles and simulates every candidate; the ``speedup`` ratio is the
  acceptance criterion (≥ 2x).  A serial sweep re-run checks the
  determinism contract: identical winner content address.
* **screening** — candidates the screened sweep decides in the wall-clock
  the legacy sweep needs for its fixed grid (``coverage_ratio``, ≥ 3x).
* **hetero** — on a 2-machine cluster with unequal device counts the
  tuner's aligned-replica candidate ordering must beat the symmetric
  ``dp:2`` placement that straddles the machine boundary (boolean).

Both gated ratios are machine-independent: each divides two wall-clock
rates measured on the same host in the same process.  The run writes a
JSON trajectory; ``benchmarks/check_tuner.py`` gates CI on it against the
committed ``BENCH_tuner.json`` baseline.  Refresh the baseline with::

    REPRO_BENCH_OUTPUT=BENCH_tuner.json \
        python -m pytest benchmarks/bench_tuner.py --benchmark-only

Scenario order matters: the pooled measurement runs first, against a
still-small parent heap, so the fork cost it pays is the one a fresh
``tofu-repro tune`` invocation would pay.
"""

import json
import os
import time

from common import FULL, once, print_header

from repro import compiler
from repro.errors import (
    ExecutionError,
    PartitionError,
    SimulationError,
    StrategyError,
)
from repro.models.rnn import build_rnn
from repro.planner.core import Planner
from repro.runtime.core import Executor
from repro.sim.device import ClusterSpec, DeviceSpec, MachineSpec, k80_8gpu_machine
from repro.tuner import Tuner

BENCH_FORMAT = "tofu-bench-tuner"
BENCH_VERSION = 1

# Acceptance: the staged pooled search must decide candidates at least this
# much faster than the legacy full-evaluation sweep...
PARALLEL_MIN_SPEEDUP = 2.0
# ...and the screened sweep must cover at least this many times the
# candidates of the legacy sweep at equal wall-clock.
SCREEN_MIN_COVERAGE = 3.0

# Per-device memory as a fraction of the model's weight bytes.  At 0.5 W
# only sharded strategies fit (persistent state is 3 W / shards), so the
# static screen decides most of the grid without touching the planner —
# the regime the staged search is built for.
MEMORY_HEADROOM = 0.5

DETERMINISM_JOBS = (2, 3) if FULL else (2,)


def _tight_rnn():
    """A weight-dominated RNN on a machine that only sharded strategies fit."""
    graph = build_rnn(
        num_layers=2, hidden_size=2048, seq_len=4, batch_size=16
    ).graph
    capacity = int(MEMORY_HEADROOM * graph.weight_bytes())
    machine = MachineSpec(
        devices=[
            DeviceSpec(name=f"gpu{i}", memory_bytes=capacity) for i in range(8)
        ]
    )
    return graph, machine


# The pre-tuner ``auto`` grid on an 8-device machine: both leaves, every
# divisor replica-group and stage count, and the composed dp/pipeline/tofu
# chains, one schedule and micro-batch count.
LEGACY_GRID = (
    "tofu", "single", "dp:2/tofu", "dp:4/tofu", "dp:8/tofu",
    "pipeline:2:1f1b:4", "pipeline:4:1f1b:4", "pipeline:8:1f1b:4",
    "dp:2/pipeline:2:1f1b:4/tofu", "dp:2/pipeline:4:1f1b:4/tofu",
    "dp:4/pipeline:2:1f1b:4/tofu",
)


def _legacy_sweep(graph, machine):
    """The pre-tuner ``auto`` behaviour: fully compile and simulate every
    candidate of the fixed grid, skipping the ones that fail."""
    assert machine.num_devices == 8, "LEGACY_GRID is the 8-device grid"
    pool = LEGACY_GRID
    start = time.perf_counter()
    best = None
    for candidate in pool:
        try:
            model = compiler.compile(
                graph, candidate, machine, planner=Planner(), executor=Executor()
            )
        except (StrategyError, ExecutionError, PartitionError, SimulationError):
            continue
        if not model.oom and (
            best is None or model.iteration_time < best.iteration_time
        ):
            best = model
    wall = time.perf_counter() - start
    return len(pool), wall, best


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------
def _measure_parallel():
    """Staged pooled search vs the legacy serial full-evaluation sweep."""
    graph, machine = _tight_rnn()

    start = time.perf_counter()
    pooled = Tuner(jobs=2).tune(
        graph, machine, planner=Planner(), executor=Executor()
    )
    pooled_wall = time.perf_counter() - start

    legacy_count, legacy_wall, legacy_best = _legacy_sweep(graph, machine)
    assert legacy_best is not None, "the legacy sweep must find a viable plan"

    deterministic = True
    for jobs in DETERMINISM_JOBS:
        serial = Tuner().tune(
            graph, machine, planner=Planner(), executor=Executor()
        )
        rerun = Tuner(jobs=jobs).tune(
            graph, machine, planner=Planner(), executor=Executor()
        )
        deterministic = deterministic and (
            serial.winner_key() == rerun.winner_key() == pooled.winner_key()
        )

    decided = len(pooled.outcomes)
    pooled_rate = decided / pooled_wall
    legacy_rate = legacy_count / legacy_wall
    return {
        "decided": decided,
        "pooled_seconds": pooled_wall,
        "pooled_candidates_per_sec": pooled_rate,
        "legacy_candidates": legacy_count,
        "legacy_seconds": legacy_wall,
        "legacy_candidates_per_sec": legacy_rate,
        "speedup": pooled_rate / legacy_rate,
        "jobs": pooled.stats["jobs"],
        "start_method": pooled.stats.get("start_method"),
        "determinism": deterministic,
        "counts": pooled.counts(),
    }


def _measure_screening():
    """Candidates the screened serial sweep decides at the legacy sweep's
    wall-clock, as a multiple of the legacy grid."""
    graph, machine = _tight_rnn()
    legacy_count, legacy_wall, _ = _legacy_sweep(graph, machine)

    start = time.perf_counter()
    result = Tuner().tune(graph, machine, planner=Planner(), executor=Executor())
    tuner_wall = time.perf_counter() - start

    decided = len(result.outcomes)
    counts = result.counts()
    screened = [o for o in result.outcomes if o.status == "screened"]
    assert all(o.reason for o in screened), (
        "every screened candidate must carry its rejection reason"
    )
    coverage = (decided / tuner_wall) * (legacy_wall / legacy_count)
    return {
        "grid": decided,
        "tuner_seconds": tuner_wall,
        "legacy_candidates": legacy_count,
        "legacy_seconds": legacy_wall,
        "coverage_ratio": coverage,
        "counts": counts,
    }


def _measure_hetero():
    """Aligned-replica candidates must beat symmetric placement on a
    2-machine cluster with unequal device counts (6 + 2 devices)."""
    cluster = ClusterSpec(
        machines=[k80_8gpu_machine(6), k80_8gpu_machine(2)],
        network_bandwidth=1.25e9,
        network_latency=40e-6,
    )
    graph = build_rnn(
        num_layers=2, hidden_size=256, seq_len=8, batch_size=32
    ).graph
    # dp:2 splits 8 devices into two groups of 4; on a 6+2 cluster one
    # group straddles the machine boundary and pays network collectives.
    symmetric = compiler.compile(
        graph, "dp:2/tofu", cluster, planner=Planner(), executor=Executor()
    )
    result = Tuner().tune(graph, cluster, planner=Planner(), executor=Executor())
    best = result.best
    return {
        "devices_per_machine": [6, 2],
        "symmetric_strategy": "dp:2/tofu",
        "symmetric_iteration_seconds": symmetric.iteration_time,
        "tuner_strategy": str(best.strategy),
        "tuner_iteration_seconds": best.iteration_time,
        "improvement": symmetric.iteration_time / best.iteration_time,
        "tuner_beats_symmetric": best.iteration_time < symmetric.iteration_time,
        "heterogeneous": result.stats["heterogeneous"],
    }


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------
def bench_tuner(benchmark):
    def run():
        # Pooled search first: fork cost scales with the parent heap, so it
        # must be measured before the serial sweeps grow it.
        return {
            "parallel": _measure_parallel(),
            "screening": _measure_screening(),
            "hetero": _measure_hetero(),
        }

    tiers = once(benchmark, run)

    parallel = tiers["parallel"]
    screening = tiers["screening"]
    hetero = tiers["hetero"]

    print_header("Autotuner: staged search throughput, screening, heterogeneity")
    print(
        f"parallel     {parallel['decided']} candidates in "
        f"{parallel['pooled_seconds']:.2f} s "
        f"({parallel['pooled_candidates_per_sec']:.0f}/s) vs legacy "
        f"{parallel['legacy_candidates']} in "
        f"{parallel['legacy_seconds']:.2f} s "
        f"({parallel['legacy_candidates_per_sec']:.0f}/s)   "
        f"speedup {parallel['speedup']:5.1f}x   "
        f"deterministic: {parallel['determinism']}"
    )
    print(
        f"screening    {screening['grid']} candidates decided in "
        f"{screening['tuner_seconds']:.2f} s "
        f"({screening['counts'].get('screened', 0)} screened, "
        f"{screening['counts'].get('evaluated', 0)} evaluated)   "
        f"coverage {screening['coverage_ratio']:5.1f}x of the legacy sweep"
    )
    print(
        f"hetero       6+2 devices: {hetero['symmetric_strategy']} "
        f"{hetero['symmetric_iteration_seconds'] * 1e3:.2f} ms vs tuner "
        f"{hetero['tuner_strategy']} "
        f"{hetero['tuner_iteration_seconds'] * 1e3:.2f} ms "
        f"({hetero['improvement']:.2f}x)"
    )

    output = os.environ.get("REPRO_BENCH_OUTPUT", "bench_tuner.json")
    payload = {
        "format": BENCH_FORMAT,
        "version": BENCH_VERSION,
        "mode": "full" if FULL else "smoke",
        "parallel": parallel,
        "screening": screening,
        "hetero": hetero,
    }
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"\nwrote {output}")

    # Acceptance criteria.
    assert parallel["speedup"] >= PARALLEL_MIN_SPEEDUP, (
        f"acceptance: staged pooled search must decide candidates "
        f"≥{PARALLEL_MIN_SPEEDUP}x faster than the legacy sweep, got "
        f"{parallel['speedup']:.1f}x"
    )
    assert parallel["determinism"], (
        "acceptance: serial and pooled sweeps must pick the same winner"
    )
    assert screening["coverage_ratio"] >= SCREEN_MIN_COVERAGE, (
        f"acceptance: the screened sweep must cover ≥{SCREEN_MIN_COVERAGE}x "
        f"the legacy candidates at equal wall-clock, got "
        f"{screening['coverage_ratio']:.1f}x"
    )
    assert hetero["tuner_beats_symmetric"], (
        "acceptance: the tuner must beat symmetric placement on the "
        "asymmetric cluster"
    )
    assert hetero["heterogeneous"], (
        "the 6+2 cluster must be reported as heterogeneous"
    )
