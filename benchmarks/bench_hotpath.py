"""Hot-path throughput trajectory: compiled simulator and program cache.

Measures, per (model, executor) scenario:

* **simulations/sec** — the pre-compilation reference event loop
  (``run_reference`` in ``tests/support/sim_oracle.py``) against the warm path
  (``TaskGraphSimulator.run_compiled`` replaying the program's dense form,
  compiled once by the first simulation; ``Executor.simulate`` itself
  replays a dense form only once, so timing it would time a memo hit), and
* **lowerings/sec** — a cold ``Executor.lower`` (every pass runs, rows
  emitted by reading the program's task graph) against a warm one
  (content-addressed program-cache hit).

Besides the printed table, the run writes a JSON trajectory whose *speedup
ratios* are machine-independent; ``benchmarks/check_hotpath.py`` gates CI on
them against the committed ``BENCH_hotpath.json`` baseline.  Refresh the
baseline with::

    REPRO_BENCH_OUTPUT=BENCH_hotpath.json \
        python -m pytest benchmarks/bench_hotpath.py --benchmark-only

Smoke mode (the default) uses reduced models and repeat counts; set
``REPRO_BENCH_FULL=1`` for the full grid.
"""

import gc
import json
import math
import os
import sys
import time
from pathlib import Path

from common import FULL, once, print_header

from repro.models.resnet import build_wide_resnet
from repro.models.rnn import build_rnn
from repro.partition.recursive import recursive_partition
from repro.runtime import Executor, ExecutorConfig, ProgramCache
from repro.runtime.cache import lowered_cache_key
from repro.sim.device import cluster_of, k80_8gpu_machine
from repro.sim.engine import TaskGraphSimulator

# The reference loop is the unit tests' parity oracle, importable from the
# repository root.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests.support.sim_oracle import run_reference

BENCH_FORMAT = "tofu-bench-hotpath"
BENCH_VERSION = 1

# Repeat counts: enough to stabilise the ratio, small enough for CI smoke.
SIM_REPEATS = 30 if FULL else 10
LOWER_REPEATS = 5 if FULL else 3

# The acceptance scenario: warm repeat-simulation of the RNN pipeline
# program must beat the reference loop by at least this factor.
RNN_PIPELINE_MIN_SPEEDUP = 3.0


def _rnn_bundle():
    if FULL:
        return build_rnn(num_layers=6, hidden_size=2048, seq_len=16, batch_size=128)
    return build_rnn(num_layers=6, hidden_size=1024, seq_len=8, batch_size=64)


def _wresnet_bundle():
    if FULL:
        return build_wide_resnet(depth=50, widen=4, batch_size=16, image_size=112)
    return build_wide_resnet(depth=50, widen=2, batch_size=8, image_size=64)


def _scenarios():
    """(name, bundle, machine, backend, options, plan) per scenario."""
    rnn = _rnn_bundle()
    wresnet = _wresnet_bundle()
    machine = k80_8gpu_machine(4)
    cluster = cluster_of(k80_8gpu_machine(4), 2)
    return [
        ("rnn/single", rnn, machine, "single-device", {}, None),
        (
            "rnn/pipeline",
            rnn,
            machine,
            "pipeline",
            {"num_stages": 4, "num_microbatches": 8},
            None,
        ),
        (
            "rnn/hybrid",
            rnn,
            machine,
            "hybrid",
            {"replica_groups": 2, "inner": "tofu-partitioned"},
            recursive_partition(rnn.graph, 2),
        ),
        (
            "wresnet/placement",
            wresnet,
            machine,
            "placement",
            {},
            None,
        ),
        (
            "wresnet/tofu",
            wresnet,
            machine,
            "tofu-partitioned",
            {},
            recursive_partition(wresnet.graph, 4),
        ),
        (
            "wresnet/cluster",
            wresnet,
            cluster,
            "tofu-partitioned",
            {},
            recursive_partition(wresnet.graph, 8),
        ),
    ]


def _rate(fn, repeats, blocks=3):
    """Calls/sec of ``fn``: the fastest of ``blocks`` back-to-back blocks of
    ``repeats`` calls, with the GC paused — best-of timing (timeit's idiom)
    so a transient stall on the host cannot fake a regression."""
    best = math.inf
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(blocks):
            start = time.perf_counter()
            for _ in range(repeats):
                fn()
            best = min(best, time.perf_counter() - start)
    finally:
        if gc_was_enabled:
            gc.enable()
    return repeats / best


def _measure(name, bundle, machine, backend, options, plan):
    graph = bundle.graph

    # Lowering: cold runs every pass (cache off); warm is a pure content-
    # addressed hit on a primed private cache.  Both read the task graph, so
    # a cold lowering also emits its rows (emission waits for a first read).
    cold_executor = Executor(ExecutorConfig(cache_programs=False))
    lower_cold_per_sec = _rate(
        lambda: cold_executor.lower(
            graph, plan=plan, machine=machine, backend=backend, backend_options=options
        ).task_graph,
        LOWER_REPEATS,
    )

    warm_executor = Executor(ExecutorConfig(program_cache_capacity=8))
    program = warm_executor.lower(
        graph, plan=plan, machine=machine, backend=backend, backend_options=options
    )
    lower_warm_per_sec = _rate(
        lambda: warm_executor.lower(
            graph, plan=plan, machine=machine, backend=backend, backend_options=options
        ).task_graph,
        LOWER_REPEATS,
    )
    cache_info = warm_executor.program_cache.info()
    assert cache_info["hits"] >= LOWER_REPEATS, (
        f"{name}: warm lowerings were not cache hits ({cache_info})"
    )

    # Simulation: the reference loop over a plain task dict (built once,
    # outside the timing) vs the event loop over the program's cached
    # dense form.
    simulator = TaskGraphSimulator(machine)
    tasks = dict(program.tasks)
    reference = run_reference(
        machine, tasks, peak_memory=program.per_device_memory
    )
    sim_reference_per_sec = _rate(
        lambda: run_reference(
            machine, tasks, peak_memory=program.per_device_memory
        ),
        SIM_REPEATS,
    )
    warm = warm_executor.simulate(program, machine)
    assert warm == reference, f"{name}: compiled simulation diverged from reference"
    sim_warm_per_sec = _rate(
        lambda: simulator.run_compiled(
            program.dense_form(machine), peak_memory=program.per_device_memory
        ),
        SIM_REPEATS,
    )

    return {
        "scenario": name,
        "model": bundle.name,
        "backend": backend,
        "num_tasks": len(program.tasks),
        "sim_reference_per_sec": sim_reference_per_sec,
        "sim_warm_per_sec": sim_warm_per_sec,
        "sim_speedup": sim_warm_per_sec / sim_reference_per_sec,
        "lower_cold_per_sec": lower_cold_per_sec,
        "lower_warm_per_sec": lower_warm_per_sec,
        "lower_speedup": lower_warm_per_sec / lower_cold_per_sec,
    }


def bench_hotpath(benchmark):
    scenarios = _scenarios()

    def run():
        return [_measure(*scenario) for scenario in scenarios]

    rows = once(benchmark, run)

    print_header(
        "Hot-path trajectory: simulations/sec and lowerings/sec (cold vs warm)"
    )
    print(
        f"{'scenario':<20} {'tasks':>6} {'sim ref/s':>10} {'sim warm/s':>11} "
        f"{'sim x':>6} {'low cold/s':>11} {'low warm/s':>11} {'low x':>7}"
    )
    for row in rows:
        print(
            f"{row['scenario']:<20} {row['num_tasks']:>6} "
            f"{row['sim_reference_per_sec']:>10.1f} "
            f"{row['sim_warm_per_sec']:>11.1f} {row['sim_speedup']:>6.2f} "
            f"{row['lower_cold_per_sec']:>11.2f} "
            f"{row['lower_warm_per_sec']:>11.2f} {row['lower_speedup']:>7.1f}"
        )

    output = os.environ.get("REPRO_BENCH_OUTPUT", "bench_hotpath.json")
    payload = {
        "format": BENCH_FORMAT,
        "version": BENCH_VERSION,
        "mode": "full" if FULL else "smoke",
        "sim_repeats": SIM_REPEATS,
        "lower_repeats": LOWER_REPEATS,
        "scenarios": rows,
    }
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"\nwrote {output}")

    by_name = {row["scenario"]: row for row in rows}
    assert by_name["rnn/pipeline"]["sim_speedup"] >= RNN_PIPELINE_MIN_SPEEDUP, (
        "acceptance: warm repeat-simulation of the RNN pipeline program must "
        f"be ≥{RNN_PIPELINE_MIN_SPEEDUP}x the reference loop, got "
        f"{by_name['rnn/pipeline']['sim_speedup']:.2f}x"
    )
    for row in rows:
        assert row["lower_speedup"] > 1.0, (
            f"{row['scenario']}: a program-cache hit should beat re-lowering"
        )


def bench_hotpath_cache_key_stability(benchmark):
    """The content address is deterministic across processes and fresh
    builds of one model; cheap enough to pin here."""
    bundle = _rnn_bundle()
    machine = k80_8gpu_machine(4)

    def run():
        return [
            lowered_cache_key(bundle.graph, machine, "pipeline", {"num_stages": 4})
            for _ in range(3)
        ]

    keys = once(benchmark, run)
    assert len(set(keys)) == 1
    # Re-derived from a freshly built (identical) model: same address.
    again = lowered_cache_key(
        _rnn_bundle().graph, machine, "pipeline", {"num_stages": 4}
    )
    assert again == keys[0]
    cache = ProgramCache(capacity=2)
    assert cache.get(keys[0]) is None  # fresh cache: miss, not an error
