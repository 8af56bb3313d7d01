"""Compiled simulator core: float-identity with the reference loop, one topo
sort per unique program, and full-topology idle accounting.

The compiled path (:meth:`TaskGraphSimulator.run`) interns task names to
dense integer ids and replays an array-based event loop; this suite pins it
**exactly equal** — dataclass equality over every SimResult field, floats
included — to :meth:`run_reference`, the pre-compilation per-dict loop kept
verbatim as the oracle, across every registered execution backend on both a
bare machine and a one-machine cluster.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.partition.recursive import recursive_partition
from repro.runtime import Executor, available_execution_backends
from repro.runtime.passes import round_robin_layer_placement
from repro.sim.device import ClusterSpec, k80_8gpu_machine
from repro.sim.engine import (
    Task,
    TaskGraphSimulator,
    clear_compiled_cache,
    compiled_cache_info,
)

MACHINE = k80_8gpu_machine(4)
CLUSTER = ClusterSpec(machines=[MACHINE])


def _backend_setup(name, graph):
    """(options, plan) each registered backend needs on the 4-GPU fixture."""
    if name == "placement":
        return {"device_of_node": round_robin_layer_placement(graph, 4)}, None
    if name == "tofu-partitioned":
        return {}, recursive_partition(graph, 4)
    if name == "hybrid":
        return {"replica_groups": 2, "inner": "tofu-partitioned"}, (
            recursive_partition(graph, 2)
        )
    if name == "pipeline":
        return {"num_stages": 2, "num_microbatches": 4}, None
    return {}, None


@pytest.fixture(
    scope="module", params=["mlp_bundle", "rnn_bundle"], ids=["mlp", "rnn"]
)
def bundle(request):
    return request.getfixturevalue(request.param)


@pytest.mark.parametrize("topology", [MACHINE, CLUSTER], ids=["machine", "cluster"])
@pytest.mark.parametrize("backend", sorted(available_execution_backends()))
def test_compiled_matches_reference_exactly(bundle, backend, topology):
    options, plan = _backend_setup(backend, bundle.graph)
    program = Executor().lower(
        bundle.graph, plan=plan, machine=topology,
        backend=backend, backend_options=options,
    )
    simulator = TaskGraphSimulator(topology)

    reference = simulator.run_reference(
        program.tasks, peak_memory=program.per_device_memory
    )
    compiled = simulator.run(
        program.tasks, peak_memory=program.per_device_memory
    )

    # Dataclass equality: iteration_time, per-device compute/comm/idle maps,
    # per-link busy times, memory verdicts — all exactly equal, no tolerance.
    assert compiled == reference


def test_one_topo_sort_per_unique_program(rnn_bundle):
    """Repeat simulation of the same program must not re-sort: ``compiles``
    counts topo sorts and stays at one per unique (machine, program)."""
    program = Executor().lower(
        rnn_bundle.graph, machine=MACHINE, backend="pipeline",
        backend_options={"num_stages": 2, "num_microbatches": 4},
    )
    simulator = TaskGraphSimulator(MACHINE)

    clear_compiled_cache()
    first = simulator.run(program.tasks, peak_memory=program.per_device_memory)
    for _ in range(5):
        again = simulator.run(
            program.tasks, peak_memory=program.per_device_memory
        )
        assert again == first

    info = compiled_cache_info()
    assert info["compiles"] == 1
    assert info["misses"] == 1
    assert info["hits"] == 5


def test_mutated_program_recompiles(rnn_bundle):
    """The cache is content-addressed: replacing a task with a longer one
    changes the fingerprint, so the edited program compiles fresh (Table
    3-style ablations rescale durations and must never see stale timing)."""
    program = Executor().lower(
        rnn_bundle.graph, machine=MACHINE, backend="single-device"
    )
    simulator = TaskGraphSimulator(MACHINE)

    clear_compiled_cache()
    before = simulator.run(program.tasks, check_memory=False)
    name, victim = next(iter(program.tasks.items()))
    program.tasks[name] = dataclasses.replace(
        victim, duration=victim.duration + 1.0
    )
    after = simulator.run(program.tasks, check_memory=False)

    assert compiled_cache_info()["compiles"] == 2
    assert after.iteration_time > before.iteration_time
    assert after == simulator.run_reference(program.tasks, check_memory=False)


def test_idle_time_covers_every_topology_device():
    """``per_device_idle_time`` reports every device of the topology, idle
    devices included — a two-task program on device 0 of a 4-GPU machine
    still yields idle entries for devices 1-3 (full iteration each)."""
    tasks = {
        "a": Task(name="a", device=0, kind="compute", duration=2.0),
        "b": Task(name="b", device=0, kind="compute", duration=3.0, deps=("a",)),
    }
    for simulate in (
        TaskGraphSimulator(MACHINE).run,
        TaskGraphSimulator(MACHINE).run_reference,
    ):
        result = simulate(tasks, check_memory=False)
        assert set(result.per_device_idle_time) == {0, 1, 2, 3}
        assert result.per_device_idle_time[0] == 0.0
        for idle_device in (1, 2, 3):
            assert (
                result.per_device_idle_time[idle_device]
                == result.iteration_time
            )
