"""Compiled simulator core: float-identity with the reference loop, one topo
sort per program, and full-topology idle accounting.

Lowering emits every program straight into a :class:`TaskGraphBuilder`;
the program's dense form (:meth:`LoweredProgram.dense_form`) is what
``Executor.simulate`` replays.  This suite pins, across every registered
execution backend on a bare machine, a one-machine cluster and a
two-machine cluster:

* the lowered dense form equals :func:`compile_task_graph` fed the
  program's tasks as a plain dict — field by field, name order included;
* the array-based replay is **exactly equal** — dataclass equality over
  every SimResult field, floats included — to ``run_reference``
  (``tests/support/sim_oracle.py``), the pre-compilation per-dict loop kept
  verbatim as the oracle;
* programs decoded from a program-cache directory written by an earlier
  version of the codec (``tests/data/program_cache_v1``) do the same.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
import threading
from pathlib import Path

import pytest

from repro import perf
from repro.errors import SimulationError
from repro.partition.recursive import recursive_partition
from repro.runtime import (
    Executor,
    ExecutorConfig,
    available_execution_backends,
    program_from_dict,
)
from repro.runtime.passes import round_robin_layer_placement
from repro.sim.device import ClusterSpec, cluster_of, k80_8gpu_machine
from repro.sim.engine import (
    Task,
    TaskGraphBuilder,
    TaskGraphSimulator,
    compile_task_graph,
)
from tests.support.sim_oracle import run_reference, topo_order

MACHINE = k80_8gpu_machine(4)
CLUSTER = ClusterSpec(machines=[MACHINE])
#: Two 2-GPU boxes: the same 4 devices, half of every ring over the NIC.
CLUSTER2 = cluster_of(k80_8gpu_machine(2), 2)
TOPOLOGIES = [MACHINE, CLUSTER, CLUSTER2]
TOPOLOGY_IDS = ["machine", "cluster", "cluster2"]
V1_DIR = Path(__file__).resolve().parents[1] / "data" / "program_cache_v1"


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


def _lower(graph, backend, topology):
    options, plan = _backend_setup(backend, graph)
    return Executor(ExecutorConfig(cache_programs=False)).lower(
        graph, plan=plan, machine=topology,
        backend=backend, backend_options=options,
    )


@pytest.fixture(
    scope="module", params=["mlp_bundle", "rnn_bundle"], ids=["mlp", "rnn"]
)
def bundle(request):
    return request.getfixturevalue(request.param)


@pytest.mark.parametrize("topology", TOPOLOGIES, ids=TOPOLOGY_IDS)
@pytest.mark.parametrize("backend", sorted(available_execution_backends()))
def test_compiled_matches_reference_exactly(bundle, backend, topology):
    program = _lower(bundle.graph, backend, topology)
    simulator = TaskGraphSimulator(topology)

    reference = run_reference(
        topology, program.tasks, peak_memory=program.per_device_memory
    )
    compiled = simulator.run_compiled(
        program.dense_form(), peak_memory=program.per_device_memory
    )

    # Dataclass equality: iteration_time, per-device compute/comm/idle maps,
    # per-link busy times, memory verdicts — all exactly equal, no tolerance.
    assert compiled == reference
    assert Executor().simulate(program) == reference


@pytest.mark.parametrize("topology", TOPOLOGIES, ids=TOPOLOGY_IDS)
@pytest.mark.parametrize("backend", sorted(available_execution_backends()))
def test_dense_form_matches_compile_task_graph(bundle, backend, topology):
    """What lowering emitted is exactly what feeding its tasks, as a plain
    dict, through the builder produces — names order included."""
    program = _lower(bundle.graph, backend, topology)
    assert program.machine == topology
    rebuilt = compile_task_graph(dict(program.tasks), topology)
    dense = program.dense_form()
    for field in dataclasses.fields(dense):
        name = field.name
        assert getattr(dense, name) == getattr(rebuilt, name), name
    assert list(program.tasks) == [row.name for row in program.task_graph.rows]


@pytest.mark.parametrize(
    "path", sorted(V1_DIR.glob("*.json")), ids=lambda path: path.stem[:8]
)
def test_v1_decoded_program_simulates_bit_identically(path):
    entry = json.loads(path.read_text(encoding="utf-8"))
    program = program_from_dict(entry["program"])
    machine = program.machine
    dense = program.dense_form()
    assert dense == compile_task_graph(dict(program.tasks), machine)
    # The codec keeps emission order: re-encoding lists the stored tasks.
    assert list(program.tasks) == [t["name"] for t in entry["program"]["tasks"]]
    simulator = TaskGraphSimulator(machine)
    reference = run_reference(
        machine, program.tasks, peak_memory=program.per_device_memory
    )
    assert simulator.run_compiled(
        dense, peak_memory=program.per_device_memory
    ) == reference
    assert Executor().simulate(program) == reference


def test_one_topo_sort_per_unique_program(rnn_bundle):
    """Repeat simulation of the same program must not re-sort: the dense
    form is compiled once per machine and cached on the task graph, which
    program copies (what the program cache hands out) share."""
    executor = Executor(ExecutorConfig(program_cache_capacity=4))
    timer = perf.StageTimer()
    with perf.activation(timer):
        program = executor.lower(
            rnn_bundle.graph, machine=MACHINE, backend="pipeline",
            backend_options={"num_stages": 2, "num_microbatches": 4},
        )
        first = executor.simulate(program)
        for again in (program, program.copy(), executor.lower(
            rnn_bundle.graph, machine=MACHINE, backend="pipeline",
            backend_options={"num_stages": 2, "num_microbatches": 4},
        )):
            assert executor.simulate(again) == first
        assert timer.stage_calls("sim.compile") == 1
        # A different machine is resolved afresh.
        other = k80_8gpu_machine(8)
        executor.simulate(program, other)
    assert timer.stage_calls("sim.compile") == 2


def test_mutated_program_recompiles(rnn_bundle):
    """Replacing a task with a longer one rebuilds the dense form, so the
    edited program never replays stale timing (Table 3-style ablations
    rescale durations this way) — and the original program is untouched."""
    program = Executor().lower(
        rnn_bundle.graph, machine=MACHINE, backend="single-device"
    )
    executor = Executor()
    before = executor.simulate(program, check_memory=False)
    name, victim = next(iter(program.tasks.items()))
    edited = program.replace_tasks(
        {name: dataclasses.replace(victim, duration=victim.duration + 1.0)}
    )
    after = executor.simulate(edited, check_memory=False)

    assert edited.task_graph is not program.task_graph
    assert list(edited.tasks) == list(program.tasks)
    assert after.iteration_time > before.iteration_time
    assert after == run_reference(
        MACHINE, edited.tasks, peak_memory=edited.per_device_memory,
        check_memory=False,
    )
    assert executor.simulate(program, check_memory=False) == before


def test_concurrent_simulations_share_one_dense_form(rnn_bundle):
    """Program-cache copies of one program share one immutable dense form:
    simulating them on two machines, interleaved as finely as threads allow,
    must still give every result exactly."""
    program = _lower(rnn_bundle.graph, "pipeline", MACHINE)
    machines = [MACHINE, CLUSTER]
    expected = [
        run_reference(
            machine, program.tasks, peak_memory=program.per_device_memory
        )
        for machine in machines
    ]
    results, errors = [], []

    def worker(k):
        try:
            result = Executor().simulate(program.copy(), machines[k % 2])
            results.append((k % 2, result))
        except Exception as exc:  # reported by the assertions below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors and len(results) == 8
    for which, result in results:
        assert result == expected[which]


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
        functools.partial(run_reference, MACHINE),
    ):
        result = simulate(tasks, check_memory=False)
        assert set(result.per_device_idle_time) == {0, 1, 2, 3}
        assert result.per_device_idle_time[0] == 0.0
        for idle_device in (1, 2, 3):
            assert (
                result.per_device_idle_time[idle_device]
                == result.iteration_time
            )


class TestTaskGraphBuilder:
    def test_sort_breaks_ties_like_the_reference_loop(self):
        builder = TaskGraphBuilder()
        builder.add("a", 0, duration=1.0)
        builder.add("e", 0, duration=1.0, deps=("a", "b"))
        builder.add("b", 1, duration=1.0)
        builder.add("d", 1, duration=1.0, after=("a",))
        compiled = builder.build(MACHINE)
        order = topo_order(dict(builder.tasks))
        assert compiled.names == order == ["a", "b", "d", "e"]
        assert compiled.deps == [(), (), (0,), (0, 1)]

    def test_readding_a_name_replaces_its_row_in_place(self):
        builder = TaskGraphBuilder()
        builder.add("a", 0, duration=1.0)
        builder.add("b", 0, duration=1.0)
        builder.add("a", 1, duration=5.0)
        assert list(builder.tasks) == ["a", "b"]
        assert builder.tasks["a"].duration == 5.0

    def test_build_seals_and_is_cached_per_machine(self):
        builder = TaskGraphBuilder()
        builder.add("a", 0, duration=1.0)
        compiled = builder.build(MACHINE)
        assert builder.build(k80_8gpu_machine(4)) is compiled  # equal machine
        with pytest.raises(SimulationError, match="already built"):
            builder.add("b", 0)

    def test_reference_diagnostics(self):
        missing = TaskGraphBuilder()
        missing.add("a", 0, deps=("ghost",))
        with pytest.raises(SimulationError, match="depends on missing task 'ghost'"):
            missing.build(MACHINE)
        cycle = TaskGraphBuilder()
        cycle.add("a", 0, deps=("b",))
        cycle.add("b", 0, after=("a",))
        with pytest.raises(SimulationError, match="cycle"):
            cycle.build(MACHINE)
        unknown = TaskGraphBuilder()
        unknown.add("a", 0, kind="teleport")
        with pytest.raises(SimulationError, match="unknown task kind"):
            unknown.build(MACHINE)

    def test_view_is_read_only_and_live(self):
        builder = TaskGraphBuilder()
        builder.add("a", 0, duration=1.0)
        view = builder.tasks
        with pytest.raises(TypeError):
            view["a"] = Task(name="a", device=0)  # type: ignore[index]
        assert view == {"a": Task(name="a", device=0, duration=1.0)}
        builder.add("b", 0, deps=("a",))  # the view reads the live rows
        assert list(view) == ["a", "b"]
