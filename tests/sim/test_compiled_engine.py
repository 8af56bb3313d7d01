"""Compiled simulator core: float-identity with the reference loop, one topo
sort per program, and full-topology idle accounting.

Lowering emits every program straight into a :class:`TaskGraphBuilder`;
the program's dense form (:meth:`LoweredProgram.dense_form`) is what
``Executor.simulate`` replays.  This suite pins, across every registered
execution backend (hybrid over tofu and over pipeline) on a bare machine,
a one-machine cluster and two two-machine clusters:

* the lowered dense form, whose dependencies lowering emitted as ids (tofu
  and hybrid work them out from the row layout), equals
  :func:`compile_task_graph` fed the program's tasks by name as a plain
  dict — field by field, name order included;
* the array-based replay is **exactly equal** — dataclass equality over
  every SimResult field, floats included — to ``run_reference``
  (``tests/support/sim_oracle.py``), the pre-compilation per-dict loop kept
  verbatim as the oracle.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import threading

import pytest

from repro import perf
from repro.errors import SimulationError
from repro.partition.recursive import recursive_partition
from repro.runtime import (
    Executor,
    ExecutorConfig,
    available_execution_backends,
)
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
#: Two 4-GPU boxes: eight devices, every group boundary of a 2-group
#: hybrid on the NIC.
CLUSTER8 = cluster_of(k80_8gpu_machine(4), 2)
TOPOLOGIES = [MACHINE, CLUSTER, CLUSTER2, CLUSTER8]
TOPOLOGY_IDS = ["machine", "cluster", "cluster2", "cluster2x4"]

#: Per case: the backend, and its (options, plan) for a graph on ``n``
#: devices.
CASES = {
    "single-device": ("single-device", lambda graph, n: ({}, None)),
    "placement": ("placement", lambda graph, n: ({}, None)),
    "data-parallel": ("data-parallel", lambda graph, n: ({}, None)),
    "swap": ("swap", lambda graph, n: ({}, None)),
    "pipeline": ("pipeline", lambda graph, n: (
        {"num_stages": 2, "num_microbatches": 4}, None,
    )),
    "tofu-partitioned": ("tofu-partitioned", lambda graph, n: (
        {}, recursive_partition(graph, n),
    )),
    "hybrid": ("hybrid", lambda graph, n: (
        {"replica_groups": 2, "inner": "tofu-partitioned"},
        recursive_partition(graph, n // 2),
    )),
    "hybrid-pipeline": ("hybrid", lambda graph, n: (
        {
            "replica_groups": 2,
            "inner": "pipeline",
            "inner_options": {"num_stages": 2, "num_microbatches": 4},
        },
        None,
    )),
}


def _lower(graph, case, topology):
    backend, setup = CASES[case]
    options, plan = setup(graph, topology.num_devices)
    return Executor(ExecutorConfig(cache_programs=False)).lower(
        graph, plan=plan, machine=topology,
        backend=backend, backend_options=options,
    )


def test_cases_cover_every_builtin_backend():
    assert {backend for backend, _ in CASES.values()} == set(
        available_execution_backends()
    )


@pytest.fixture(
    scope="module", params=["mlp_bundle", "rnn_bundle"], ids=["mlp", "rnn"]
)
def bundle(request):
    return request.getfixturevalue(request.param)


@pytest.mark.parametrize("topology", TOPOLOGIES, ids=TOPOLOGY_IDS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_compiled_matches_reference_exactly(bundle, case, topology):
    program = _lower(bundle.graph, case, topology)
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
@pytest.mark.parametrize("case", sorted(CASES))
def test_dense_form_matches_compile_task_graph(bundle, case, topology):
    """What lowering emitted, dependencies as ids, is exactly what feeding
    its tasks by name, as a plain dict, through the builder produces —
    order, dependency positions, slots, durations and comm accounting."""
    program = _lower(bundle.graph, case, topology)
    assert program.machine == topology
    rebuilt = compile_task_graph(dict(program.tasks), topology)
    dense = program.dense_form()
    for field in dataclasses.fields(dense):
        name = field.name
        assert getattr(dense, name) == getattr(rebuilt, name), name
    assert list(program.tasks) == [row[0] for row in program.task_graph.rows]


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
    edited = dataclasses.replace(program.copy(), tasks={
        **program.tasks,
        name: dataclasses.replace(victim, duration=victim.duration + 1.0),
    })
    after = executor.simulate(edited, check_memory=False)

    assert edited.task_graph is not program.task_graph
    assert list(edited.tasks) == list(program.tasks)
    assert after.iteration_time > before.iteration_time
    assert after == run_reference(
        MACHINE, edited.tasks, peak_memory=edited.per_device_memory,
        check_memory=False,
    )
    assert executor.simulate(program, check_memory=False) == before


@pytest.mark.parametrize("case", ["pipeline", "hybrid-pipeline"])
def test_concurrent_simulations_share_one_dense_form(rnn_bundle, case):
    """Program-cache copies of one program share one immutable dense form
    and task view (a hybrid's replays one replica group): simulating them on
    two machines, interleaved as finely as threads allow, must still give
    every result exactly."""
    program = _lower(rnn_bundle.graph, case, MACHINE)
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
        builder.add("e", 0, duration=1.0, deps=(0, 2))
        builder.add("b", 1, duration=1.0)
        builder.add("d", 1, duration=1.0, after=(0,))
        compiled = builder.build(MACHINE)
        order = topo_order(dict(builder.tasks))
        assert compiled.names == order == ["a", "b", "d", "e"]
        assert compiled.deps == [(), (), (0,), (0, 1)]

    def test_readding_a_name_is_rejected(self):
        builder = TaskGraphBuilder()
        builder.add("a", 0, duration=1.0)
        builder.add("b", 0, duration=1.0)
        with pytest.raises(SimulationError, match="task 'a': the name is taken"):
            builder.add("a", 1, duration=5.0)
        assert list(builder.tasks) == ["a", "b"]
        assert builder.tasks["a"].duration == 1.0

    def test_build_seals_and_is_cached_per_machine(self):
        builder = TaskGraphBuilder()
        builder.add("a", 0, duration=1.0)
        compiled = builder.build(MACHINE)
        assert builder.build(k80_8gpu_machine(4)) is compiled  # equal machine
        with pytest.raises(SimulationError, match="already built"):
            builder.add("b", 0)

    def test_reference_diagnostics(self):
        with pytest.raises(SimulationError, match="depends on missing task 'ghost'"):
            TaskGraphSimulator(MACHINE).run({"a": Task("a", 0, deps=("ghost",))})
        cycle = TaskGraphBuilder()
        cycle.add("a", 0, deps=(1,))
        cycle.add("b", 0, after=(0,))
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
        builder.add("b", 0, deps=(0,))  # the view reads the live rows
        assert list(view) == ["a", "b"]
