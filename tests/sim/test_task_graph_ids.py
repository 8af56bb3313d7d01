"""Task dependencies are ids: seeded random task graphs, and bad ids.

:class:`TaskGraphBuilder` keeps every dependency as the id (emission index)
of the task it depends on, given before or after that task is added.  A
``name -> Task`` dict enters through :meth:`TaskGraphBuilder.from_tasks`,
which numbers the names and maps every dependency through that numbering.
Over seeded random DAGs, the builder must read back the graph its caller
meant — the same tasks by name, the same rows whether emitted by id or fed
by name, sorted in the reference loop's order and simulated to the
reference loop's result.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import SimulationError
from repro.sim.device import HOST_DEVICE, cluster_of, k80_8gpu_machine
from repro.sim.engine import Task, TaskGraphBuilder, TaskGraphSimulator
from tests.support.sim_oracle import run_reference, topo_order

MACHINE = k80_8gpu_machine(4)
CLUSTER = cluster_of(k80_8gpu_machine(2), 2)

#: Seeds that once failed; every one stays in the suite.
REGRESSION_SEEDS: list = []
SEEDS = list(range(200)) + REGRESSION_SEEDS


def _random_task(rng: random.Random, v: int, earlier, devices: int) -> Task:
    """Task ``t{v}`` on a random device, depending on up to three of the
    tasks ``earlier`` (by name), split at random into deps and after."""
    picked = rng.sample(earlier, min(len(earlier), rng.randint(0, 3)))
    split = rng.randint(0, len(picked))
    kind = rng.choice(("compute", "compute", "comm"))
    device = rng.randrange(devices)
    src = dst = None
    if kind == "comm":
        src = rng.choice((None, HOST_DEVICE, (device + 1) % devices))
        dst = device
    return Task(
        name=f"t{v}",
        device=device,
        kind=kind,
        duration=rng.choice((0.0, rng.random())),
        comm_bytes=rng.choice((0.0, rng.random() * 1e8)),
        deps=tuple(f"t{u}" for u in picked[:split]),
        after=tuple(f"t{u}" for u in picked[split:]),
        src_device=src,
        dst_device=dst,
    )


def _emit(builder: TaskGraphBuilder, task: Task) -> int:
    """Add ``task``, each dependency ``t{u}`` given as its id ``u``; an id
    past the last row is a forward reference."""
    def ids(deps):
        return tuple(int(dep[1:]) for dep in deps)

    return builder.add(
        task.name, task.device, task.kind, task.duration, task.comm_bytes,
        ids(task.deps), ids(task.after), task.src_device, task.dst_device,
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_random_graph_reads_back_as_meant(seed):
    rng = random.Random(seed)
    machine = rng.choice((MACHINE, CLUSTER))
    devices = machine.num_devices
    n = rng.randint(1, 24)
    # A hidden topological rank keeps the graph acyclic whatever order the
    # tasks are emitted in: a task depends only on tasks of lower rank.
    rank = list(range(n))
    rng.shuffle(rank)

    def earlier(v):
        return [u for u in range(n) if rank[u] < rank[v]]

    # Task ``t{v}`` is emitted ``v``-th, so its id is ``v``.
    meant = {}
    builder = TaskGraphBuilder()
    for v in range(n):
        meant[f"t{v}"] = _random_task(rng, v, earlier(v), devices)
        assert _emit(builder, meant[f"t{v}"]) == v

    assert dict(builder.tasks) == meant
    # The same graph fed by name numbers its keys the way ids were emitted.
    assert TaskGraphBuilder.from_tasks(meant).rows == builder.rows
    compiled = builder.build(machine)
    assert compiled.names == topo_order(meant)
    simulator = TaskGraphSimulator(machine)
    assert simulator.run_compiled(compiled) == run_reference(machine, meant)


class TestBadDependencies:
    @pytest.mark.parametrize("dep", [2, 7, -1], ids=["past-end", "far", "negative"])
    def test_an_id_of_no_task_fails_the_build_naming_the_task(self, dep):
        builder = TaskGraphBuilder()
        builder.add("a", 0)
        builder.add("b", 0, deps=(0, dep))
        with pytest.raises(SimulationError, match=rf"task 'b' depends on {dep}\b"):
            builder.build(MACHINE)

    def test_an_id_past_the_end_is_a_forward_reference_until_the_build(self):
        builder = TaskGraphBuilder()
        builder.add("a", 0, deps=(1,))
        builder.add("b", 0)
        assert builder.build(MACHINE).names == ["b", "a"]

    def test_a_failed_build_leaves_the_graph_open(self):
        builder = TaskGraphBuilder()
        builder.add("a", 0, deps=(2,))
        builder.add("b", 0, deps=(0,))
        with pytest.raises(SimulationError, match=r"task 'a' depends on 2\b"):
            builder.build(MACHINE)
        builder.add("c", 1)
        assert builder.build(MACHINE).names == ["c", "a", "b"]

    def test_a_task_depending_on_its_own_id_is_a_named_cycle(self):
        builder = TaskGraphBuilder()
        builder.add("a", 0)
        builder.add("b", 0, deps=(0,), after=(1,))
        with pytest.raises(
            SimulationError, match="cycle: task 'b' depends on itself"
        ):
            builder.build(MACHINE)

    def test_a_missing_name_keeps_its_message(self):
        tasks = {
            "a": Task("a", 0, deps=("ghost",)),
            "b": Task("b", 0, deps=("a",)),
        }
        with pytest.raises(
            SimulationError, match="task 'a' depends on missing task 'ghost'"
        ):
            TaskGraphBuilder.from_tasks(tasks)
        tasks["ghost"] = Task("ghost", 1)
        assert TaskGraphBuilder.from_tasks(tasks).build(MACHINE).names == [
            "ghost", "a", "b",
        ]

    @pytest.mark.parametrize("field", ["deps", "after"])
    def test_a_name_handed_to_add_fails_the_build_naming_the_task(self, field):
        builder = TaskGraphBuilder()
        builder.add("a", 0)
        builder.add("b", 0, **{field: (0, "a")})
        with pytest.raises(SimulationError, match="task 'b' depends on 'a'"):
            builder.build(MACHINE)

    def test_extend_takes_new_names_and_ids_only(self):
        builder = TaskGraphBuilder()
        builder.add("a", 0)
        row = ("b", 0, "compute", 1.0, 0.0, (0,), (), None, None)
        with pytest.raises(SimulationError, match="cannot copy task 'a'"):
            builder.extend([row, ("a",) + row[1:]])
        builder.extend([row])
        assert builder.tasks["b"].deps == ("a",)
        builder.extend([("c", 0, "compute", 1.0, 0.0, ("b",), (), None, None)])
        with pytest.raises(SimulationError, match="task 'c' depends on 'b'"):
            builder.build(MACHINE)
