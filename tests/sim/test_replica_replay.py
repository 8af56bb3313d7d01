"""Replica replay: a hybrid's groups replayed once, equal to replaying all.

On one machine every replica group of a ``dp:G/...`` program runs group
0's program on its own slice of the devices, and no group depends on
another.  The task view then carries a replica form, and the simulator
replays group 0's rows plus its all-reduce once and writes the result out
for every group.  That must equal, in every :class:`SimResult` field and
in the order of every per-device and per-link map, both replaying the full
rows (``compile_task_graph`` then ``run_compiled``) and the reference loop
(``tests/support/sim_oracle.py``).  Where groups share a resource — a
cluster, or swapping over one host link — the full rows are replayed
instead, and the ``sim.replica`` counter stays at zero.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

import repro
from repro import perf
from repro.perf import StageTimer
from repro.runtime import Executor, ExecutorConfig
from repro.sim.device import (
    HOST_DEVICE, ClusterSpec, DeviceSpec, MachineSpec, k80_8gpu_machine,
)
from repro.sim.engine import (
    TaskGraphBuilder,
    TaskGraphSimulator,
    TaskView,
    compile_task_graph,
)
from tests.runtime.test_row_digests import LOWERING_GOLDEN, MACHINES
from tests.support.sim_oracle import run_reference

HYBRIDS = sorted(key for key in LOWERING_GOLDEN if key[1].startswith("dp:"))
MAPS = (
    "per_device_compute_time", "per_device_comm_time",
    "per_device_idle_time", "per_link_busy_time",
)


def _assert_identical(result, *others):
    for other in others:
        assert result == other
        for name in MAPS:  # dict equality ignores order; the order counts
            assert list(getattr(result, name)) == list(getattr(other, name)), name


def _simulate(tasks, machine, **memory):
    """``TaskGraphSimulator.run`` on ``tasks``, and the ``sim.replica``
    counter it left."""
    timer = StageTimer()
    with perf.activation(timer):
        result = TaskGraphSimulator(machine).run(tasks, **memory)
    return result, timer.counter("sim.replica")


def _full_replays(tasks, machine, **memory):
    """The full rows replayed by the compiled loop and by the reference."""
    union = TaskGraphSimulator(machine).run_compiled(
        compile_task_graph(tasks, machine), **memory
    )
    return union, run_reference(machine, dict(tasks), **memory)


@pytest.mark.parametrize("model, strategy, machine", HYBRIDS)
def test_hybrid_replay_equals_the_full_replay(request, model, strategy, machine):
    graph = request.getfixturevalue(f"{model}_bundle").graph
    topology = MACHINES[machine]()
    program = repro.compile(
        graph, strategy, topology,
        executor=Executor(ExecutorConfig(cache_programs=False)), lower_only=True,
    ).program
    memory = {"peak_memory": program.per_device_memory}
    result, replicas = _simulate(program.tasks, topology, **memory)
    _assert_identical(result, *_full_replays(program.tasks, topology, **memory))
    # A cluster lowers each group on its own slice, so the groups run
    # different programs.
    assert replicas == (1 if machine == "k80x8" else 0)


def test_groups_swapping_over_one_host_link_replay_in_full(mlp_bundle):
    """dp:2/swap on a k80x8 too small for the MLP: both groups swap over
    the machine's one CPU link, so one group's replay would miss the
    contention."""
    machine = MachineSpec(
        devices=[DeviceSpec(name=f"gpu{i}", memory_bytes=2_000_000) for i in range(8)]
    )
    program = repro.compile(
        mlp_bundle.graph, "dp:2/swap", machine, lower_only=True
    ).program
    memory = {"peak_memory": program.per_device_memory}
    result, replicas = _simulate(program.tasks, machine, **memory)
    assert replicas == 0
    assert result.per_link_busy_time["cpu:m0"] > 0
    _assert_identical(result, *_full_replays(program.tasks, machine, **memory))


def _random_block(rng, width):
    """One group's rows on devices ``[0, width)``: a random DAG of compute
    and comm rows (ids only backwards), some comm rows fetching from the
    next group's devices ``[width, 2 * width)`` like an all-reduce."""
    rows = []
    for v in range(rng.randint(1, 30)):
        picked = rng.sample(range(v), min(v, rng.randint(0, 3)))
        split = rng.randint(0, len(picked))
        device = rng.randrange(width)
        kind = rng.choice(("compute", "compute", "comm"))
        src = dst = None
        if kind == "comm":
            src = rng.choice((None, (device + 1) % width, width + device))
            dst = device
        rows.append((
            f"t{v}", device, kind, rng.random() / 3, rng.random() * 1e7 / 3,
            tuple(picked[:split]), tuple(picked[split:]), src, dst,
        ))
    return rows


def _stamped(rows, groups, width):
    """``groups`` copies of ``rows``, as the replica form defines them."""
    total = groups * width
    union = TaskGraphBuilder()
    for group in range(groups):
        def move(device):
            if device is None or device < 0:
                return device
            return (device + group * width) % total

        base = group * len(rows)
        union.extend([
            (
                f"{name}@grp{group}", move(device), kind, duration, nbytes,
                tuple(base + i for i in deps), tuple(base + i for i in after),
                move(src), move(dst),
            )
            for name, device, kind, duration, nbytes, deps, after, src, dst in rows
        ])
    return union


@pytest.mark.parametrize("groups", [2, 3, 4])
@pytest.mark.parametrize("seed", range(40))
def test_random_blocks_replay_once_as_all_copies(seed, groups):
    """1/3 is inexact in binary, so with three groups the order the bytes
    are summed in shows in ``total_comm_bytes``."""
    rng = random.Random(seed * 10 + groups)
    width = rng.randint(1, 3)
    machine = k80_8gpu_machine(groups * width)
    rows = _random_block(rng, width)
    shared = rng.random() < 0.25  # a host copy: every group on cpu:m0
    if shared:
        name, device, _, duration, nbytes, deps, after, _, _ = rows[-1]
        rows[-1] = (name, device, "comm", duration, nbytes, deps, after,
                    HOST_DEVICE, device)
    one = TaskGraphBuilder()
    one.extend(rows)
    union = _stamped(rows, groups, width)
    view = TaskView(union, (groups, width, lambda: one))
    assert len(view) == len(union.rows)
    result, replicas = _simulate(view, machine)
    assert replicas == (0 if shared else 1)
    _assert_identical(result, *_full_replays(union.tasks, machine))


def test_another_device_count_replays_in_full():
    rows = [("a", 0, "compute", 0.5, 0.0, (), (), None, None),
            ("b", 0, "comm", 0.0, 1e6, (0,), (), 1, 0)]
    one = TaskGraphBuilder()
    one.extend(rows)
    union = _stamped(rows, 2, 1)
    machine = k80_8gpu_machine(4)
    result, replicas = _simulate(TaskView(union, (2, 1, lambda: one)), machine)
    assert replicas == 0
    _assert_identical(result, *_full_replays(union.tasks, machine))


def test_groups_on_unequal_links_replay_in_full():
    """Two boxes whose PCI-e links differ: group 1's copy of a transfer is
    priced unlike group 0's, though the queues are disjoint."""
    fast = dataclasses.replace(k80_8gpu_machine(2), p2p_bandwidth=40e9)
    machine = ClusterSpec(machines=[k80_8gpu_machine(2), fast])
    rows = [("a", 0, "compute", 0.5, 0.0, (), (), None, None),
            ("b", 1, "comm", 0.0, 1e6, (0,), (), 0, 1)]
    one = TaskGraphBuilder()
    one.extend(rows)
    union = _stamped(rows, 2, 2)
    result, replicas = _simulate(TaskView(union, (2, 2, lambda: one)), machine)
    assert replicas == 0
    _assert_identical(result, *_full_replays(union.tasks, machine))


def test_a_cold_compile_emits_one_group_and_a_warm_one_nothing(rnn_bundle):
    executor = Executor(ExecutorConfig(program_cache_capacity=4))
    timer, warm_timer = StageTimer(), StageTimer()
    with perf.activation(timer):
        cold = repro.compile(
            rnn_bundle.graph, "dp:2/pipeline:2:1f1b:4", executor=executor
        )
        length = len(cold.program.tasks)  # counted by the replay
        assert timer.stage_calls("lower.emit") == 1
        assert timer.counter("sim.replica") == 1
        # Only a read of the full rows emits them.
        assert len(cold.program.task_graph.rows) == length
        assert timer.stage_calls("lower.emit") == 2
    with perf.activation(warm_timer):
        warm = repro.compile(
            rnn_bundle.graph, "dp:2/pipeline:2:1f1b:4", executor=executor
        )
    assert warm.result == cold.result
    assert warm_timer.counter("program_cache.hit") == 1
    assert not [
        name for name in warm_timer.calls if name.startswith(("lower.", "sim."))
    ]
