"""Unit tests for the shared lowering passes and simulator endpoint checks."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.graph.memory_planner import plan_memory
from repro.runtime.passes import (
    device_memory_report,
    make_comm_task,
    make_compute_task,
    memory_plan_of,
    producer_deps,
    scheduled_nodes,
)
from repro.sim.costmodel import node_kernel_time
from repro.sim.device import k80_8gpu_machine
from repro.sim.engine import HOST_DEVICE, Task, TaskGraphBuilder, TaskGraphSimulator
from repro.sim.swap import swap_residency_schedule


class TestScheduling:
    def test_scheduled_nodes_is_topo_order(self, mlp_bundle):
        graph = mlp_bundle.graph
        order = scheduled_nodes(graph)
        assert [n.name for n in order] == [n.name for n in graph.topo_order()]
        position = {node.name: i for i, node in enumerate(order)}
        for node in order:
            for dep in producer_deps(graph, node):
                assert position[dep] < position[node.name]

    def test_producer_deps_skips_graph_inputs(self, mlp_bundle):
        graph = mlp_bundle.graph
        for node in scheduled_nodes(graph):
            for dep in producer_deps(graph, node):
                assert dep in graph.nodes


def _emitted(emit, *args, **kwargs) -> Task:
    """The one task ``emit`` writes into a fresh builder."""
    builder = TaskGraphBuilder()
    emit(builder, *args, **kwargs)
    (task,) = builder.tasks.values()
    return task


class TestCosting:
    def test_compute_task_priced_by_cost_model(self, mlp_bundle):
        graph = mlp_bundle.graph
        machine = k80_8gpu_machine()
        node = scheduled_nodes(graph)[0]
        task = _emitted(
            make_compute_task,
            graph, node.name, 0, machine.device(0), machine, deps=["x"],
        )
        assert task.kind == "compute"
        assert task.duration == pytest.approx(
            node_kernel_time(graph, node.name, machine.device(0), machine)
        )
        assert tuple(task.deps) == ("x",)

    def test_scale_prices_the_shard(self, mlp_bundle):
        graph = mlp_bundle.graph
        machine = k80_8gpu_machine()
        node = scheduled_nodes(graph)[0]
        base = _emitted(
            make_compute_task, graph, node.name, 0, machine.device(0), machine
        )
        shard = _emitted(
            make_compute_task, graph, node.name, 0, machine.device(0), machine,
            scale=0.125,
        )
        assert shard.duration == pytest.approx(
            node_kernel_time(graph, node.name, machine.device(0), machine, scale=0.125)
        )
        assert shard.duration <= base.duration

    def test_task_name_override(self, mlp_bundle):
        graph = mlp_bundle.graph
        machine = k80_8gpu_machine()
        node = scheduled_nodes(graph)[0]
        task = _emitted(
            make_compute_task,
            graph, node.name, 3, machine.device(3), machine, task_name="t@3",
        )
        assert task.name == "t@3" and task.device == 3


class TestCommEmission:
    def test_comm_task_fields(self):
        task = _emitted(
            make_comm_task, "copy", 1, 1024.0, src=HOST_DEVICE, deps=["a"]
        )
        assert task.kind == "comm"
        assert (task.src_device, task.dst_device) == (HOST_DEVICE, 1)
        assert task.comm_bytes == 1024.0

    def test_out_of_range_endpoint_rejected_by_engine(self):
        machine = k80_8gpu_machine(2)
        tasks = {
            "a": Task(name="a", device=0, kind="compute", duration=1.0),
            "b": Task(
                name="b", device=1, kind="comm", comm_bytes=8.0,
                src_device=0, dst_device=7, deps=["a"],
            ),
        }
        with pytest.raises(SimulationError, match="'b'.*7 out of range"):
            TaskGraphSimulator(machine).run(tasks)

    def test_endpoint_kinds_accepted_by_engine(self):
        # A gather, a device-to-device copy and a host copy into device 1.
        machine = k80_8gpu_machine(2)
        for src, link in ((None, "p2p:1"), (0, "p2p:1"), (HOST_DEVICE, "cpu:m0")):
            builder = TaskGraphBuilder()
            builder.add("a", 0, "compute", 1.0)
            make_comm_task(builder, "b", 1, 8.0, src=src, deps=[0])
            result = TaskGraphSimulator(machine).run(builder)
            assert result.iteration_time > 1.0
            assert set(result.per_link_busy_time) == {link}


class TestMemoryReport:
    def test_single_device_report_matches_planner(self, mlp_bundle):
        graph = mlp_bundle.graph
        report = device_memory_report(graph, [0])
        assert report == {0: plan_memory(graph).peak_bytes}

    def test_replicated_report(self, mlp_bundle):
        report = device_memory_report(mlp_bundle.graph, range(4))
        assert set(report) == {0, 1, 2, 3}
        assert len(set(report.values())) == 1

    def test_no_reuse_report_is_larger(self, mlp_bundle):
        graph = mlp_bundle.graph
        reuse = device_memory_report(graph, [0])[0]
        no_reuse = memory_plan_of(graph, allow_reuse=False).peak_bytes
        assert no_reuse >= reuse


class TestSwapSchedulePass:
    def test_schedule_covers_all_nodes_when_fitting(self, mlp_bundle):
        machine = k80_8gpu_machine()
        schedule = swap_residency_schedule(mlp_bundle.graph, machine)
        assert not schedule.oom
        assert len(schedule.steps) == len(mlp_bundle.graph.nodes)
        assert schedule.peak_resident_bytes > 0
        assert schedule.peak_resident_bytes <= machine.device(0).memory_bytes

    def test_transfer_totals_are_nonnegative(self, mlp_bundle):
        schedule = swap_residency_schedule(mlp_bundle.graph, k80_8gpu_machine())
        assert schedule.swapped_in_bytes >= 0
        assert schedule.swapped_out_bytes >= 0
        for step in schedule.steps:
            assert step.moved_in_bytes >= 0
            assert step.moved_out_bytes >= 0
