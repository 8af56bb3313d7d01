"""Tests for the task-graph lowering backends and the swapping executor."""

import pytest

from repro.graph.memory_planner import plan_memory
from repro.models.mlp import build_mlp
from repro.runtime.backends import (
    lower_data_parallel,
    lower_placement,
    lower_single_device,
)
from repro.runtime.passes import device_memory_report
from repro.sim.device import k80_8gpu_machine
from repro.sim.engine import TaskGraphSimulator
from repro.sim.swap import simulate_with_swapping


class TestSingleDevice:
    def test_tasks_match_nodes(self, mlp_bundle):
        machine = k80_8gpu_machine()
        tasks = lower_single_device(mlp_bundle.graph, machine).tasks
        assert set(tasks) == set(mlp_bundle.graph.nodes)
        result = TaskGraphSimulator(machine).run(tasks, check_memory=False)
        assert result.iteration_time > 0

    def test_memory_matches_planner(self, mlp_bundle):
        memory = device_memory_report(mlp_bundle.graph, [0])
        assert memory[0] == plan_memory(mlp_bundle.graph).peak_bytes


class TestPlacement:
    def test_round_robin_layers(self, mlp_bundle):
        machine = k80_8gpu_machine(4)
        program = lower_placement(mlp_bundle.graph, machine)
        tasks, memory = program.tasks, program.per_device_memory
        devices_used = {t.device for t in tasks.values()}
        assert len(devices_used) > 1
        result = TaskGraphSimulator(machine).run(tasks, peak_memory=memory)
        assert result.iteration_time > 0
        assert result.total_comm_bytes > 0  # cross-layer activations are copied

    def test_placement_memory_conserves_buffers(self, mlp_bundle):
        machine = k80_8gpu_machine(4)
        memory = lower_placement(mlp_bundle.graph, machine).per_device_memory
        assert sum(memory.values()) == pytest.approx(
            plan_memory(mlp_bundle.graph).peak_bytes, rel=0.01
        )

    def test_single_device_placement_has_no_comm(self, mlp_bundle):
        machine = k80_8gpu_machine(1)
        tasks = lower_placement(mlp_bundle.graph, machine).tasks
        assert all(t.kind == "compute" for t in tasks.values())


class TestDataParallel:
    def test_allreduce_volume(self, mlp_bundle):
        machine = k80_8gpu_machine(4)
        program = lower_data_parallel(mlp_bundle.graph, machine)
        tasks, memory = program.tasks, program.per_device_memory
        result = TaskGraphSimulator(machine).run(tasks, peak_memory=memory)
        weight_bytes = mlp_bundle.graph.weight_bytes()
        expected = 4 * 2 * (4 - 1) / 4 * weight_bytes
        assert result.total_comm_bytes == pytest.approx(expected, rel=0.01)


class TestSwapping:
    def test_small_model_barely_swaps(self, mlp_bundle):
        machine = k80_8gpu_machine()
        result = simulate_with_swapping(mlp_bundle.graph, machine, concurrent_gpus=1)
        assert not result.oom
        # The MLP fits comfortably, so steady-state transfers are negligible.
        assert result.transfer_time <= result.compute_time * 0.5

    def test_large_model_swaps_heavily(self):
        bundle = build_mlp(batch_size=8, input_dim=4096, hidden_dim=16384, num_layers=8,
                           num_classes=64)
        machine = k80_8gpu_machine()
        weight_gib = bundle.graph.weight_bytes() / 2**30
        assert weight_gib * 3 > 12  # the model state exceeds one GPU
        result = simulate_with_swapping(bundle.graph, machine)
        assert not result.oom
        assert result.swapped_in_bytes > 0
        assert result.iteration_time > result.compute_time

    def test_sharing_host_link_hurts(self):
        bundle = build_mlp(batch_size=8, input_dim=4096, hidden_dim=16384, num_layers=8,
                           num_classes=64)
        machine = k80_8gpu_machine()
        alone = simulate_with_swapping(bundle.graph, machine, concurrent_gpus=1)
        shared = simulate_with_swapping(bundle.graph, machine, concurrent_gpus=8)
        assert shared.iteration_time >= alone.iteration_time
