"""Parity of the :class:`Executor` facade with the hand-wired lowering paths.

Every execution style lowered and simulated through the :class:`Executor`
(or ``repro.compile``) must reproduce the simulated iteration time and the peak-memory report of
calling its lowering function and the simulator directly, on both the MLP
and the RNN fixtures.
"""

from __future__ import annotations

import pytest

import repro
from repro.partition.apply import generate_partitioned_graph
from repro.partition.recursive import recursive_partition
from repro.runtime import Executor
from repro.runtime.backends import (
    lower_data_parallel,
    lower_placement,
    lower_single_device,
)
from repro.sim.device import k80_8gpu_machine
from repro.sim.engine import TaskGraphSimulator
from repro.sim.swap import simulate_with_swapping
from repro.models.mlp import build_mlp

MACHINE = k80_8gpu_machine(4)


@pytest.fixture(
    scope="module", params=["mlp_bundle", "rnn_bundle"], ids=["mlp", "rnn"]
)
def bundle(request):
    return request.getfixturevalue(request.param)


class TestBackendParity:
    def test_single_device(self, bundle):
        tasks = lower_single_device(bundle.graph, MACHINE).tasks
        direct = TaskGraphSimulator(MACHINE).run(tasks, check_memory=False)
        executor = Executor()
        program = executor.lower(
            bundle.graph, machine=MACHINE, backend="single-device"
        )
        result = executor.simulate(program, check_memory=False)
        assert result.iteration_time == direct.iteration_time
        assert result.per_device_compute_time == direct.per_device_compute_time

    def test_placement(self, bundle):
        program = lower_placement(bundle.graph, MACHINE)
        tasks, memory = program.tasks, program.per_device_memory
        direct = TaskGraphSimulator(MACHINE).run(tasks, peak_memory=memory)
        executor = Executor()
        program = executor.lower(
            bundle.graph, machine=MACHINE, backend="placement"
        )
        result = executor.simulate(program)
        assert result.iteration_time == direct.iteration_time
        assert program.per_device_memory == memory
        assert result.total_comm_bytes == direct.total_comm_bytes

    def test_data_parallel(self, bundle):
        program = lower_data_parallel(bundle.graph, MACHINE)
        tasks, memory = program.tasks, program.per_device_memory
        direct = TaskGraphSimulator(MACHINE).run(tasks, peak_memory=memory)
        executor = Executor()
        program = executor.lower(
            bundle.graph, machine=MACHINE, backend="data-parallel"
        )
        result = executor.simulate(program)
        assert result.iteration_time == direct.iteration_time
        assert program.per_device_memory == memory

    def test_tofu_partitioned(self, bundle):
        plan = recursive_partition(bundle.graph, 4)
        dist = generate_partitioned_graph(bundle.graph, plan, MACHINE)
        direct = TaskGraphSimulator(MACHINE).run(
            dist.tasks, peak_memory=dist.per_device_memory
        )
        executor = Executor()
        program = executor.lower(bundle.graph, plan=plan, machine=MACHINE)
        result = executor.simulate(program)
        assert result.iteration_time == direct.iteration_time
        assert program.per_device_memory == dist.per_device_memory
        assert program.total_comm_bytes == dist.total_comm_bytes
        assert program.sharded_graph is not None
        assert program.plan is plan

    def test_swap(self, bundle):
        old = simulate_with_swapping(bundle.graph, MACHINE)
        executor = Executor()
        program = executor.lower(bundle.graph, machine=MACHINE, backend="swap")
        result = executor.simulate(program)
        assert result.iteration_time == pytest.approx(
            old.iteration_time, rel=1e-9
        )
        assert result.compute_time == pytest.approx(
            old.compute_time, rel=1e-9
        )
        assert program.stats["swapped_in_bytes"] == pytest.approx(
            old.swapped_in_bytes
        )
        assert program.stats["swapped_out_bytes"] == pytest.approx(
            old.swapped_out_bytes
        )
        assert result.oom == old.oom


class TestSwapContention:
    def test_shared_host_link_matches_legacy_accounting(self):
        bundle = build_mlp(batch_size=8, input_dim=4096, hidden_dim=16384,
                           num_layers=8, num_classes=64)
        machine = k80_8gpu_machine()
        old = simulate_with_swapping(bundle.graph, machine, concurrent_gpus=8)
        # Every GPU of the 8-GPU machine swaps over the shared host link.
        executor = Executor()
        program = executor.lower(bundle.graph, machine=machine, backend="swap")
        result = executor.simulate(program)
        assert old.swapped_in_bytes > 0, "fixture must actually swap"
        assert result.iteration_time == pytest.approx(
            old.iteration_time, rel=1e-9
        )

    def test_swap_oom_is_reported(self):
        # One layer whose working set alone exceeds the 12 GiB device.
        bundle = build_mlp(batch_size=4096, input_dim=32768, hidden_dim=65536,
                           num_layers=1, num_classes=16)
        machine = k80_8gpu_machine()
        old = simulate_with_swapping(bundle.graph, machine)
        executor = Executor()
        program = executor.lower(bundle.graph, machine=machine, backend="swap")
        result = executor.simulate(program)
        assert old.oom
        assert result.oom
        assert program.per_device_peak_bytes > machine.device(0).memory_bytes


class TestFacadeParity:
    def test_api_partition_and_simulate_matches_manual_pipeline(self, bundle):
        model = repro.compile(bundle.graph, "tofu", MACHINE)
        dist = generate_partitioned_graph(bundle.graph, model.plan, MACHINE)
        direct = TaskGraphSimulator(MACHINE).run(
            dist.tasks, peak_memory=dist.per_device_memory
        )
        assert model.result.iteration_time == direct.iteration_time
        assert model.result.peak_memory == dist.per_device_memory

    def test_evaluators_match_legacy_numbers(self, bundle):
        """evaluate_ideal / evaluate_swapping reproduce the pre-refactor
        arithmetic (single-device tasks + simulator; swap state machine)."""
        from repro.baselines.evaluation import evaluate_ideal, evaluate_swapping

        machine = k80_8gpu_machine()
        num = machine.num_devices

        # The fixture bundles have fixed batch sizes; pin the evaluator's
        # batch maths by calling with global batch = num * fixture batch.
        ideal = evaluate_ideal(lambda b: bundle, bundle.batch_size * num, machine)
        tasks = lower_single_device(bundle.graph, machine).tasks
        direct = TaskGraphSimulator(machine).run(tasks, check_memory=False)
        assert ideal.iteration_time == direct.iteration_time
        assert ideal.throughput == pytest.approx(
            num * bundle.batch_size / direct.iteration_time
        )

        swap = evaluate_swapping(lambda b: bundle, bundle.batch_size * num, machine)
        old = simulate_with_swapping(bundle.graph, machine, concurrent_gpus=num)
        assert swap.iteration_time == pytest.approx(old.iteration_time, rel=1e-9)
