"""End-to-end integration tests across all subsystems."""

import pytest

from repro.graph.memory_planner import plan_memory
from repro.partition.apply import build_sharded_graph, generate_partitioned_graph
from repro.partition.recursive import recursive_partition, step_costs_nondecreasing
from repro.planner.backends import get_backend
from repro.sim.device import k80_8gpu_machine
from repro.sim.engine import TaskGraphSimulator


@pytest.mark.parametrize("bundle_fixture", ["mlp_bundle", "rnn_bundle", "cnn_bundle"])
def test_partition_generate_simulate(request, bundle_fixture):
    """Every model family goes end-to-end: coarsen, search, generate, simulate."""
    bundle = request.getfixturevalue(bundle_fixture)
    machine = k80_8gpu_machine()
    plan = recursive_partition(bundle.graph, 8)
    assert plan.num_steps == 3
    assert step_costs_nondecreasing(plan, tolerance=0.25)

    dist = generate_partitioned_graph(bundle.graph, plan, machine)
    result = TaskGraphSimulator(machine).run(
        dist.tasks, peak_memory=dist.per_device_memory
    )
    assert result.iteration_time > 0
    assert not result.oom
    assert result.throughput(bundle.batch_size) > 0


@pytest.mark.parametrize("bundle_fixture", ["mlp_bundle", "rnn_bundle", "cnn_bundle"])
def test_memory_footprint_shrinks_with_partitioning(request, bundle_fixture):
    """Sec 5: per-worker memory should be roughly 1/k of the single-GPU one."""
    bundle = request.getfixturevalue(bundle_fixture)
    plan = recursive_partition(bundle.graph, 8)
    single = plan_memory(bundle.graph).peak_bytes
    shard = plan_memory(build_sharded_graph(bundle.graph, plan)).peak_bytes
    assert shard < single / 3


def test_plan_reuse_between_helpers(mlp_bundle):
    plan_a = get_backend("tofu").search(mlp_bundle.graph, 8)
    plan_b = recursive_partition(mlp_bundle.graph, 8)
    assert plan_a.total_comm_bytes == pytest.approx(plan_b.total_comm_bytes, rel=0.01)


def test_more_workers_less_per_device_memory(mlp_bundle):
    machine8 = k80_8gpu_machine(8)
    machine2 = k80_8gpu_machine(2)
    plan8 = recursive_partition(mlp_bundle.graph, 8)
    plan2 = recursive_partition(mlp_bundle.graph, 2)
    dist8 = generate_partitioned_graph(mlp_bundle.graph, plan8, machine8)
    dist2 = generate_partitioned_graph(mlp_bundle.graph, plan2, machine2)
    assert dist8.per_device_peak_bytes < dist2.per_device_peak_bytes
