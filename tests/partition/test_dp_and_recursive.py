"""Tests for the DP step, the recursive search, and the joint baseline."""

import pytest

from repro.partition.coarsen import coarsen
from repro.partition.cost import CommunicationCostModel
from repro.partition.dp import (
    count_joint_configurations,
    dp_partition_step,
    joint_partition,
)
from repro.partition.plan import factorize_workers
from repro.partition.recursive import recursive_partition, step_costs_nondecreasing


class TestDPStep:
    def test_assigns_every_tensor_and_node(self, mlp_bundle):
        graph = mlp_bundle.graph
        coarse = coarsen(graph)
        cm = CommunicationCostModel(graph)
        step = dp_partition_step(graph, coarse, cm, 2)
        assert set(step.tensor_dims) == set(graph.tensors)
        assert set(step.op_strategies) == set(graph.nodes)
        assert step.parts == 2
        assert step.comm_bytes >= 0

    def test_dims_within_tensor_rank(self, mlp_bundle):
        graph = mlp_bundle.graph
        coarse = coarsen(graph)
        cm = CommunicationCostModel(graph)
        step = dp_partition_step(graph, coarse, cm, 2)
        for tensor, dim in step.tensor_dims.items():
            ndim = max(1, len(graph.tensor(tensor).shape))
            assert 0 <= dim < ndim

    def test_beats_naive_row_partition(self, mlp_bundle):
        graph = mlp_bundle.graph
        coarse = coarsen(graph)
        cm = CommunicationCostModel(graph)
        step = dp_partition_step(graph, coarse, cm, 2)
        naive_cost, _ = cm.assignment_cost({t: 0 for t in graph.tensors}, 2)
        assert step.comm_bytes <= naive_cost + 1e-6


class TestRecursive:
    @pytest.mark.parametrize("workers", [2, 4, 8])
    def test_step_count_matches_factorisation(self, mlp_bundle, workers):
        plan = recursive_partition(mlp_bundle.graph, workers)
        assert plan.num_steps == len(factorize_workers(workers))
        assert plan.num_workers == workers

    def test_non_power_of_two_workers(self, mlp_bundle):
        plan = recursive_partition(mlp_bundle.graph, 6)
        assert [s.parts for s in plan.steps] == [3, 2]

    def test_single_worker_is_trivial(self, mlp_bundle):
        plan = recursive_partition(mlp_bundle.graph, 1)
        assert plan.num_steps == 0
        assert plan.total_comm_bytes == 0

    def test_shard_shapes_divide_by_workers(self, mlp_bundle):
        graph = mlp_bundle.graph
        plan = recursive_partition(graph, 8)
        for weight in mlp_bundle.weights:
            shape = graph.tensor(weight).shape
            shard = plan.shard_shape(weight, shape)
            total = 1
            for orig, new in zip(shape, shard):
                total *= orig // new if new else 1
            assert total == 8  # each weight split 8 ways overall

    def test_theorem2_on_mlp(self, mlp_bundle):
        plan = recursive_partition(mlp_bundle.graph, 8)
        assert step_costs_nondecreasing(plan, tolerance=0.10)

    def test_theorem2_on_rnn(self, rnn_bundle):
        plan = recursive_partition(rnn_bundle.graph, 8)
        assert step_costs_nondecreasing(plan, tolerance=0.10)

    def test_search_time_recorded(self, mlp_bundle):
        plan = recursive_partition(mlp_bundle.graph, 4)
        assert plan.search_time_seconds > 0

    def test_no_reduction_never_cheaper(self, rnn_bundle):
        with_reduction = recursive_partition(rnn_bundle.graph, 8)
        without = recursive_partition(rnn_bundle.graph, 8, allow_reduction=False)
        assert without.total_comm_bytes >= with_reduction.total_comm_bytes * 0.999

    def test_cnn_plan_is_finite_and_positive(self, cnn_bundle):
        plan = recursive_partition(cnn_bundle.graph, 4)
        assert plan.total_comm_bytes > 0
        assert plan.num_steps == 2


class TestJointBaseline:
    def test_joint_matches_or_beats_recursive_on_mlp(self, mlp_bundle):
        recursive = recursive_partition(mlp_bundle.graph, 4)
        joint = joint_partition(mlp_bundle.graph, 4)
        # The joint search optimises all steps at once; it should never be
        # meaningfully worse than the greedy recursion.
        assert joint.total_comm_bytes <= recursive.total_comm_bytes * 1.10

    def test_joint_search_space_larger(self, mlp_bundle):
        graph = mlp_bundle.graph
        coarse = coarsen(graph)
        cm = CommunicationCostModel(graph)
        stats = count_joint_configurations(coarse, cm, 8)
        assert stats["total_configs"] > coarse.num_op_groups()
        assert stats["max_configs_per_group"] >= 1
