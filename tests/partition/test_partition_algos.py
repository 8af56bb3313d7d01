"""Tests for the alternative partition algorithms of Figure 10."""


from repro.baselines.partition_algos import (
    allrow_greedy_plan,
    equalchop_plan,
    spartan_plan,
)
from repro.planner.backends import get_backend

FIGURE10_BACKENDS = ("allrow-greedy", "spartan", "equalchop", "icml18", "tofu")


def _search(name, graph, workers):
    return get_backend(name).search(graph, workers)


class TestAlgorithms:
    def test_all_algorithms_produce_plans(self, mlp_bundle):
        for name in FIGURE10_BACKENDS:
            plan = _search(name, mlp_bundle.graph, 4)
            assert plan.num_workers == 4
            assert plan.total_comm_bytes >= 0, name

    def test_allrow_partitions_everything_on_dim0(self, mlp_bundle):
        plan = allrow_greedy_plan(mlp_bundle.graph, 8)
        assert all(d == 0 for d in plan.steps[0].tensor_dims.values())

    def test_tofu_never_worse_than_allrow(self, mlp_bundle):
        tofu = _search("tofu", mlp_bundle.graph, 8)
        allrow = allrow_greedy_plan(mlp_bundle.graph, 8)
        assert tofu.total_comm_bytes <= allrow.total_comm_bytes * 1.001

    def test_tofu_never_worse_than_spartan(self, mlp_bundle):
        tofu = _search("tofu", mlp_bundle.graph, 8)
        spartan = spartan_plan(mlp_bundle.graph, 8)
        assert tofu.total_comm_bytes <= spartan.total_comm_bytes * 1.001

    def test_tofu_not_worse_than_icml18_on_rnn(self, rnn_bundle):
        """Missing output-reduction strategies can only hurt (Sec 7.3)."""
        tofu = _search("tofu", rnn_bundle.graph, 8)
        icml = _search("icml18", rnn_bundle.graph, 8)
        assert tofu.total_comm_bytes <= icml.total_comm_bytes * 1.001

    def test_equalchop_single_step(self, mlp_bundle):
        plan = equalchop_plan(mlp_bundle.graph, 8)
        assert plan.num_steps == 1
        assert plan.steps[0].parts == 8

    def test_equalchop_not_better_than_tofu(self, mlp_bundle):
        tofu = _search("tofu", mlp_bundle.graph, 8)
        chop = equalchop_plan(mlp_bundle.graph, 8)
        assert tofu.total_comm_bytes <= chop.total_comm_bytes * 1.001

    def test_algorithm_labels(self, mlp_bundle):
        assert allrow_greedy_plan(mlp_bundle.graph, 2).algorithm == "allrow-greedy"
        assert spartan_plan(mlp_bundle.graph, 2).algorithm == "spartan"
        assert equalchop_plan(mlp_bundle.graph, 2).algorithm == "equalchop"
        assert _search("icml18", mlp_bundle.graph, 2).algorithm == "icml18"

    def test_search_times_recorded(self, mlp_bundle):
        for fn in (allrow_greedy_plan, spartan_plan, equalchop_plan):
            assert fn(mlp_bundle.graph, 2).search_time_seconds >= 0
