"""Tests for the communication cost model."""

import pytest

from repro.graph.builder import GraphBuilder
from repro.partition.cost import CommunicationCostModel


def _matmul_graph(m=64, k=32, n=16):
    b = GraphBuilder("mm")
    a = b.data("a", (m, k))
    w = b.weight("w", (k, n))
    out = b.matmul(a, w, name="mm")
    return b.finish(), a, w, out


class TestNodeCost:
    def test_matched_row_partition_is_free(self):
        g, a, w, out = _matmul_graph()
        cm = CommunicationCostModel(g)
        # Partition A and C by rows and replicate... W must still be fetched.
        axis, cost = cm.node_cost("mm", {a: 0, w: 0, out: 0}, 2)
        assert axis == "m"
        # Only the weight (split along rows but needed whole) is fetched.
        assert cost == pytest.approx(g.tensor(w).size_bytes())

    def test_column_partition_fetches_activations(self):
        # Wide output: partitioning along n and fetching the (small) A matrix
        # is cheaper than any reduction.
        g, a, w, out = _matmul_graph(m=64, k=16, n=64)
        cm = CommunicationCostModel(g)
        axis, cost = cm.node_cost("mm", {a: 1, w: 1, out: 1}, 2)
        assert axis == "n"
        assert cost == pytest.approx(g.tensor(a).size_bytes())

    def test_reduction_strategy_chosen_when_cheapest(self):
        # Tall weight, tiny output: contracting-dimension partitioning with an
        # output reduction moves the least data.
        g, a, w, out = _matmul_graph(m=8, k=1024, n=8)
        cm = CommunicationCostModel(g)
        axis, cost = cm.node_cost("mm", {a: 1, w: 0, out: 0}, 2)
        assert axis == "k"
        # Cost is the reduce-scatter of the tiny output.
        assert cost == pytest.approx(g.tensor(out).size_bytes())

    def test_disallowing_reduction_changes_choice(self):
        g, a, w, out = _matmul_graph(m=8, k=1024, n=8)
        with_red = CommunicationCostModel(g, allow_reduction=True)
        without = CommunicationCostModel(g, allow_reduction=False)
        axis_with, cost_with = with_red.node_cost("mm", {a: 1, w: 0, out: 0}, 2)
        axis_without, cost_without = without.node_cost("mm", {a: 1, w: 0, out: 0}, 2)
        assert axis_with == "k"
        assert axis_without != "k"
        assert cost_without >= cost_with

    def test_cost_detail_splits_fetch_and_reduce(self):
        g, a, w, out = _matmul_graph(m=8, k=1024, n=8)
        cm = CommunicationCostModel(g)
        axis, fetch, reduce_ = cm.node_cost_detail("mm", {a: 1, w: 0, out: 0}, 2)
        assert axis == "k"
        assert fetch == pytest.approx(0.0)
        assert reduce_ > 0

    def test_more_parts_more_bytes(self):
        g, a, w, out = _matmul_graph()
        cm = CommunicationCostModel(g)
        _, cost2 = cm.node_cost("mm", {a: 0, w: 0, out: 0}, 2)
        _, cost8 = cm.node_cost("mm", {a: 0, w: 0, out: 0}, 8)
        assert cost8 > cost2

    def test_elementwise_matched_partition_free(self):
        b = GraphBuilder()
        x = b.data("x", (64, 64))
        y = b.relu(x, name="act")
        g = b.finish()
        cm = CommunicationCostModel(g)
        _, cost = cm.node_cost("act", {x: 0, y: 0}, 4)
        assert cost == 0.0
        _, mismatched = cm.node_cost("act", {x: 0, y: 1}, 4)
        assert mismatched > 0

    def test_assignment_cost_sums_nodes(self, mlp_bundle):
        graph = mlp_bundle.graph
        cm = CommunicationCostModel(graph)
        dims = {name: 0 for name in graph.tensors}
        total, strategies = cm.assignment_cost(dims, 2)
        assert total >= 0
        assert set(strategies) == set(graph.nodes)
        per_node = sum(cm.node_cost(n, dims, 2)[1] for n in graph.nodes)
        assert total == pytest.approx(per_node)


class TestProfilesAndShapes:
    def test_candidate_dims_respect_parts(self):
        g, a, w, out = _matmul_graph(m=64, k=4, n=2)
        cm = CommunicationCostModel(g)
        assert cm.candidate_dims(out, 8) == [0]
        assert 0 in cm.candidate_dims(a, 4)

    def test_candidate_dims_capped(self):
        b = GraphBuilder()
        x = b.data("x", (16, 16, 16, 16, 16))
        g = b.finish(validate=False)
        cm = CommunicationCostModel(g)
        assert len(cm.candidate_dims(x, 2)) <= 3

    def test_set_shapes_changes_costs(self):
        g, a, w, out = _matmul_graph()
        cm = CommunicationCostModel(g)
        _, full = cm.node_cost("mm", {a: 1, w: 1, out: 1}, 2)
        # Halving every extent quarters the tensor areas and hence the cost.
        cm.set_shapes({a: (32, 16), w: (16, 8), out: (32, 8)})
        _, quartered = cm.node_cost("mm", {a: 1, w: 1, out: 1}, 2)
        assert quartered == pytest.approx(full / 4)
        assert quartered < full

    def test_profiles_shared_across_identical_nodes(self):
        b = GraphBuilder()
        x = b.data("x", (64, 64))
        w1 = b.weight("w1", (64, 64))
        w2 = b.weight("w2", (64, 64))
        h1 = b.matmul(x, w1, name="mm1")
        h2 = b.matmul(h1, w2, name="mm2")
        g = b.finish()
        cm = CommunicationCostModel(g)
        p1 = cm.node_profile("mm1", 2)
        p2 = cm.node_profile("mm2", 2)
        assert p1 is p2  # same shape signature -> shared profile

    def test_one_memo_serves_cost_and_detail(self):
        g, a, w, out = _matmul_graph(m=8, k=1024, n=8)
        cm = CommunicationCostModel(g)
        dims = {a: 1, w: 0, out: 0}
        axis, cost = cm.node_cost("mm", dims, 2)
        profile = cm.node_profile("mm", 2)
        assert profile.best == {(1, 0, 0): cm.node_cost_detail("mm", dims, 2)}
        memo_axis, fetch, redistribute = profile.best[(1, 0, 0)]
        assert (memo_axis, fetch + redistribute) == (axis, cost)

    def test_zero_cost_memo_entries_are_hits(self):
        b = GraphBuilder()
        x = b.data("x", (64, 64))
        y = b.relu(x, name="act")
        g = b.finish()
        cm = CommunicationCostModel(g)
        assert cm.node_cost("act", {x: 0, y: 0}, 4)[1] == 0.0
        profile = cm.node_profile("act", 4)
        profile.best[(0, 0)] = ("memoised", 0.0, 0.0)
        assert cm.node_cost("act", {x: 0, y: 0}, 4) == ("memoised", 0.0)

    def test_set_shapes_drops_the_cost_memo(self):
        g, a, w, out = _matmul_graph()
        cm = CommunicationCostModel(g)
        cm.node_cost("mm", {a: 1, w: 1, out: 1}, 2)
        stale = cm.node_profile("mm", 2)
        cm.set_shapes({a: (32, 16), w: (16, 8), out: (32, 8)})
        fresh = cm.node_profile("mm", 2)
        assert fresh is not stale
        assert fresh.best == {}

    def test_tensor_bytes(self):
        g, a, w, out = _matmul_graph(m=8, k=8, n=8)
        cm = CommunicationCostModel(g)
        assert cm.tensor_bytes(a) == 8 * 8 * 4
