"""Tests for reverse-mode autodiff and the optimiser pass."""

import pytest

from repro.caching import graph_signature
from repro.errors import GraphError
from repro.graph.autodiff import build_backward, build_optimizer
from repro.graph.builder import GraphBuilder
from repro.graph.graph import Graph
from repro.models.mlp import build_mlp
from repro.models.resnet import build_wide_resnet
from repro.models.rnn import build_rnn


def _forward_builder():
    b = GraphBuilder("fwd")
    x = b.data("x", (8, 16))
    w1 = b.weight("w1", (16, 16))
    w2 = b.weight("w2", (16, 4))
    h = b.matmul(x, w1, name="fc1")
    h = b.relu(h, name="act1")
    logits = b.matmul(h, w2, name="fc2")
    labels = b.input("labels", (8,), kind="data")
    loss_vec = b.apply("softmax_cross_entropy", [logits, labels], name="ce")
    loss = b.apply("reduce_mean_all", [loss_vec], name="loss")
    return b, loss, [w1, w2], x


class TestBackward:
    def test_every_weight_gets_a_gradient(self):
        b, loss, weights, _ = _forward_builder()
        grad_map = build_backward(b, loss, weights)
        for w in weights:
            assert w in grad_map
            assert grad_map[w] in b.graph.tensors

    def test_gradient_tensors_tagged(self):
        b, loss, weights, _ = _forward_builder()
        grad_map = build_backward(b, loss, weights)
        for w in weights:
            assert b.graph.tensor(grad_map[w]).kind == "gradient"

    def test_gradient_shapes_match_weights(self):
        b, loss, weights, _ = _forward_builder()
        grad_map = build_backward(b, loss, weights)
        for w in weights:
            assert b.graph.tensor(grad_map[w]).shape == b.graph.tensor(w).shape

    def test_data_gradient_shape(self):
        b, loss, weights, x = _forward_builder()
        grad_map = build_backward(b, loss, weights)
        assert b.graph.tensor(grad_map[x]).shape == b.graph.tensor(x).shape

    def test_metadata_recorded(self):
        b, loss, weights, _ = _forward_builder()
        build_backward(b, loss, weights)
        meta = b.graph.metadata
        assert meta["loss"] == loss
        assert set(meta["weights"]) == set(weights)
        assert "bwd_nodes_of" in meta and meta["bwd_nodes_of"]
        assert "forward_nodes" in meta

    def test_backward_nodes_attributed_to_forward_nodes(self):
        b, loss, weights, _ = _forward_builder()
        build_backward(b, loss, weights)
        bwd = b.graph.metadata["bwd_nodes_of"]
        # The matmul nodes must have generated backward matmuls.
        assert any(n.startswith("fc1") for n in bwd)
        for nodes in bwd.values():
            for node in nodes:
                assert node in b.graph.nodes

    def test_shared_weight_gradients_are_summed(self):
        b = GraphBuilder()
        x = b.data("x", (4, 8))
        w = b.weight("w", (8, 8))
        h = b.matmul(x, w, name="a")
        h = b.matmul(h, w, name="b")  # same weight used twice
        loss = b.apply("reduce_mean_all", [h], name="loss")
        grad_map = build_backward(b, loss, [w])
        grad = grad_map[w]
        producer = b.graph.producer_of(grad)
        assert producer is not None and producer.op == "add"

    def test_missing_loss_rejected(self):
        b, loss, weights, _ = _forward_builder()
        with pytest.raises(GraphError):
            build_backward(b, "not_a_tensor", weights)

    def test_unreachable_weight_rejected(self):
        b, loss, weights, _ = _forward_builder()
        orphan = b.weight("orphan", (4, 4))
        with pytest.raises(GraphError):
            build_backward(b, loss, weights + [orphan])

    def test_graph_valid_after_backward(self):
        b, loss, weights, _ = _forward_builder()
        build_backward(b, loss, weights)
        b.finish(validate=True)


class TestOptimizer:
    def test_requires_backward_first(self):
        b, loss, weights, _ = _forward_builder()
        with pytest.raises(GraphError):
            build_optimizer(b, weights)

    def test_adagrad_creates_history_state(self):
        b, loss, weights, _ = _forward_builder()
        build_backward(b, loss, weights)
        build_optimizer(b, weights, algorithm="adagrad")
        for w in weights:
            assert f"{w}_hist" in b.graph.tensors
            assert b.graph.tensor(f"{w}_hist").kind == "state"

    def test_sgd_has_no_history(self):
        b, loss, weights, _ = _forward_builder()
        build_backward(b, loss, weights)
        build_optimizer(b, weights, algorithm="sgd")
        for w in weights:
            assert f"{w}_hist" not in b.graph.tensors

    def test_unknown_optimizer_rejected(self):
        b, loss, weights, _ = _forward_builder()
        build_backward(b, loss, weights)
        with pytest.raises(GraphError):
            build_optimizer(b, weights, algorithm="lion")

    def test_optimizer_nodes_are_inplace(self):
        b, loss, weights, _ = _forward_builder()
        build_backward(b, loss, weights)
        build_optimizer(b, weights)
        opt_nodes = b.graph.metadata["optimizer_nodes_of"]
        assert set(opt_nodes) == set(weights)
        for nodes in opt_nodes.values():
            assert any(
                b.graph.node(n).attrs.get("inplace") is not None for n in nodes
            )


#: The model-zoo fixtures of ``tests/conftest.py``, rebuilt per test.
ZOO = {
    "mlp": lambda: build_mlp(batch_size=32, input_dim=256, hidden_dim=256,
                             num_layers=3, num_classes=64),
    "rnn": lambda: build_rnn(num_layers=2, hidden_size=128, seq_len=4,
                             batch_size=16),
    "cnn": lambda: build_wide_resnet(depth=50, widen=1, batch_size=4,
                                     image_size=32, num_classes=16),
    "mlp-sgd": lambda: build_mlp(batch_size=16, input_dim=64, hidden_dim=64,
                                 num_layers=2, num_classes=8,
                                 optimizer="sgd"),
}


class TestLinearBookkeeping:
    """``Graph.nodes_since`` reads each step's new nodes off the tail of the
    node dict; a set difference against a snapshot of the node names taken
    before the step must give the same lists, in the same order."""

    @pytest.mark.parametrize("model", sorted(ZOO))
    def test_step_nodes_equal_a_set_difference_oracle(self, model, monkeypatch):
        expected = ZOO[model]().graph.metadata
        snapshots = {}
        add_node = Graph.add_node

        def snapshotting_add_node(graph, node):
            snapshots.setdefault((id(graph), len(graph.nodes)), set(graph.nodes))
            return add_node(graph, node)

        def set_difference(graph, count):
            before = snapshots.get((id(graph), count), set(graph.nodes))
            return [name for name in graph.nodes if name not in before]

        monkeypatch.setattr(Graph, "add_node", snapshotting_add_node)
        monkeypatch.setattr(Graph, "nodes_since", set_difference)
        oracle = ZOO[model]().graph.metadata
        for key in ("bwd_nodes_of", "optimizer_nodes_of", "layer_of_node"):
            assert list(expected[key].items()) == list(oracle[key].items())

    @pytest.mark.parametrize("build, signature", [
        pytest.param(
            lambda: build_rnn(num_layers=10, hidden_size=8192, batch_size=256),
            "c714597c34cbfbff23e0d6bcddf4aab5d8d7552216077640ac1e316ecd8d2590",
            id="RNN-10-8K@256"),
        pytest.param(
            lambda: build_rnn(num_layers=6, hidden_size=4096, batch_size=512),
            "4e4f1cbb7c007e885cafa020b5eab247571173d321ae528ec00c15c1ea557306",
            id="RNN-6-4K@512"),
        pytest.param(
            lambda: build_wide_resnet(depth=152, widen=4, batch_size=64),
            "5ca39dcee96622b88d7e9f5494ff5dfbd28eadfffac308ae48c6d08eae426b99",
            id="WResNet-152-4@64"),
    ])
    def test_paper_model_signatures_are_pinned(self, build, signature):
        assert graph_signature(build().graph) == signature
