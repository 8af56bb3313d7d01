"""Multi-layer perceptron (Fig. 5's running example; used by tests/examples)."""

from __future__ import annotations

from typing import List

from repro.graph.autodiff import build_backward, build_optimizer
from repro.graph.builder import GraphBuilder
from repro.models.layers import ModelBundle, dense_layer


def build_mlp(
    *,
    batch_size: int = 64,
    input_dim: int = 1024,
    hidden_dim: int = 1024,
    num_layers: int = 3,
    num_classes: int = 1000,
    training: bool = True,
    optimizer: str = "adagrad",
) -> ModelBundle:
    """Build an MLP training (or inference) graph."""
    builder = GraphBuilder(f"mlp{num_layers}")
    weights: List[str] = []
    layer_of_node = {}

    data = builder.data("data", (batch_size, input_dim))
    labels = builder.input("labels", (batch_size,), kind="data")

    hidden = data
    in_features = input_dim
    for layer in range(num_layers):
        before = len(builder.graph.nodes)
        hidden = dense_layer(
            builder,
            hidden,
            in_features,
            hidden_dim,
            prefix=f"layer{layer}",
            weights=weights,
        )
        in_features = hidden_dim
        for node in builder.graph.nodes_since(before):
            layer_of_node[node] = layer
    before = len(builder.graph.nodes)
    logits = dense_layer(
        builder,
        hidden,
        in_features,
        num_classes,
        activation=None,
        prefix="classifier",
        weights=weights,
    )
    loss_vec = builder.apply("softmax_cross_entropy", [logits, labels], name="ce_loss")
    loss = builder.apply("reduce_mean_all", [loss_vec], name="loss")
    builder.mark_output(loss)
    for node in builder.graph.nodes_since(before):
        layer_of_node[node] = num_layers

    if training:
        build_backward(builder, loss, weights)
        build_optimizer(builder, weights, algorithm=optimizer)
    graph = builder.finish()
    graph.metadata["layer_of_node"] = layer_of_node

    return ModelBundle(
        graph=graph,
        weights=weights,
        loss=loss,
        batch_size=batch_size,
        name=f"MLP-{num_layers}x{hidden_dim}",
        layer_of_node=layer_of_node,
        hyperparams={
            "batch_size": batch_size,
            "input_dim": input_dim,
            "hidden_dim": hidden_dim,
            "num_layers": num_layers,
            "num_classes": num_classes,
        },
    )
