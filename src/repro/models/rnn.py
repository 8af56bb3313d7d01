"""Multi-layer LSTM recurrent networks (Sec 7.1).

The paper uses the large language-model RNN of Jozefowicz et al.: stacked LSTM
layers with hidden sizes 4K/6K/8K, unrolled for 20 timesteps.  The model
builder unrolls the cell explicitly — producing the fine-grained mesh-like
dataflow graph the paper discusses — and records which operator copies are
unrolled timesteps of the same computation so graph coarsening can coalesce
them (Sec 5.1).
"""

from __future__ import annotations

from typing import Dict, List

from repro.graph.autodiff import build_backward, build_optimizer
from repro.graph.builder import GraphBuilder
from repro.models.layers import PERSISTENT_FACTOR, ModelBundle, lstm_cell


def build_rnn(
    *,
    num_layers: int = 6,
    hidden_size: int = 4096,
    seq_len: int = 20,
    batch_size: int = 512,
    training: bool = True,
    optimizer: str = "adagrad",
) -> ModelBundle:
    """Build an RNN-{num_layers}-{hidden_size} training graph.

    The input sequence is assumed pre-embedded to ``hidden_size`` (the paper's
    weight accounting, Table 2, covers only the LSTM layer weights).
    """
    builder = GraphBuilder(f"rnn{num_layers}_{hidden_size}")
    weights: List[str] = []
    layer_of_node: Dict[str, int] = {}
    unroll_groups: Dict[str, List[str]] = {}

    inputs = [
        builder.data(f"x_t{t}", (batch_size, hidden_size)) for t in range(seq_len)
    ]

    layer_inputs = inputs
    for layer in range(num_layers):
        wx = builder.weight(f"l{layer}_wx", (hidden_size, 4 * hidden_size))
        wh = builder.weight(f"l{layer}_wh", (hidden_size, 4 * hidden_size))
        bias = builder.weight(f"l{layer}_bias", (4 * hidden_size,))
        weights.extend([wx, wh, bias])

        h_prev = builder.input(f"l{layer}_h0", (batch_size, hidden_size), kind="data")
        c_prev = builder.input(f"l{layer}_c0", (batch_size, hidden_size), kind="data")

        roles: Dict[str, List[str]] = {}
        outputs: List[str] = []
        for t, x in enumerate(layer_inputs):
            before = len(builder.graph.nodes)
            h_prev, c_prev = lstm_cell(
                builder,
                x,
                h_prev,
                c_prev,
                wx,
                wh,
                bias,
                hidden_size,
                prefix=f"l{layer}t{t}",
                roles=roles,
            )
            outputs.append(h_prev)
            for node in builder.graph.nodes_since(before):
                layer_of_node[node] = layer
        for role, nodes in roles.items():
            unroll_groups[f"l{layer}_{role}"] = nodes
        layer_inputs = outputs

    # Training objective: a scalar summary of the final layer's last hidden
    # state (the paper's weight accounting excludes an output projection; see
    # EXPERIMENTS.md for the deviation note).
    final_hidden = layer_inputs[-1]
    loss = builder.apply("reduce_mean_all", [final_hidden], name="loss")
    builder.mark_output(loss)
    layer_of_node[loss] = num_layers - 1

    if training:
        build_backward(builder, loss, weights)
        build_optimizer(builder, weights, algorithm=optimizer)
    graph = builder.finish()
    graph.metadata["layer_of_node"] = layer_of_node
    graph.metadata["unroll_groups"] = list(unroll_groups.values())

    return ModelBundle(
        graph=graph,
        weights=weights,
        loss=loss,
        batch_size=batch_size,
        name=f"RNN-{num_layers}-{hidden_size // 1024}K",
        layer_of_node=layer_of_node,
        hyperparams={
            "num_layers": num_layers,
            "hidden_size": hidden_size,
            "seq_len": seq_len,
            "batch_size": batch_size,
        },
    )


def rnn_weight_gib(num_layers: int, hidden_size: int) -> float:
    """Analytic weight-memory footprint in GiB (weight + grad + history)."""
    per_layer = 2 * hidden_size * 4 * hidden_size + 4 * hidden_size
    params = num_layers * per_layer
    return PERSISTENT_FACTOR * params * 4 / (1 << 30)
