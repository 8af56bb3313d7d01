"""Reusable layer builders and the :class:`ModelBundle` result type."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.graph.builder import GraphBuilder
from repro.graph.graph import Graph

#: Persistent bytes per weight byte: the weight, its gradient and the
#: optimiser history (the paper's 3W rule).
PERSISTENT_FACTOR = 3.0


@dataclass
class ModelBundle:
    """A built training graph plus the metadata the rest of the system needs.

    Attributes:
        graph: The full training graph (forward + backward + optimiser).
        weights: Trainable tensor names.
        loss: Name of the scalar loss tensor.
        batch_size: Global mini-batch size the graph was built for.
        name: Human-readable model name (e.g. ``WResNet-152-10``).
        layer_of_node: Forward-node -> layer index (used by the
            operator-placement baseline); backward nodes inherit their forward
            node's layer through the autodiff metadata.
        hyperparams: The configuration used to build the model.
    """

    graph: Graph
    weights: List[str]
    loss: str
    batch_size: int
    name: str
    layer_of_node: Dict[str, int] = field(default_factory=dict)
    hyperparams: Dict[str, object] = field(default_factory=dict)

    def weight_bytes(self) -> int:
        return sum(self.graph.tensor(w).size_bytes() for w in self.weights)

    def weight_memory_bytes(self) -> float:
        """Weight + gradient + optimiser-history bytes (the paper's 3W rule)."""
        return PERSISTENT_FACTOR * self.weight_bytes()


def conv_bn_relu(
    builder: GraphBuilder,
    data: str,
    in_channels: int,
    out_channels: int,
    *,
    kernel: int = 3,
    stride: int = 1,
    relu: bool = True,
    prefix: str = "conv",
    weights: Optional[List[str]] = None,
) -> str:
    """Convolution -> batch-norm -> (optional) ReLU, returning the output."""
    weight = builder.weight(f"{prefix}_w", (out_channels, in_channels, kernel, kernel))
    gamma = builder.weight(f"{prefix}_gamma", (out_channels,))
    beta = builder.weight(f"{prefix}_beta", (out_channels,))
    if weights is not None:
        weights.extend([weight, gamma, beta])
    out = builder.conv2d(data, weight, stride=stride, pad=kernel // 2, name=prefix)
    out = builder.apply("batch_norm", [out, gamma, beta], name=f"{prefix}_bn")
    if relu:
        out = builder.relu(out, name=f"{prefix}_relu")
    return out


def dense_layer(
    builder: GraphBuilder,
    data: str,
    in_features: int,
    out_features: int,
    *,
    activation: Optional[str] = "relu",
    prefix: str = "fc",
    weights: Optional[List[str]] = None,
) -> str:
    """Fully connected layer with bias and optional activation."""
    weight = builder.weight(f"{prefix}_w", (in_features, out_features))
    bias = builder.weight(f"{prefix}_b", (out_features,))
    if weights is not None:
        weights.extend([weight, bias])
    out = builder.matmul(data, weight, name=prefix)
    out = builder.apply("bias_add", [out, bias], name=f"{prefix}_bias")
    if activation:
        out = builder.apply(activation, [out], name=f"{prefix}_{activation}")
    return out


def lstm_cell(
    builder: GraphBuilder,
    x: str,
    h_prev: str,
    c_prev: str,
    wx: str,
    wh: str,
    bias: str,
    hidden: int,
    *,
    prefix: str,
    roles: Optional[Dict[str, List[str]]] = None,
) -> tuple:
    """One LSTM cell step built from fine-grained operators.

    The cell follows the standard formulation (Hochreiter & Schmidhuber):
    a single fused gate projection of size ``4*hidden`` followed by slicing
    into the input/forget/cell/output gates.  ``roles`` collects the node name
    of every operator keyed by its role so the model builder can record
    unrolled-timestep groups for graph coarsening (Sec 5.1).
    """

    def record(role: str, tensor: str) -> str:
        if roles is not None:
            roles.setdefault(role, []).append(tensor)
        return tensor

    gx = record("gates_x", builder.apply("matmul", [x, wx], name=f"{prefix}_gx"))
    gh = record("gates_h", builder.apply("matmul", [h_prev, wh], name=f"{prefix}_gh"))
    gates = record("gates_add", builder.add(gx, gh, name=f"{prefix}_gadd"))
    gates = record(
        "gates_bias", builder.apply("bias_add", [gates, bias], name=f"{prefix}_gbias")
    )

    def gate(index: int, role: str) -> str:
        begin = index * hidden
        return record(
            f"slice_{role}",
            builder.apply(
                "slice_axis1",
                [gates],
                name=f"{prefix}_{role}_slice",
                attrs={"begin": begin, "end": begin + hidden},
            ),
        )

    i_gate = record("sig_i", builder.sigmoid(gate(0, "i"), name=f"{prefix}_i"))
    f_gate = record("sig_f", builder.sigmoid(gate(1, "f"), name=f"{prefix}_f"))
    g_gate = record("tanh_g", builder.tanh(gate(2, "g"), name=f"{prefix}_g"))
    o_gate = record("sig_o", builder.sigmoid(gate(3, "o"), name=f"{prefix}_o"))

    fc = record("mul_fc", builder.multiply(f_gate, c_prev, name=f"{prefix}_fc"))
    ig = record("mul_ig", builder.multiply(i_gate, g_gate, name=f"{prefix}_ig"))
    c_new = record("add_c", builder.add(fc, ig, name=f"{prefix}_c"))
    c_tanh = record("tanh_c", builder.tanh(c_new, name=f"{prefix}_ct"))
    h_new = record("mul_h", builder.multiply(o_gate, c_tanh, name=f"{prefix}_h"))
    return h_new, c_new
