"""Reverse-mode automatic differentiation over the dataflow graph.

DNN frameworks generate the backward computation from the user's forward
graph; Tofu's graph coarsening (Sec 5.1) groups every forward operator with
the backward operators it generated and every forward tensor with its gradient
tensor.  This pass therefore records those correspondences in the graph's
metadata while it emits the backward nodes:

* ``grad_of``: forward tensor -> gradient tensor
* ``bwd_nodes_of``: forward node -> backward node names generated for it
* ``loss`` / ``loss_grad``: the scalar loss and its seed gradient
* ``weights`` / ``weight_grads``: trainable tensors and their final gradients
* ``optimizer_nodes_of``: weight -> optimiser node names
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.errors import GraphError
from repro.graph.builder import GraphBuilder
from repro.graph.tensor import TensorSpec
from repro.ops.registry import get_op


def build_backward(
    builder: GraphBuilder,
    loss: str,
    wrt: Sequence[str],
) -> Dict[str, str]:
    """Append backward nodes computing d(loss)/d(tensor) for every reachable
    tensor, and return the mapping from forward tensor to gradient tensor.

    ``wrt`` lists the trainable tensors whose gradients must exist; a missing
    gradient for one of them raises :class:`GraphError`.

    The pass is linear in the graph it emits: each step's new nodes (the
    ``bwd_nodes_of`` entry of the forward node it differentiates) are read
    off the tail of the insertion-ordered node dict with
    :meth:`Graph.nodes_since`, never by diffing snapshots of the whole graph.
    """
    graph = builder.graph
    if loss not in graph.tensors:
        raise GraphError(f"loss tensor {loss!r} is not in the graph")
    graph.metadata["forward_nodes"] = list(graph.nodes)

    previous_kind = builder.default_kind
    builder.default_kind = "gradient"
    try:
        grad_map, bwd_nodes_of = _emit_backward(builder, loss)
    finally:
        builder.default_kind = previous_kind

    missing = [w for w in wrt if w not in grad_map]
    if missing:
        raise GraphError(f"no gradient was produced for weights: {missing}")

    graph.metadata["loss"] = loss
    graph.metadata["grad_of"] = grad_map
    graph.metadata["bwd_nodes_of"] = bwd_nodes_of
    graph.metadata["weights"] = list(wrt)
    graph.metadata["weight_grads"] = {w: grad_map[w] for w in wrt}
    return grad_map


def _emit_backward(builder: GraphBuilder, loss: str):
    graph = builder.graph
    loss_spec = graph.tensor(loss)

    # Seed gradient dL/dL, modelled as an externally provided unit tensor.
    seed_name = f"{loss}_grad"
    graph.add_tensor(
        TensorSpec(name=seed_name, shape=loss_spec.shape, kind="gradient")
    )
    graph.metadata["loss_grad"] = seed_name

    partials: Dict[str, List[str]] = {loss: [seed_name]}
    grad_map: Dict[str, str] = {}
    bwd_nodes_of: Dict[str, List[str]] = {}

    forward_nodes = graph.topo_order()
    for node in reversed(forward_nodes):
        # Does any output of this node have a gradient flowing into it?
        if not any(out in partials for out in node.outputs):
            continue
        opdef = get_op(node.op)
        if opdef.gradient is None:
            continue

        nodes_before = len(graph.nodes)
        out_grads: List[Optional[str]] = []
        for out in node.outputs:
            out_grads.append(_sum_partials(builder, out, partials.get(out, [])))
        # Operators whose outputs all lack gradients were skipped above; a
        # multi-output operator may still have some outputs without gradients.
        primary = [g for g in out_grads if g is not None]
        if not primary:
            continue
        out_grads = [g if g is not None else primary[0] for g in out_grads]

        input_grads = opdef.gradient(builder, node, out_grads)
        for position, grad_tensor in input_grads.items():
            if grad_tensor is None:
                continue
            input_tensor = node.inputs[position]
            partials.setdefault(input_tensor, []).append(grad_tensor)

        for out, grad in zip(node.outputs, out_grads):
            grad_map.setdefault(out, grad)
        bwd_nodes_of[node.name] = graph.nodes_since(nodes_before)

    # Record which tensors had multiple partial gradients; graph coarsening
    # keeps the partial gradients in the same tensor group as the forward
    # tensor so they never enlarge the DP frontier.
    graph.metadata["partial_grads_of"] = {
        t: list(parts) for t, parts in partials.items() if len(parts) > 1
    }

    # Finalise gradients of graph inputs (weights, data) by summing partials.
    for tensor_name, parts in partials.items():
        if tensor_name in grad_map or not parts:
            continue
        nodes_before = len(graph.nodes)
        grad_map[tensor_name] = _sum_partials(builder, tensor_name, parts)
        new_nodes = graph.nodes_since(nodes_before)
        if new_nodes:
            producer = graph.tensor(tensor_name).producer
            owner = producer if producer is not None else new_nodes[0]
            bwd_nodes_of.setdefault(owner, []).extend(new_nodes)

    return grad_map, bwd_nodes_of


def _sum_partials(
    builder: GraphBuilder, tensor: str, parts: List[str]
) -> Optional[str]:
    """Sum a tensor's partial gradients with a chain of ``add`` nodes.

    The chain rule requires summation when a tensor feeds several consumers
    (Sec 5.1 notes the summation operator joins the tensor's group).
    """
    if not parts:
        return None
    if len(parts) == 1:
        return parts[0]
    acc = parts[0]
    for i, part in enumerate(parts[1:]):
        # In-place gradient aggregation: the accumulator reuses its buffer and
        # the accumulation itself is fused into the producing kernel's output
        # write (cuBLAS beta=1 style), which Sec 7.2 identifies as crucial for
        # large-RNN performance and memory behaviour.
        acc = builder.apply(
            "add",
            [acc, part],
            name=f"{tensor}_grad_sum{i}",
            attrs={"inplace": 0, "fused_accumulation": True},
        )
    return acc


def build_optimizer(
    builder: GraphBuilder,
    weights: Sequence[str],
    *,
    algorithm: str = "adagrad",
) -> Dict[str, List[str]]:
    """Append optimiser update nodes for every weight.

    Adagrad-style optimisers keep one history buffer per weight, which matches
    the paper's accounting that a model of weight size W consumes at least 3W
    bytes (weight + gradient + history, Sec 7.1).
    """
    graph = builder.graph
    grad_map: Dict[str, str] = graph.metadata.get("weight_grads", {})
    if not grad_map:
        raise GraphError("build_optimizer requires build_backward to run first")

    optimizer_nodes_of: Dict[str, List[str]] = {}
    previous_kind = builder.default_kind
    builder.default_kind = "state"
    try:
        for weight in weights:
            grad = grad_map[weight]
            shape = builder.tensor_shape(weight)
            nodes_before = len(graph.nodes)
            if algorithm == "adagrad":
                history = builder.state(f"{weight}_hist", shape)
                new_hist = builder.apply(
                    "adagrad_hist_update",
                    [history, grad],
                    name=f"{weight}_hist_new",
                    attrs={"inplace": 0},
                )
                new_weight = builder.apply(
                    "adagrad_apply",
                    [weight, grad, new_hist],
                    name=f"{weight}_new",
                    attrs={"inplace": 0},
                )
            elif algorithm == "sgd":
                new_weight = builder.apply(
                    "sgd_update",
                    [weight, grad],
                    name=f"{weight}_new",
                    attrs={"inplace": 0},
                )
            else:
                raise GraphError(f"unknown optimiser {algorithm!r}")
            builder.mark_output(new_weight)
            optimizer_nodes_of[weight] = graph.nodes_since(nodes_before)
    finally:
        builder.default_kind = previous_kind

    graph.metadata["optimizer_nodes_of"] = optimizer_nodes_of
    graph.metadata["optimizer"] = algorithm
    return optimizer_nodes_of
