"""Communication cost model for partition search (Sec 5, Appendix A.3).

The search minimises total communication: for a candidate assignment of a
partition dimension to every tensor and a partition-n-reduce strategy to every
operator, the cost of an operator is the number of bytes its workers must
fetch remotely (input regions not locally owned) plus the bytes moved to put
its output into the assigned layout (concatenation mismatch or output
reduction).

For every operator the model pre-computes, from its TDL access summary, the
per-worker input region sizes of every strategy.  Profiles are keyed by the
operator's *shape signature*, so the thousands of structurally identical
operators in a large model (e.g. the repeated residual blocks of WResNet-152)
share a single profile and evaluating an assignment reduces to a handful of
arithmetic operations — this is what keeps the DP and the recursive search
fast (Table 1).

A node's cost depends only on its profile and the partition dimensions of
the tensors it touches, so :meth:`NodeProfile.best_strategy` memoises the
winning ``(axis, fetch, redistribute)`` per dims tuple on the profile
itself.  :meth:`CommunicationCostModel.node_cost`,
:meth:`~CommunicationCostModel.node_cost_detail` and the DP's group pricing
all read that one memo, so every structurally identical node shares it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.graph.graph import Graph
from repro.graph.node import OpNode
from repro.graph.tensor import DTYPE_SIZES
from repro.interval.analysis import analyze_cached
from repro.interval.strategies import (
    bind_extents,
    discover_strategies,
    worker_input_elements,
)
from repro.ops.registry import get_op, num_elements


@dataclass
class StrategyProfile:
    """Pre-computed data for one (operator signature, strategy) pair.

    ``inputs`` holds one entry per operator input position:
    ``(position, dim that follows the axis or None, elements needed per
    worker, total elements, bytes per element)``.  ``outputs`` holds
    ``(position, total elements, bytes per element)`` per output.
    """

    axis: str
    kind: str  # "output" | "reduction"
    output_dim: Optional[int]
    inputs: List[Tuple[int, Optional[int], float, float, int]]
    outputs: List[Tuple[int, float, int]]


#: Memo sentinel: a memoised result is never ``None``, but spelling the miss
#: out keeps zero and infinite costs from ever reading as one.
_MISSING = object()


@dataclass
class NodeProfile:
    """All strategy profiles for one operator shape signature.

    ``best`` memoises :meth:`best_strategy` by dims tuple; it lives and dies
    with the profile, so :meth:`CommunicationCostModel.set_shapes` clears it
    together with the profiles.
    """

    signature: Tuple
    parts: int
    num_inputs: int = 0
    strategies: List[StrategyProfile] = field(default_factory=list)
    best: Dict[Tuple[int, ...], Tuple[str, float, float]] = field(
        default_factory=dict, repr=False, compare=False
    )

    def best_strategy(self, dims: Tuple[int, ...]) -> Tuple[str, float, float]:
        """``(axis, fetch bytes, redistribute bytes)`` of the cheapest strategy.

        ``dims`` holds the partition dimension of every input, then every
        output, of a node with this profile.  Ties go to the first strategy
        with the minimum ``fetch + redistribute``.
        """
        result = self.best.get(dims, _MISSING)
        if result is _MISSING:
            in_dims = dims[: self.num_inputs]
            out_dims = dims[self.num_inputs :]
            best_index = 0
            best_cost = float("inf")
            costs = []
            for index, strategy in enumerate(self.strategies):
                fetch, redistribute = _strategy_cost(
                    strategy, in_dims, out_dims, self.parts
                )
                costs.append((fetch, redistribute))
                if fetch + redistribute < best_cost:
                    best_cost = fetch + redistribute
                    best_index = index
            result = (self.strategies[best_index].axis, *costs[best_index])
            self.best[dims] = result
        return result


class CommunicationCostModel:
    """Evaluates the communication cost of partition assignments.

    Args:
        graph: The dataflow graph being partitioned.
        shapes: Current tensor shapes (defaults to the graph's shapes).  The
            recursive search passes progressively shrunk shapes at each step.
        allow_reduction: When ``False``, reduction-dimension strategies are
            dropped, reproducing the ICML18 baseline of Sec 7.3.
    """

    def __init__(
        self,
        graph: Graph,
        shapes: Optional[Mapping[str, Tuple[int, ...]]] = None,
        *,
        allow_reduction: bool = True,
    ) -> None:
        self.graph = graph
        self.allow_reduction = allow_reduction
        if shapes is None:
            shapes = {name: spec.shape for name, spec in graph.tensors.items()}
        self.shapes: Dict[str, Tuple[int, ...]] = dict(shapes)
        self._profiles: Dict[Tuple, NodeProfile] = {}
        self._node_profile: Dict[Tuple[str, int], NodeProfile] = {}

    # ----------------------------------------------------------- shapes API
    def set_shapes(self, shapes: Mapping[str, Tuple[int, ...]]) -> None:
        """Replace the working shapes (invalidates all cached profiles and,
        with them, their cost memos)."""
        self.shapes = dict(shapes)
        self._profiles.clear()
        self._node_profile.clear()

    def tensor_bytes(self, tensor: str) -> float:
        spec = self.graph.tensor(tensor)
        return float(num_elements(self.shapes[tensor])) * DTYPE_SIZES[spec.dtype]

    def candidate_dims(self, tensor: str, parts: int, *, limit: int = 3) -> List[int]:
        """Dimensions along which ``tensor`` can sensibly be split.

        Only dimensions at least as large as ``parts`` qualify; when more than
        ``limit`` qualify, the largest ones are kept (splitting a tiny
        convolution-kernel dimension is never beneficial and only inflates the
        search space).
        """
        shape = self.shapes[tensor]
        if not shape:
            return [0]
        dims = [d for d, size in enumerate(shape) if size >= parts]
        if not dims:
            largest = max(range(len(shape)), key=lambda d: shape[d])
            dims = [largest]
        if len(dims) > limit:
            dims = sorted(sorted(dims, key=lambda d: shape[d], reverse=True)[:limit])
        return dims

    # -------------------------------------------------------------- profile
    def node_profile(self, node_name: str, parts: int) -> NodeProfile:
        key = (node_name, parts)
        profile = self._node_profile.get(key)
        if profile is not None:
            return profile
        node = self.graph.node(node_name)
        signature = self._signature(node, parts)
        profile = self._profiles.get(signature)
        if profile is None:
            profile = self._build_profile(node, signature, parts)
            self._profiles[signature] = profile
        self._node_profile[key] = profile
        return profile

    def _signature(self, node: OpNode, parts: int) -> Tuple:
        in_sig = tuple(
            (self.shapes[t], self.graph.tensor(t).dtype) for t in node.inputs
        )
        out_sig = tuple(
            (self.shapes[t], self.graph.tensor(t).dtype) for t in node.outputs
        )
        return (node.op, in_sig, out_sig, parts, self.allow_reduction)

    def _build_profile(self, node: OpNode, signature: Tuple, parts: int) -> NodeProfile:
        opdef = get_op(node.op)
        profile = NodeProfile(
            signature=signature, parts=parts, num_inputs=len(node.inputs)
        )

        out_entries: List[Tuple[int, float, int]] = []
        for position, out in enumerate(node.outputs):
            spec = self.graph.tensor(out)
            out_entries.append(
                (position, float(num_elements(self.shapes[out])), DTYPE_SIZES[spec.dtype])
            )

        description = opdef.tdl
        output_shape = self.shapes[node.outputs[0]]
        use_tdl = (
            not opdef.elementwise
            and description is not None
            and len(output_shape) == len(description.output_vars)
        )
        if not use_tdl:
            profile.strategies = self._elementwise_profile(node, parts, out_entries)
            return profile

        summary = analyze_cached(description)
        input_shapes: Dict[str, Sequence[int]] = {}
        arg_of_position: List[Optional[str]] = []
        for position, tensor in enumerate(node.inputs):
            if position < len(description.input_names):
                arg = description.input_names[position]
                arg_of_position.append(arg)
                input_shapes[arg] = self.shapes[tensor]
            else:
                arg_of_position.append(None)

        extents = bind_extents(summary, output_shape, input_shapes)
        strategies = discover_strategies(
            description, allow_reduction=self.allow_reduction, summary=summary
        )

        for strategy in strategies:
            inputs: List[Tuple[int, Optional[int], float, float, int]] = []
            for position, tensor in enumerate(node.inputs):
                spec = self.graph.tensor(tensor)
                elem_size = DTYPE_SIZES[spec.dtype]
                arg = arg_of_position[position]
                total = float(num_elements(self.shapes[tensor]))
                if arg is None:
                    inputs.append((position, None, total, total, elem_size))
                    continue
                wanted_dim = strategy.input_dim(arg)
                needed = worker_input_elements(
                    summary, strategy, arg, self.shapes[tensor], extents, parts
                )
                inputs.append((position, wanted_dim, needed, total, elem_size))
            profile.strategies.append(
                StrategyProfile(
                    axis=strategy.axis,
                    kind=strategy.kind,
                    output_dim=strategy.output_dim,
                    inputs=inputs,
                    outputs=out_entries,
                )
            )
        return profile

    def _elementwise_profile(
        self, node: OpNode, parts: int, out_entries
    ) -> List[StrategyProfile]:
        """Strategies for element-wise (or undescribed) operators: one per
        output dimension, every same-shaped input following that dimension."""
        output_shape = self.shapes[node.outputs[0]]
        ndim = max(1, len(output_shape))
        strategies: List[StrategyProfile] = []
        for dim in range(ndim):
            inputs: List[Tuple[int, Optional[int], float, float, int]] = []
            for position, tensor in enumerate(node.inputs):
                spec = self.graph.tensor(tensor)
                shape = self.shapes[tensor]
                total = float(num_elements(shape))
                elem_size = DTYPE_SIZES[spec.dtype]
                if shape == output_shape:
                    inputs.append((position, dim, total / parts, total, elem_size))
                else:
                    # Shape mismatch (e.g. broadcast operand): the full tensor
                    # is needed by every worker.
                    inputs.append((position, None, total, total, elem_size))
            strategies.append(
                StrategyProfile(
                    axis=f"dim{dim}",
                    kind="output",
                    output_dim=dim,
                    inputs=inputs,
                    outputs=out_entries,
                )
            )
        return strategies

    # ----------------------------------------------------------------- cost
    def node_cost(
        self,
        node_name: str,
        tensor_dims: Mapping[str, int],
        parts: int,
    ) -> Tuple[str, float]:
        """Best strategy and its communication cost for one node.

        ``tensor_dims`` must assign a partition dimension to every tensor the
        node touches.  The returned cost is the total bytes communicated by
        the whole group of ``parts`` workers for this operator.
        """
        axis, fetch, redistribute = self.node_cost_detail(
            node_name, tensor_dims, parts
        )
        return axis, fetch + redistribute

    def node_cost_detail(
        self,
        node_name: str,
        tensor_dims: Mapping[str, int],
        parts: int,
    ) -> Tuple[str, float, float]:
        """Like :meth:`node_cost` but splits the cost into input-fetch bytes
        and output-redistribution/reduction bytes (used by the partitioned
        graph generator to place reduction traffic)."""
        node = self.graph.node(node_name)
        dims = tuple(tensor_dims.get(t, 0) for t in node.inputs) + tuple(
            tensor_dims.get(t, 0) for t in node.outputs
        )
        return self.node_profile(node_name, parts).best_strategy(dims)

    def assignment_cost(
        self,
        tensor_dims: Mapping[str, int],
        parts: int,
        nodes: Optional[Sequence[str]] = None,
    ) -> Tuple[float, Dict[str, str]]:
        """Total cost of a full assignment and the per-node best strategies."""
        if nodes is None:
            nodes = list(self.graph.nodes)
        total = 0.0
        strategies: Dict[str, str] = {}
        for node_name in nodes:
            axis, cost = self.node_cost(node_name, tensor_dims, parts)
            strategies[node_name] = axis
            total += cost
        return total, strategies


def _strategy_cost(
    strategy: StrategyProfile,
    in_dims: Sequence[int],
    out_dims: Sequence[int],
    parts: int,
) -> Tuple[float, float]:
    """(input-fetch bytes, output-redistribution bytes) for one strategy."""
    fetch = 0.0
    redistribute = 0.0
    for position, wanted_dim, needed, total, elem_size in strategy.inputs:
        owned = total / parts
        assigned = in_dims[position] if position < len(in_dims) else 0
        if wanted_dim is not None and wanted_dim == assigned:
            overlap = min(needed, owned)
        else:
            overlap = needed / parts
        remote = needed - overlap
        if remote > 0.0:
            fetch += remote * elem_size * parts
    for position, total_elems, elem_size in strategy.outputs:
        assigned = out_dims[position] if position < len(out_dims) else 0
        if strategy.kind == "reduction":
            # Partial outputs of full size are reduce-scattered so each worker
            # ends up with its shard: (parts-1) * |O| bytes in total.
            redistribute += (parts - 1) * total_elems * elem_size
        elif strategy.output_dim is not None and strategy.output_dim != assigned:
            # Each worker produced a slice along the strategy dimension but
            # owns a slice along the assigned dimension.
            redistribute += total_elems * elem_size * (parts - 1) / parts
    return fetch, redistribute
