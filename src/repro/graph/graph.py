"""The dataflow graph container.

This module is the stand-in for MXNet/NNVM's graph representation: a static
graph of fine-grained tensor operators.  The Tofu partitioner, the autodiff
pass, the memory planner and the multi-GPU simulator all consume this
structure.
"""

from __future__ import annotations

from collections import defaultdict, deque
from itertools import islice
from typing import Dict, Iterable, List, Optional

from repro.errors import GraphError
from repro.graph.frozen import FrozenDict, freeze_value, read_only
from repro.graph.memo import memoized
from repro.graph.node import OpNode
from repro.graph.tensor import TensorSpec


class Graph:
    """A static dataflow graph of tensors and operator nodes.

    Nodes and tensors are stored in insertion order, which for graphs built by
    :class:`repro.graph.builder.GraphBuilder` is already a valid topological
    order.  ``metadata`` carries cross-pass information, most importantly the
    forward/backward correspondences produced by autodiff that graph
    coarsening (Sec 5.1 of the paper) relies on:

    * ``grad_of``: forward tensor name -> gradient tensor name
    * ``bwd_nodes_of``: forward node name -> list of backward node names
    * ``loss``: name of the scalar loss tensor
    * ``weights``: list of weight tensor names
    * ``unroll_groups``: list of lists of node names that are unrolled
      timesteps of the same computation (used for RNN coalescing).

    A graph is editable until :meth:`freeze`, which computing its content
    signature (:func:`repro.caching.graph_signature`) calls and which every
    compile therefore implies.  From then on ``signature`` holds that hash
    and every edit of what the signature covers raises a coded
    :class:`GraphError`.
    """

    #: True once :meth:`freeze` has run.
    frozen = False
    #: The content hash :func:`repro.caching.graph_signature` stored.
    signature: Optional[str] = None

    def __init__(self, name: str = "graph") -> None:
        self.name = name
        self.tensors: Dict[str, TensorSpec] = {}
        self.nodes: Dict[str, OpNode] = {}
        self.metadata: Dict[str, object] = {}
        self._consumers: Dict[str, List[str]] = defaultdict(list)

    def __setattr__(self, name: str, value: object) -> None:
        # A frozen graph only takes its signature, once.
        if self.frozen and (name != "signature" or self.signature is not None):
            read_only(self)
        object.__setattr__(self, name, value)

    def freeze(self) -> None:
        """Make the graph read-only; idempotent.

        Tensors and nodes become read-only records, and the metadata is
        copied into read-only containers, so nothing the caller still holds
        (a model bundle's ``layer_of_node``, say) can edit the frozen graph.
        ``add_tensor`` and ``add_node`` raise from now on.  To edit a frozen
        graph, edit a copy: ``graph_from_dict(graph_to_dict(graph))``.
        """
        if self.frozen:
            return
        for spec in self.tensors.values():
            spec.freeze()
        for node in self.nodes.values():
            node.freeze()
        self.tensors = FrozenDict(self.tensors)
        self.nodes = FrozenDict(self.nodes)
        self.metadata = freeze_value(self.metadata)
        self.frozen = True

    # ----------------------------------------------------------- construction
    def add_tensor(self, spec: TensorSpec) -> TensorSpec:
        if self.frozen:
            read_only(self)
        if spec.name in self.tensors:
            raise GraphError(f"duplicate tensor name {spec.name!r}")
        self.tensors[spec.name] = spec
        return spec

    def add_node(self, node: OpNode) -> OpNode:
        if self.frozen:
            read_only(self)
        if node.name in self.nodes:
            raise GraphError(f"duplicate node name {node.name!r}")
        for t in node.inputs:
            if t not in self.tensors:
                raise GraphError(f"node {node.name!r} reads unknown tensor {t!r}")
        for t in node.outputs:
            if t not in self.tensors:
                raise GraphError(f"node {node.name!r} writes unknown tensor {t!r}")
            existing = self.tensors[t].producer
            if existing is not None and existing != node.name:
                raise GraphError(
                    f"tensor {t!r} already produced by {existing!r}; "
                    f"cannot also be produced by {node.name!r}"
                )
            self.tensors[t].producer = node.name
        self.nodes[node.name] = node
        for t in node.inputs:
            self._consumers[t].append(node.name)
        return node

    # ---------------------------------------------------------------- queries
    def tensor(self, name: str) -> TensorSpec:
        try:
            return self.tensors[name]
        except KeyError:
            raise GraphError(f"unknown tensor {name!r}") from None

    def node(self, name: str) -> OpNode:
        try:
            return self.nodes[name]
        except KeyError:
            raise GraphError(f"unknown node {name!r}") from None

    def producer_of(self, tensor_name: str) -> Optional[OpNode]:
        spec = self.tensor(tensor_name)
        if spec.producer is None:
            return None
        return self.nodes[spec.producer]

    def consumers_of(self, tensor_name: str) -> List[OpNode]:
        self.tensor(tensor_name)
        return [self.nodes[n] for n in self._consumers.get(tensor_name, [])]

    def graph_inputs(self) -> List[TensorSpec]:
        """Tensors with no producer (data, weights, optimiser state)."""
        return [t for t in self.tensors.values() if t.producer is None]

    def graph_outputs(self) -> List[TensorSpec]:
        """Tensors that no node consumes."""
        return [
            t
            for t in self.tensors.values()
            if t.producer is not None and not self._consumers.get(t.name)
        ]

    def num_nodes(self) -> int:
        return len(self.nodes)

    def num_tensors(self) -> int:
        return len(self.tensors)

    def nodes_since(self, count: int) -> List[str]:
        """Names of the nodes added since the graph held ``count`` nodes, in
        insertion order.

        Nodes are only ever appended, so these are the tail of ``nodes``;
        reading it from the back costs O(nodes added), not O(graph).
        """
        added = list(islice(reversed(self.nodes), len(self.nodes) - count))
        added.reverse()
        return added

    # ------------------------------------------------------------- traversal
    def topo_order(self) -> List[OpNode]:
        """Topological order of nodes (Kahn's algorithm, deterministic).

        A frozen graph's order is sorted once per compile
        (:mod:`repro.graph.memo`); every caller gets its own list.
        """
        return list(memoized(self, "topo_order", self._kahn_order))

    def _kahn_order(self) -> List[OpNode]:
        indegree: Dict[str, int] = {}
        for node in self.nodes.values():
            deg = 0
            for t in node.inputs:
                if self.tensors[t].producer is not None:
                    deg += 1
            indegree[node.name] = deg
        ready = deque(n for n, d in indegree.items() if d == 0)
        order: List[OpNode] = []
        while ready:
            name = ready.popleft()
            node = self.nodes[name]
            order.append(node)
            for out in node.outputs:
                for consumer in self._consumers.get(out, []):
                    indegree[consumer] -= 1
                    if indegree[consumer] == 0:
                        ready.append(consumer)
        if len(order) != len(self.nodes):
            raise GraphError("graph contains a cycle")
        return order

    def validate(self) -> None:
        """Check structural invariants; raises :class:`GraphError` on failure."""
        self.topo_order()
        for node in self.nodes.values():
            for t in node.all_tensors():
                if t not in self.tensors:
                    raise GraphError(f"node {node.name} references unknown tensor {t}")
        for name, spec in self.tensors.items():
            if spec.producer is not None and spec.producer not in self.nodes:
                raise GraphError(f"tensor {name} produced by unknown node {spec.producer}")

    # ------------------------------------------------------------ accounting
    def total_bytes(self, kinds: Optional[Iterable[str]] = None) -> int:
        """Total bytes of all tensors, optionally filtered by kind."""
        wanted = set(kinds) if kinds is not None else None
        total = 0
        for spec in self.tensors.values():
            if wanted is None or spec.kind in wanted:
                total += spec.size_bytes()
        return total

    def weight_bytes(self) -> int:
        return self.total_bytes(kinds=("weight",))

    def persistent_bytes(self) -> int:
        return self.total_bytes(kinds=("weight", "state"))

    def op_histogram(self) -> Dict[str, int]:
        """Count of nodes per operator name, useful for reporting."""
        hist: Dict[str, int] = defaultdict(int)
        for node in self.nodes.values():
            hist[node.op] += 1
        return dict(hist)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Graph({self.name!r}, nodes={len(self.nodes)}, "
            f"tensors={len(self.tensors)})"
        )
