"""Graph coarsening (Sec 5.1).

The DP partitioner works on a coarsened view of the training graph in which:

* every forward operator is grouped with the backward operators autodiff
  generated for it (plus the gradient-summation and optimiser operators it
  owns),
* every forward tensor is grouped with its gradient tensor (weights also pull
  in their optimiser state),
* consecutive element-wise operators are coalesced, and
* unrolled RNN timesteps of the same computation are coalesced (both the
  operator copies and the per-timestep tensors).

The resulting operator-group graph is generally not a DAG (forward/backward
grouping links neighbouring groups in both directions, exactly as in Fig. 5c);
the DP only needs a visit order, so groups are ordered by the forward
topological position of their earliest member.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set


from repro.graph.graph import Graph


class _UnionFind:
    """Minimal union-find over string keys."""

    def __init__(self) -> None:
        self._parent: Dict[str, str] = {}

    def find(self, item: str) -> str:
        parent = self._parent.setdefault(item, item)
        if parent == item:
            return item
        root = self.find(parent)
        self._parent[item] = root
        return root

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[rb] = ra

    def groups(self, items: Iterable[str]) -> Dict[str, List[str]]:
        out: Dict[str, List[str]] = {}
        for item in items:
            out.setdefault(self.find(item), []).append(item)
        return out


@dataclass
class OpGroup:
    """A group of operator nodes partitioned together."""

    gid: int
    members: List[str]


@dataclass
class TensorGroup:
    """A group of tensors constrained to share a partition choice per step."""

    gid: int
    members: List[str]
    persistent: bool = False


@dataclass
class CoarsenedGraph:
    """The coarsened view consumed by the DP partitioner."""

    graph: Graph
    op_groups: List[OpGroup]
    tensor_groups: List[TensorGroup]
    op_group_of: Dict[str, int]
    tensor_group_of: Dict[str, int]
    touched_by: Dict[int, List[int]] = field(default_factory=dict)  # op gid -> tensor gids
    touchers_of: Dict[int, List[int]] = field(default_factory=dict)  # tensor gid -> op gids
    #: The partition DP's step-invariant frontier layout, built by the first
    #: search over this graph (:func:`repro.partition.dp.frontier_layout`).
    frontier: Optional[list] = field(default=None, repr=False, compare=False)

    # ------------------------------------------------------------- queries
    def num_op_groups(self) -> int:
        return len(self.op_groups)

    def tensor_group(self, gid: int) -> TensorGroup:
        return self.tensor_groups[gid]

    def is_linear(self) -> bool:
        """Whether the operator-group graph is a chain (fork-join counts)."""
        succ: Dict[int, Set[int]] = {g.gid: set() for g in self.op_groups}
        for tg, touchers in self.touchers_of.items():
            ordered = sorted(touchers)
            for a, b in zip(ordered, ordered[1:]):
                if a != b:
                    succ[a].add(b)
        return all(len(s) <= 2 for s in succ.values())

    def coarsening_ratio(self) -> float:
        if not self.op_groups:
            return 1.0
        return len(self.graph.nodes) / len(self.op_groups)


def coarsen(
    graph: Graph,
    *,
    group_forward_backward: bool = True,
    coalesce_elementwise: bool = True,
    coalesce_timesteps: bool = True,
) -> CoarsenedGraph:
    """Coarsen ``graph`` (which must carry autodiff metadata).

    The three keyword switches exist for the search-time ablation of Table 1:
    turning them off yields a much larger coarsened graph and a correspondingly
    larger DP search space.
    """
    from repro.ops.registry import get_op

    node_uf = _UnionFind()
    tensor_uf = _UnionFind()
    for node_name in graph.nodes:
        node_uf.find(node_name)
    for tensor_name in graph.tensors:
        tensor_uf.find(tensor_name)

    bwd_nodes_of: Dict[str, List[str]] = graph.metadata.get("bwd_nodes_of", {})
    grad_of: Dict[str, str] = graph.metadata.get("grad_of", {})
    optimizer_nodes_of: Dict[str, List[str]] = graph.metadata.get(
        "optimizer_nodes_of", {}
    )
    forward_nodes: List[str] = graph.metadata.get(
        "forward_nodes", list(graph.nodes)
    )
    forward_set = set(forward_nodes)
    unroll_groups: List[List[str]] = graph.metadata.get("unroll_groups", [])

    # ---- group forward operators with their backward operators -------------
    if group_forward_backward:
        for fwd, bwds in bwd_nodes_of.items():
            for bwd in bwds:
                if fwd in graph.nodes and bwd in graph.nodes:
                    node_uf.union(fwd, bwd)
        for weight, opt_nodes in optimizer_nodes_of.items():
            owner = _forward_consumer(graph, weight, forward_set)
            for opt in opt_nodes:
                if owner is not None:
                    node_uf.union(owner, opt)

    # ---- group forward tensors with their gradients -------------------------
    for tensor, grad in grad_of.items():
        if tensor in graph.tensors and grad in graph.tensors:
            tensor_uf.union(tensor, grad)
    # Partial gradients (before chain-rule summation) stay with the forward
    # tensor so cross-group gradient flows do not enlarge the DP frontier.
    for tensor, partials in graph.metadata.get("partial_grads_of", {}).items():
        if tensor not in graph.tensors:
            continue
        for partial in partials:
            if partial in graph.tensors:
                tensor_uf.union(tensor, partial)
    for weight, opt_nodes in optimizer_nodes_of.items():
        for opt in opt_nodes:
            node = graph.nodes.get(opt)
            if node is None:
                continue
            for tensor in node.all_tensors():
                spec = graph.tensor(tensor)
                if spec.is_persistent() or spec.kind == "output":
                    tensor_uf.union(weight, tensor)

    # ---- coalesce unrolled timesteps ----------------------------------------
    if coalesce_timesteps:
        for group in unroll_groups:
            present = [n for n in group if n in graph.nodes]
            for a, b in zip(present, present[1:]):
                node_uf.union(a, b)
            # Tensors produced by corresponding timesteps share partitions.
            outputs = [graph.nodes[n].outputs for n in present]
            for first, other in zip(outputs, outputs[1:]):
                for t_a, t_b in zip(first, other):
                    tensor_uf.union(t_a, t_b)

    # ---- coalesce consecutive element-wise operators -------------------------
    # Only merge across a tensor with a single forward consumer: merging
    # through a shared tensor (e.g. a residual connection feeding both the
    # next block and its skip path) would chain every residual block of a
    # stage into one enormous group and defeat the purpose of coarsening.
    if coalesce_elementwise:
        for node_name in forward_nodes:
            node = graph.nodes.get(node_name)
            if node is None or not get_op(node.op).elementwise:
                continue
            for tensor in node.inputs:
                producer = graph.tensor(tensor).producer
                if producer is None or producer not in forward_set:
                    continue
                if not get_op(graph.nodes[producer].op).elementwise:
                    continue
                forward_consumers = [
                    c for c in graph.consumers_of(tensor) if c.name in forward_set
                ]
                if len(forward_consumers) == 1:
                    node_uf.union(node_name, producer)

    # ---- materialise groups ---------------------------------------------------
    # Note: the operator-group graph is *not* a DAG — grouping a forward
    # operator with its backward operators creates mutual dependencies between
    # neighbouring groups (Fig. 5c has edges in both directions).  The DP does
    # not need a DAG, only a visit order; groups are ordered by the forward
    # topological position of their earliest member, which keeps the DP
    # frontier small for chain-like models.
    topo_position = {node.name: i for i, node in enumerate(graph.topo_order())}
    raw_tensor_groups = tensor_uf.groups(graph.tensors)
    final_node_groups = node_uf.groups(graph.nodes)

    op_groups: List[OpGroup] = []
    op_group_of: Dict[str, int] = {}
    ordered_roots = sorted(
        final_node_groups,
        key=lambda root: min(topo_position[m] for m in final_node_groups[root]),
    )
    for gid, root in enumerate(ordered_roots):
        members = sorted(final_node_groups[root], key=lambda m: topo_position[m])
        op_groups.append(OpGroup(gid=gid, members=members))
        for member in members:
            op_group_of[member] = gid

    tensor_groups: List[TensorGroup] = []
    tensor_group_of: Dict[str, int] = {}
    for gid, (root, members) in enumerate(sorted(raw_tensor_groups.items())):
        persistent = any(graph.tensor(m).is_persistent() for m in members)
        tensor_groups.append(
            TensorGroup(gid=gid, members=sorted(members), persistent=persistent)
        )
        for member in members:
            tensor_group_of[member] = gid

    touched_by: Dict[int, List[int]] = {}
    touchers_of: Dict[int, List[int]] = {}
    for group in op_groups:
        touched: Set[int] = set()
        for member in group.members:
            node = graph.nodes[member]
            for tensor in node.all_tensors():
                touched.add(tensor_group_of[tensor])
        touched_by[group.gid] = sorted(touched)
        for tg in touched:
            touchers_of.setdefault(tg, []).append(group.gid)
    for tg in touchers_of:
        touchers_of[tg] = sorted(set(touchers_of[tg]))

    return CoarsenedGraph(
        graph=graph,
        op_groups=op_groups,
        tensor_groups=tensor_groups,
        op_group_of=op_group_of,
        tensor_group_of=tensor_group_of,
        touched_by=touched_by,
        touchers_of=touchers_of,
    )


def _forward_consumer(graph: Graph, tensor: str, forward_set: Set[str]) -> Optional[str]:
    """The forward node consuming ``tensor``, used to place optimiser nodes."""
    for consumer in graph.consumers_of(tensor):
        if consumer.name in forward_set:
            return consumer.name
    consumers = graph.consumers_of(tensor)
    return consumers[0].name if consumers else None
