"""Dynamic-programming partition search over the coarsened graph (Sec 5).

``dp_partition_step`` finds the minimum-communication assignment of one
partition dimension per tensor (and one partition-n-reduce strategy per
operator) for a single recursive step that splits the graph across ``parts``
worker groups.  It is a *frontier* DP: operator groups are visited in
topological order and the DP state is the set of partition choices of the
tensor groups that cross the frontier between visited and unvisited groups.
On the paper's WResNets the frontier stays tiny (at most 9 states).  On
its coalesced RNNs it does not: RNN-10-8K reaches 2,048 states, so the
:data:`MAX_STATES` cap binds and prunes.

``joint_partition`` is the non-recursive variant used as the Table 1
comparison point: every tensor group chooses a full multi-step configuration
(a tuple of dimensions) at once, which blows up the per-group search space
exactly as the paper describes.

The inner loop rests on four facts.

* **A step-invariant frontier layout.**  Which tensor groups cross the
  frontier before an op group depends neither on the state nor on the
  shapes or the parts: a group is decided at its first toucher and leaves
  at its last.  So :func:`frontier_layout` builds one
  :class:`_GroupFrontier` per op group once per coarsened graph, and keeps
  it there for every later step and search.  It fixes the decided, carried
  and dropped groups, ``operator.itemgetter`` gathers over ``state key +
  combo``, and each member's ``(slot, rank - 1)`` spec.  Each step derives
  only what the shrunk shapes change into a :class:`_GroupLayout`: the
  candidate combos, the reference slot that internal temporaries copy (the
  largest local group, each group's bytes read once per step), and the
  member classes.
* **Profile-keyed node costs.**  A node's cost depends only on its shared
  :class:`~repro.partition.cost.NodeProfile` and its dims, so members of an
  op group fall into classes of equal ``(profile, spec)``.  A group-cost
  miss prices each class once through the profile's memo.
* **Shared cost tables.**  A group's cost reads only its reference slot, its
  member classes and each member's class index, and the repeated blocks of
  a model agree on all three.  Within one :meth:`_FrontierDP.solve`, groups
  of equal structure share one ``costs`` table, so each structure is priced
  once per step (WResNet-152: 467 op groups, 59 structures).  The tables
  key profiles by identity, so they live and die with the solve.
* **Interned flat keys.**  Each candidate config is interned once as a
  small int, so a state key, a combo and a cost-table key are flat int
  tuples in tensor-group order, cheap to hash.  Configs are decoded only
  where they are read: a group-cost miss, and plan recovery (which the node
  prices read).  One dict per expansion holds each next key's cost and
  back-pointer ``(cost, previous key, combo index)``, so a step hashes its
  next key once unless it improves on an earlier one.

All four are pure refactorings of the original dict-keyed walk and must
keep its plans bit-identical: costs are still summed steps outer, members
inner, in member order; a state is replaced only on a strictly lower cost,
so the first-encountered state wins ties; keys enter the next frontier in
the same first-encounter order, so the stable :data:`MAX_STATES` sort keeps
the same states.  The golden plan digests in
``tests/partition/test_plan_digests.py`` and the paper-scale signatures in
``tests/data/paper_plan_signatures.json`` pin this.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import perf
from repro.errors import PartitionError
from repro.graph.graph import Graph
from repro.partition.coarsen import CoarsenedGraph, coarsen
from repro.partition.cost import CommunicationCostModel, NodeProfile
from repro.partition.plan import PartitionPlan, StepAssignment, factorize_workers

Config = Tuple[int, ...]  # one dimension per step
StateKey = Tuple[int, ...]  # interned frontier configs in tensor-group order
#: A next-frontier state: its cost, and the state and combo index it came from.
Entry = Tuple[float, StateKey, int]
NodePrice = Tuple[str, float, float]  # (axis, fetch bytes, redistribute bytes)
#: A member's ``(slot, rank - 1)`` per input, then per output tensor.
Spec = Tuple[Tuple[int, int], ...]
#: Per step: the distinct ``(profile, spec)`` member classes, and each
#: member's class index in member order.
MemberClasses = List[Tuple[List[Tuple[NodeProfile, Spec]], Tuple[int, ...]]]

#: Frontier-DP state cap: after each op group only the cheapest states are
#: kept.  It binds on the paper's RNNs: on RNN-10-8K, 114 of 363 group
#: expansions exceed it (up to 2,048 states), and even the tiny test LSTM
#: prunes.  No WResNet comes close.  Every dropped state is counted on the
#: ``partition.dp_pruned_states`` profile counter.
MAX_STATES = 256


def _gather(indices: Sequence[int]) -> Callable[[tuple], tuple]:
    """A function picking ``indices`` out of a tuple, always as a tuple."""
    if not indices:
        return lambda values: ()
    if len(indices) == 1:
        index = indices[0]
        return lambda values: (values[index],)
    return itemgetter(*indices)


@dataclass(frozen=True)
class _GroupFrontier:
    """Where one op group sits on the DP frontier: what no step changes.

    Slots index ``state key + combo``: the frontier before the group, then
    one config per ``decision`` tensor group.  ``local`` lists the touched
    tensor groups that are not ``internal`` (carried ones, then decided
    ones); ``local_key`` gathers their configs and ``next_key`` gathers the
    frontier after the group.  ``specs`` holds each member's :data:`Spec`,
    whose slots index the local key plus one trailing slot for the
    reference config of internal tensor groups.  A split keeps a tensor's
    rank, so the ranks hold at every step.
    """

    gid: int
    decision: Tuple[int, ...]
    internal: Tuple[int, ...]
    local: Tuple[int, ...]
    local_key: Callable[[tuple], StateKey]
    next_key: Callable[[tuple], StateKey]
    members: Tuple[str, ...]
    specs: Tuple[Spec, ...]


@dataclass
class _GroupLayout:
    """One op group's DP transition at the current shapes.

    ``combos`` are the decision groups' interned candidates.  ``reference``
    indexes the local key at the largest local group, whose config internal
    temporaries copy (``None``: the all-zero config).  ``classes`` are the
    member classes per step.  ``costs`` memoises group costs by local key;
    every layout of the same solve with equal ``reference`` and classes
    shares it.
    """

    frontier: _GroupFrontier
    combos: List[StateKey]
    reference: Optional[int]
    classes: MemberClasses
    costs: Dict[StateKey, float]


def frontier_layout(coarse: CoarsenedGraph) -> List[_GroupFrontier]:
    """The :class:`_GroupFrontier` of every op group, in visit order.

    Built by the first search over ``coarse`` and kept on it.
    """
    layout = coarse.frontier
    if layout is None:
        layout = coarse.frontier = _build_frontier(coarse)
    return layout


def _build_frontier(coarse: CoarsenedGraph) -> List[_GroupFrontier]:
    """A tensor group is decided by its first toucher when more than one op
    group touches it or it is persistent, and stays on the frontier until
    its last toucher; any other group is internal to its only toucher."""
    graph = coarse.graph
    first: Dict[int, int] = {}
    last: Dict[int, int] = {}
    for tg, touchers in coarse.touchers_of.items():
        first[tg] = min(touchers)
        last[tg] = max(touchers)

    groups: List[_GroupFrontier] = []
    frontier: List[int] = []
    for group in coarse.op_groups:
        gid = group.gid
        decision: List[int] = []
        internal: List[int] = []
        carried: List[int] = []
        for tg in coarse.touched_by[gid]:
            if first[tg] != gid:
                carried.append(tg)
            elif len(coarse.touchers_of[tg]) > 1 or coarse.tensor_group(tg).persistent:
                decision.append(tg)
            else:
                internal.append(tg)

        slot = {tg: i for i, tg in enumerate(frontier)}
        missing = [tg for tg in carried if tg not in slot]
        if missing:
            raise PartitionError(
                f"tensor groups {missing} reached group {gid} unassigned"
            )
        for i, tg in enumerate(decision):
            slot[tg] = len(frontier) + i
        local = carried + decision
        frontier = sorted(tg for tg in slot if last[tg] != gid)

        local_slot = {tg: i for i, tg in enumerate(local)}
        ref_slot = len(local)
        specs = []
        for node_name in group.members:
            node = graph.node(node_name)
            specs.append(
                tuple(
                    (
                        local_slot.get(coarse.tensor_group_of[tensor], ref_slot),
                        max(1, len(graph.tensor(tensor).shape)) - 1,
                    )
                    for tensor in (*node.inputs, *node.outputs)
                )
            )
        groups.append(
            _GroupFrontier(
                gid=gid,
                decision=tuple(decision),
                internal=tuple(internal),
                local=tuple(local),
                local_key=_gather([slot[tg] for tg in local]),
                next_key=_gather([slot[tg] for tg in frontier]),
                members=tuple(group.members),
                specs=tuple(specs),
            )
        )
    return groups


# ---------------------------------------------------------------------------
# Shared frontier-DP machinery
# ---------------------------------------------------------------------------
class _FrontierDP:
    def __init__(
        self,
        graph: Graph,
        coarse: CoarsenedGraph,
        cost_model: CommunicationCostModel,
        *,
        parts_per_step: Sequence[int],
    ) -> None:
        self.graph = graph
        self.coarse = coarse
        self.cost_model = cost_model
        self.parts_per_step = list(parts_per_step)
        self.num_steps = len(self.parts_per_step)
        self._zero: Config = tuple([0] * self.num_steps)
        self._group_bytes: Dict[int, float] = {}
        #: Every candidate config met so far, numbered in first-met order: a
        #: state key holds the numbers (:meth:`_decode`).
        self._config_ids: Dict[Config, int] = {}
        #: The last :meth:`solve`'s layouts in visit order, and each one's
        #: chosen local configs plus reference config.
        self.layouts: List[_GroupLayout] = []
        self._chosen: List[Tuple[Config, ...]] = []

    # ------------------------------------------------------------ candidates
    def group_candidates(self, tg: int) -> List[Config]:
        """Candidate configurations for one tensor group."""
        members = self.coarse.tensor_group(tg).members
        per_step: List[List[int]] = []
        for parts in self.parts_per_step:
            dims: Optional[set] = None
            for member in members:
                cand = set(self.cost_model.candidate_dims(member, parts))
                dims = cand if dims is None else (dims & cand)
            if not dims:
                dims = {0}
            per_step.append(sorted(dims))
        return [tuple(c) for c in itertools.product(*per_step)]

    def _decode(self, key: StateKey) -> List[Config]:
        """The configs an interned key holds."""
        configs = list(self._config_ids)
        return [configs[cfg] for cfg in key]

    # --------------------------------------------------------------- layouts
    def _layout(
        self, group: _GroupFrontier, tables: Dict[tuple, Dict[StateKey, float]]
    ) -> _GroupLayout:
        """Derive ``group``'s transition at the current shapes.

        Its cost table is the one in ``tables`` of every group with the same
        reference slot and member classes, which price alike.
        """
        sizes = []
        for tg in group.local:
            size = self._group_bytes.get(tg)
            if size is None:
                size = self._group_bytes[tg] = sum(
                    self.cost_model.tensor_bytes(m)
                    for m in self.coarse.tensor_group(tg).members
                )
            sizes.append(size)
        reference: Optional[int] = None
        for i, size in enumerate(sizes):
            if reference is None or size > sizes[reference]:
                reference = i
        classes, structure = self._member_classes(group)
        ids = self._config_ids
        return _GroupLayout(
            frontier=group,
            combos=list(itertools.product(*(
                [ids.setdefault(cfg, len(ids)) for cfg in self.group_candidates(tg)]
                for tg in group.decision
            ))),
            reference=reference,
            classes=classes,
            costs=tables.setdefault((reference, structure), {}),
        )

    def _member_classes(self, group: _GroupFrontier) -> Tuple[MemberClasses, tuple]:
        """Group the op group's members by ``(profile, spec)`` per step.

        Also returns the classes' structure: per step, each class's
        ``(id(profile), spec)`` and each member's class index.  Profiles are
        built here, in the order the search first prices them.
        """
        node_profile = self.cost_model.node_profile
        steps: MemberClasses = []
        structure = []
        for parts in self.parts_per_step:
            index: Dict[Tuple[int, Spec], int] = {}
            classes: List[Tuple[NodeProfile, Spec]] = []
            positions: List[int] = []
            for node_name, spec in zip(group.members, group.specs):
                profile = node_profile(node_name, parts)
                key = (id(profile), spec)
                position = index.get(key)
                if position is None:
                    position = index[key] = len(classes)
                    classes.append((profile, spec))
                positions.append(position)
            member_classes = tuple(positions)
            steps.append((classes, member_classes))
            structure.append((tuple(index), member_classes))
        return steps, tuple(structure)

    # ----------------------------------------------------------------- solve
    def solve(self) -> Tuple[float, Dict[str, Config]]:
        """Run the DP; returns (cost, per-tensor config).

        The cost tables are shared within this call only: they key profiles
        by identity, and the cost model holds its profiles until its next
        ``set_shapes``.
        """
        tables: Dict[tuple, Dict[StateKey, float]] = {}
        self.layouts = layouts = []
        states: Dict[StateKey, Entry] = {(): (0.0, (), -1)}
        frontiers: List[Dict[StateKey, Entry]] = []
        for group in frontier_layout(self.coarse):
            layout = self._layout(group, tables)
            layouts.append(layout)
            states = self._expand(states, layout)
            if not states:
                raise PartitionError(f"DP produced no states at group {group.gid}")
            if len(states) > MAX_STATES:
                perf.count("partition.dp_pruned_states", len(states) - MAX_STATES)
                states = dict(
                    sorted(states.items(), key=lambda kv: kv[1][0])[:MAX_STATES]
                )
            frontiers.append(states)

        # ------------------------------------------------------------ recover
        best_key = min(states, key=lambda k: states[k][0])
        best_cost = states[best_key][0]
        tg_config: Dict[int, Config] = {}
        chosen: List[Tuple[Config, ...]] = []
        key = best_key
        for layout, entries in zip(reversed(layouts), reversed(frontiers)):
            group = layout.frontier
            _, prev_key, index = entries[key]
            combo = layout.combos[index]
            for tg, cfg in zip(group.decision, self._decode(combo)):
                tg_config.setdefault(tg, cfg)
            local = self._decode(group.local_key(prev_key + combo))
            ref_cfg = self._reference(layout, local)
            for tg in group.internal:
                tg_config.setdefault(tg, ref_cfg)
            chosen.append((*local, ref_cfg))
            key = prev_key
        self._chosen = chosen[::-1]

        tensor_config: Dict[str, Config] = {}
        for tg, cfg in tg_config.items():
            for member in self.coarse.tensor_group(tg).members:
                tensor_config[member] = self._clamp(member, cfg)
        # Tensors never decided (untouched by any node) default to dim 0.
        for tensor in self.graph.tensors:
            tensor_config.setdefault(tensor, self._zero)
        return best_cost, tensor_config

    # ------------------------------------------------------------- expansion
    def _expand(
        self,
        states: Dict[StateKey, Entry],
        layout: _GroupLayout,
    ) -> Dict[StateKey, Entry]:
        """Expand the frontier states through one op group.

        Returns each next-frontier key's best cost with its back-pointer,
        with keys in first-encounter order (what the stable
        :data:`MAX_STATES` pruning sort relies on).
        """
        combos = layout.combos
        local_key = layout.frontier.local_key
        next_key = layout.frontier.next_key
        costs = layout.costs
        entries: Dict[StateKey, Entry] = {}
        keep = entries.setdefault
        for state_key, (cost_so_far, _, _) in states.items():
            for index, combo in enumerate(combos):
                values = state_key + combo
                local = local_key(values)
                group_cost = costs.get(local)
                if group_cost is None:
                    group_cost = self._group_cost(layout, local)
                entry = (cost_so_far + group_cost, state_key, index)
                key = next_key(values)
                best = keep(key, entry)
                if entry[0] < best[0]:
                    entries[key] = entry
        return entries

    # ------------------------------------------------------------ group cost
    def _reference(self, layout: _GroupLayout, local: Sequence[Config]) -> Config:
        return self._zero if layout.reference is None else local[layout.reference]

    def _group_cost(self, layout: _GroupLayout, local: StateKey) -> float:
        """Communication of one op group given its interned local configs (a
        miss of ``layout.costs``): each member class is priced once per step,
        then the costs are added steps outer, members inner, in member order."""
        values = self._decode(local)
        values.append(self._reference(layout, values))
        total = 0.0
        for step, (classes, member_classes) in enumerate(layout.classes):
            class_costs = []
            for profile, spec in classes:
                _, fetch, redistribute = profile.best_strategy(
                    tuple(min(values[slot][step], top) for slot, top in spec)
                )
                class_costs.append(fetch + redistribute)
            for index in member_classes:
                total += class_costs[index]
        layout.costs[local] = total
        return total

    def _clamp(self, tensor: str, cfg: Config) -> Config:
        top = max(1, len(self.cost_model.shapes[tensor])) - 1
        return cfg if max(cfg, default=0) <= top else tuple(min(d, top) for d in cfg)

    def node_prices(self) -> Dict[str, NodePrice]:
        """Every node's ``(axis, fetch bytes, redistribute bytes)`` at the
        first step's dims of the last :meth:`solve`'s configs, in graph
        order: what ``node_cost_detail`` returns, priced once per member
        class from the local configs the solve chose."""
        prices: Dict[str, NodePrice] = {}
        for layout, values in zip(self.layouts, self._chosen):
            classes, member_classes = layout.classes[0]
            class_prices = [
                profile.best_strategy(
                    tuple(min(values[slot][0], top) for slot, top in spec)
                )
                for profile, spec in classes
            ]
            for node_name, index in zip(layout.frontier.members, member_classes):
                prices[node_name] = class_prices[index]
        return {node_name: prices[node_name] for node_name in self.graph.nodes}


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------
def dp_partition_step(
    graph: Graph,
    coarse: CoarsenedGraph,
    cost_model: CommunicationCostModel,
    parts: int,
    *,
    prices: Optional[Dict[str, NodePrice]] = None,
) -> StepAssignment:
    """One recursive step: partition every tensor along one dimension across
    ``parts`` worker groups, minimising communication.

    When ``prices`` is given it receives every node's ``(axis, fetch bytes,
    redistribute bytes)`` under the chosen assignment — what
    :meth:`CommunicationCostModel.node_cost_detail` returns, read from the
    search's own memo.
    """
    dp = _FrontierDP(graph, coarse, cost_model, parts_per_step=[parts])
    cost, tensor_config = dp.solve()
    tensor_dims = {t: cfg[0] for t, cfg in tensor_config.items()}
    node_prices = dp.node_prices()
    if prices is not None:
        prices.update(node_prices)
    return StepAssignment(
        parts=parts,
        tensor_dims=tensor_dims,
        op_strategies={node: price[0] for node, price in node_prices.items()},
        comm_bytes=cost,
        weighted_bytes=cost,
    )


def joint_partition(
    graph: Graph,
    num_workers: int,
    *,
    coarse: Optional[CoarsenedGraph] = None,
) -> PartitionPlan:
    """Non-recursive search: choose all ``m`` partition dimensions per tensor
    jointly (the "DP with coarsening" row of Table 1).

    Exponentially slower than the recursive search.
    """
    start = time.perf_counter()
    factors = factorize_workers(num_workers)
    if coarse is None:
        coarse = coarsen(graph)
    cost_model = CommunicationCostModel(graph)
    dp = _FrontierDP(graph, coarse, cost_model, parts_per_step=factors)
    cost, tensor_config = dp.solve()

    steps: List[StepAssignment] = []
    group_count = 1
    for i, parts in enumerate(factors):
        tensor_dims = {t: cfg[i] for t, cfg in tensor_config.items()}
        step_cost, step_strategies = cost_model.assignment_cost(tensor_dims, parts)
        steps.append(
            StepAssignment(
                parts=parts,
                tensor_dims=tensor_dims,
                op_strategies=step_strategies,
                comm_bytes=step_cost / group_count,
                weighted_bytes=step_cost,
                group_count=group_count,
            )
        )
        group_count *= parts
    plan = PartitionPlan(
        num_workers=num_workers,
        steps=steps,
        search_time_seconds=time.perf_counter() - start,
        algorithm="dp-joint",
    )
    return plan


def count_joint_configurations(
    coarse: CoarsenedGraph,
    cost_model: CommunicationCostModel,
    num_workers: int,
) -> Dict[str, float]:
    """Size of the non-recursive search space, for the Table 1 report."""
    factors = factorize_workers(num_workers)
    dp = _FrontierDP(coarse.graph, coarse, cost_model, parts_per_step=factors)
    per_group_max = 0.0
    total = 0.0
    for group in frontier_layout(coarse):
        combos = 1.0
        for tg in group.decision:
            combos *= len(dp.group_candidates(tg))
        per_group_max = max(per_group_max, combos)
        total += combos
    return {
        "num_op_groups": float(len(coarse.op_groups)),
        "max_configs_per_group": per_group_max,
        "total_configs": total,
    }
