"""Dynamic-programming partition search over the coarsened graph (Sec 5).

``dp_partition_step`` finds the minimum-communication assignment of one
partition dimension per tensor (and one partition-n-reduce strategy per
operator) for a single recursive step that splits the graph across ``parts``
worker groups.  It is a *frontier* DP: operator groups are visited in
topological order and the DP state is the set of partition choices of the
tensor groups that cross the frontier between visited and unvisited groups.
For chain-like coarsened graphs (MLPs, CNNs, coalesced RNNs) the frontier is
tiny, which is what makes the search fast.

``joint_partition`` is the non-recursive variant used as the Table 1
comparison point: every tensor group chooses a full multi-step configuration
(a tuple of dimensions) at once, which blows up the per-group search space
exactly as the paper describes.

The inner loop rests on two facts.

* **Static frontier layout.**  Which tensor groups cross the frontier before
  an op group does not depend on the state: a group is decided at its first
  toucher and leaves at its last.  So a one-time :class:`_GroupLayout` per op
  group fixes the decided, carried and dropped groups, the candidate combos
  and ``operator.itemgetter`` gathers over ``state key + combo``.  A state
  key is then a plain tuple of configs in tensor-group order, and a
  back-pointer is ``(previous key, combo index)``.  The reference slot that
  internal temporaries copy (the largest touched group) is static too.
* **Profile-keyed node costs.**  A node's cost depends only on its shared
  :class:`~repro.partition.cost.NodeProfile` and its dims, so members of an
  op group fall into classes of equal ``(profile, slots)``.  A group-cost
  miss prices each class once through the profile's memo.

Both are pure refactorings of the original dict-keyed walk and must keep its
plans bit-identical: costs are still summed steps outer, members inner, in
member order; a state is replaced only on a strictly lower cost, so the
first-encountered state wins ties; keys enter the next frontier in the same
first-encounter order, so the stable ``max_states`` sort keeps the same
states; and the parallel path merges contiguous chunks in order.  The golden
plan digests in ``tests/partition/test_plan_digests.py`` pin this.
"""

from __future__ import annotations

import itertools
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import PartitionError
from repro.graph.graph import Graph
from repro.partition.coarsen import CoarsenedGraph, coarsen
from repro.partition.cost import CommunicationCostModel, NodeProfile
from repro.partition.plan import PartitionPlan, StepAssignment, factorize_workers

Config = Tuple[int, ...]  # one dimension per step
StateKey = Tuple[Config, ...]  # frontier configs in tensor-group order
NodePrice = Tuple[str, float, float]  # (axis, fetch bytes, redistribute bytes)
#: Per step: the distinct ``(profile, (slot, max dim) per tensor)`` member
#: classes, and each member's class index in member order.
MemberClasses = List[
    Tuple[List[Tuple[NodeProfile, Tuple[Tuple[int, int], ...]]], Tuple[int, ...]]
]

#: Minimum (states x combos) expansions at one op group before the parallel
#: path engages; below it the thread handoff costs more than the work.
PARALLEL_MIN_EXPANSIONS = 64


class SearchBudgetExceeded(PartitionError):
    """Raised when ``joint_partition`` exceeds its time budget."""


def _gather(indices: Sequence[int]) -> Callable[[tuple], tuple]:
    """A function picking ``indices`` out of a tuple, always as a tuple."""
    if not indices:
        return lambda values: ()
    if len(indices) == 1:
        index = indices[0]
        return lambda values: (values[index],)
    return itemgetter(*indices)


@dataclass
class _GroupLayout:
    """The state-independent shape of one op group's DP transition.

    Slots index ``state key + combo``: the frontier before the group, then
    one config per ``decision`` tensor group.  ``local`` lists the touched
    tensor groups that are not ``internal`` (carried ones, then decided
    ones); ``local_key`` gathers their configs and ``next_key`` gathers the
    frontier after the group.  ``reference`` indexes the local key at the
    largest local group, whose config internal temporaries copy (``None``:
    the all-zero config).  The search fills in ``combos`` and ``classes``
    when it reaches the group, and memoises group costs in ``costs``.
    """

    gid: int
    decision: List[int]
    candidates: List[List[Config]]
    internal: List[int]
    local: List[int]
    local_key: Callable[[tuple], StateKey]
    next_key: Callable[[tuple], StateKey]
    reference: Optional[int]
    combos: List[Tuple[Config, ...]] = field(default_factory=list)
    classes: MemberClasses = field(default_factory=list)
    costs: Dict[StateKey, float] = field(default_factory=dict)


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
        max_states: int = 256,
        time_limit: Optional[float] = None,
        expand_jobs: int = 1,
    ) -> None:
        self.graph = graph
        self.coarse = coarse
        self.cost_model = cost_model
        self.parts_per_step = list(parts_per_step)
        self.num_steps = len(self.parts_per_step)
        self.max_states = max_states
        self.time_limit = time_limit
        self.expand_jobs = max(1, expand_jobs)
        self._start = time.perf_counter()
        self._zero: Config = tuple([0] * self.num_steps)

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

    # --------------------------------------------------------------- layouts
    def layouts(self) -> List[_GroupLayout]:
        """One :class:`_GroupLayout` per op group, in visit order.

        A tensor group is decided by its first toucher when more than one
        op group touches it or it is persistent, and stays on the frontier
        until its last toucher; any other group is internal to its only
        toucher.
        """
        coarse = self.coarse
        first: Dict[int, int] = {}
        last: Dict[int, int] = {}
        for tg, touchers in coarse.touchers_of.items():
            first[tg] = min(touchers)
            last[tg] = max(touchers)

        layouts: List[_GroupLayout] = []
        frontier: List[int] = []
        for group in coarse.op_groups:
            gid = group.gid
            touched = coarse.touched_by[gid]
            decision: List[int] = []
            internal: List[int] = []
            carried: List[int] = []
            for tg in touched:
                if first[tg] != gid:
                    carried.append(tg)
                elif (
                    len(coarse.touchers_of[tg]) > 1
                    or coarse.tensor_group(tg).persistent
                ):
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

            sizes = [
                sum(
                    self.cost_model.tensor_bytes(m)
                    for m in coarse.tensor_group(tg).members
                )
                for tg in local
            ]
            reference: Optional[int] = None
            for i, size in enumerate(sizes):
                if reference is None or size > sizes[reference]:
                    reference = i

            layouts.append(
                _GroupLayout(
                    gid=gid,
                    decision=decision,
                    candidates=[self.group_candidates(tg) for tg in decision],
                    internal=internal,
                    local=local,
                    local_key=_gather([slot[tg] for tg in local]),
                    next_key=_gather([slot[tg] for tg in frontier]),
                    reference=reference,
                )
            )
        return layouts

    def _member_classes(self, layout: _GroupLayout) -> MemberClasses:
        """Group the op group's members by ``(profile, slots)`` per step.

        Slots index the local key plus one trailing slot for the reference
        config of internal tensor groups; each tensor's dim is clamped to
        its rank, as in the final plan.  Profiles are built here, in the
        order the search first prices them.
        """
        coarse = self.coarse
        slot_of_tg = {tg: i for i, tg in enumerate(layout.local)}
        ref_slot = len(layout.local)
        members = coarse.op_group(layout.gid).members
        specs = []
        for node_name in members:
            node = self.graph.node(node_name)
            spec = []
            for tensor in list(node.inputs) + list(node.outputs):
                tg = coarse.tensor_group_of[tensor]
                ndim = max(1, len(self.cost_model.shapes[tensor]))
                spec.append((slot_of_tg.get(tg, ref_slot), ndim - 1))
            specs.append(tuple(spec))

        steps: MemberClasses = []
        for parts in self.parts_per_step:
            index: Dict[Tuple[int, tuple], int] = {}
            classes: List[Tuple[NodeProfile, Tuple[Tuple[int, int], ...]]] = []
            member_classes: List[int] = []
            for node_name, spec in zip(members, specs):
                profile = self.cost_model.node_profile(node_name, parts)
                key = (id(profile), spec)
                if key not in index:
                    index[key] = len(classes)
                    classes.append((profile, spec))
                member_classes.append(index[key])
            steps.append((classes, tuple(member_classes)))
        return steps

    # ----------------------------------------------------------------- solve
    def solve(self) -> Tuple[float, Dict[str, Config], Dict[str, NodePrice]]:
        """Run the DP; returns (cost, per-tensor config, per-node price).

        A node's price is its ``(axis, fetch bytes, redistribute bytes)``
        at the first step's dims of the chosen configs.

        With ``expand_jobs > 1`` the per-group state expansion fans contiguous
        chunks of the frontier across a thread pool.  The result is
        bit-identical to the serial walk: chunks preserve state order, the
        merge keeps an earlier chunk's entry on cost ties (exactly the serial
        ``total < best`` rule), and per-pair costs are single additions with
        no accumulation order to perturb.
        """
        layouts = self.layouts()
        states: Dict[StateKey, float] = {(): 0.0}
        backptr: List[Dict[StateKey, Tuple[StateKey, int]]] = []
        pool = (
            ThreadPoolExecutor(max_workers=self.expand_jobs)
            if self.expand_jobs > 1
            else None
        )
        try:
            for layout in layouts:
                if (
                    self.time_limit is not None
                    and time.perf_counter() - self._start > self.time_limit
                ):
                    raise SearchBudgetExceeded(
                        f"partition search exceeded {self.time_limit:.0f}s budget"
                    )
                layout.combos = list(itertools.product(*layout.candidates))
                layout.classes = self._member_classes(layout)
                if (
                    pool is not None
                    and len(states) > 1
                    and len(states) * max(1, len(layout.combos))
                    >= PARALLEL_MIN_EXPANSIONS
                ):
                    new_states, pointers = self._expand_parallel(pool, states, layout)
                else:
                    new_states, pointers = self._expand_chunk(
                        list(states.items()), layout
                    )

                if not new_states:
                    raise PartitionError(f"DP produced no states at group {layout.gid}")
                if len(new_states) > self.max_states:
                    kept = sorted(new_states.items(), key=lambda kv: kv[1])[
                        : self.max_states
                    ]
                    new_states = dict(kept)
                    pointers = {k: pointers[k] for k, _ in kept}
                states = new_states
                backptr.append(pointers)
        finally:
            if pool is not None:
                pool.shutdown(wait=False)

        # ------------------------------------------------------------ recover
        best_key = min(states, key=lambda k: states[k])
        best_cost = states[best_key]
        tg_config: Dict[int, Config] = {}
        key = best_key
        for layout, pointers in zip(reversed(layouts), reversed(backptr)):
            prev_key, index = pointers[key]
            combo = layout.combos[index]
            for tg, cfg in zip(layout.decision, combo):
                tg_config.setdefault(tg, cfg)
            ref_cfg = self._reference(layout, layout.local_key(prev_key + combo))
            for tg in layout.internal:
                tg_config.setdefault(tg, ref_cfg)
            key = prev_key

        tensor_config: Dict[str, Config] = {}
        for tg, cfg in tg_config.items():
            for member in self.coarse.tensor_group(tg).members:
                tensor_config[member] = self._clamp(member, cfg)
        # Tensors never decided (untouched by any node) default to dim 0.
        for tensor in self.graph.tensors:
            tensor_config.setdefault(tensor, self._clamp(tensor, self._zero))

        return best_cost, tensor_config, self._final_prices(tensor_config)

    # ------------------------------------------------------------- expansion
    def _expand_chunk(
        self,
        chunk: Sequence[Tuple[StateKey, float]],
        layout: _GroupLayout,
    ) -> Tuple[Dict[StateKey, float], Dict[StateKey, Tuple[StateKey, int]]]:
        """Expand one ordered chunk of frontier states through one op group.

        Returns the chunk's best cost per next-frontier key plus the
        back-pointers, with keys in first-encounter order — the property the
        parallel merge needs to reproduce the serial walk exactly.
        """
        combos = layout.combos
        local_key = layout.local_key
        next_key = layout.next_key
        costs = layout.costs
        new_states: Dict[StateKey, float] = {}
        pointers: Dict[StateKey, Tuple[StateKey, int]] = {}
        for state_key, cost_so_far in chunk:
            for index, combo in enumerate(combos):
                values = state_key + combo
                local = local_key(values)
                group_cost = costs.get(local)
                if group_cost is None:
                    group_cost = self._group_cost(layout, local)
                total = cost_so_far + group_cost
                key = next_key(values)
                best = new_states.get(key)
                if best is None or total < best:
                    new_states[key] = total
                    pointers[key] = (state_key, index)
        return new_states, pointers

    def _expand_parallel(
        self,
        pool: ThreadPoolExecutor,
        states: Dict[StateKey, float],
        layout: _GroupLayout,
    ) -> Tuple[Dict[StateKey, float], Dict[StateKey, Tuple[StateKey, int]]]:
        """Fan contiguous state chunks across the pool and merge in order.

        The merge replaces an entry only on *strictly* lower cost, so on ties
        the earliest chunk — i.e. the earliest state in serial order — wins,
        and keys enter the merged dict in global first-encounter order.  Both
        invariants make the parallel expansion bit-identical to the serial
        one, including the stable ``max_states`` pruning sort downstream.
        The group-cost memo is shared across threads; whichever thread fills
        an entry first, the value is deterministic.
        """
        items = list(states.items())
        jobs = min(self.expand_jobs, len(items))
        step = (len(items) + jobs - 1) // jobs
        chunks = [items[i : i + step] for i in range(0, len(items), step)]
        results = pool.map(lambda chunk: self._expand_chunk(chunk, layout), chunks)
        new_states: Dict[StateKey, float] = {}
        pointers: Dict[StateKey, Tuple[StateKey, int]] = {}
        for chunk_states, chunk_pointers in results:
            for key, total in chunk_states.items():
                if key not in new_states or total < new_states[key]:
                    new_states[key] = total
                    pointers[key] = chunk_pointers[key]
        return new_states, pointers

    # ------------------------------------------------------------ group cost
    def _reference(self, layout: _GroupLayout, local: StateKey) -> Config:
        return self._zero if layout.reference is None else local[layout.reference]

    def _group_cost(self, layout: _GroupLayout, local: StateKey) -> float:
        """Communication of one op group given its local configs (a miss of
        ``layout.costs``): each member class is priced once per step, then
        the costs are added steps outer, members inner, in member order."""
        values = local + (self._reference(layout, local),)
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
        ndim = max(1, len(self.cost_model.shapes[tensor]))
        return tuple(min(d, ndim - 1) for d in cfg)

    def _final_prices(
        self, tensor_config: Mapping[str, Config]
    ) -> Dict[str, NodePrice]:
        step_dims = {t: cfg[0] for t, cfg in tensor_config.items()}
        parts = self.parts_per_step[0]
        node_cost_detail = self.cost_model.node_cost_detail
        return {
            node_name: node_cost_detail(node_name, step_dims, parts)
            for node_name in self.graph.nodes
        }


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------
def dp_partition_step(
    graph: Graph,
    coarse: CoarsenedGraph,
    cost_model: CommunicationCostModel,
    parts: int,
    *,
    max_states: int = 256,
    expand_jobs: int = 1,
    prices: Optional[Dict[str, NodePrice]] = None,
) -> StepAssignment:
    """One recursive step: partition every tensor along one dimension across
    ``parts`` worker groups, minimising communication.

    ``expand_jobs > 1`` parallelises the frontier expansion across threads;
    the returned assignment is bit-identical to the serial search.  When
    ``prices`` is given it receives every node's ``(axis, fetch bytes,
    redistribute bytes)`` under the chosen assignment — what
    :meth:`CommunicationCostModel.node_cost_detail` returns, read from the
    search's own memo.
    """
    dp = _FrontierDP(
        graph,
        coarse,
        cost_model,
        parts_per_step=[parts],
        max_states=max_states,
        expand_jobs=expand_jobs,
    )
    cost, tensor_config, node_prices = dp.solve()
    tensor_dims = {t: cfg[0] for t, cfg in tensor_config.items()}
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
    cost_model: Optional[CommunicationCostModel] = None,
    allow_reduction: bool = True,
    max_states: int = 256,
    time_limit: Optional[float] = None,
    expand_jobs: int = 1,
) -> PartitionPlan:
    """Non-recursive search: choose all ``m`` partition dimensions per tensor
    jointly (the "DP with coarsening" row of Table 1).

    Exponentially slower than the recursive search; ``time_limit`` (seconds)
    raises :class:`SearchBudgetExceeded` when exceeded so benchmarks can report
    a lower bound instead of hanging.  ``expand_jobs > 1`` parallelises the
    frontier expansion (bit-identical plans).
    """
    start = time.perf_counter()
    factors = factorize_workers(num_workers)
    if coarse is None:
        coarse = coarsen(graph)
    if cost_model is None:
        cost_model = CommunicationCostModel(graph, allow_reduction=allow_reduction)
    dp = _FrontierDP(
        graph,
        coarse,
        cost_model,
        parts_per_step=factors,
        max_states=max_states,
        time_limit=time_limit,
        expand_jobs=expand_jobs,
    )
    cost, tensor_config, _ = dp.solve()

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
    for layout in dp.layouts():
        combos = 1.0
        for candidates in layout.candidates:
            combos *= len(candidates)
        per_group_max = max(per_group_max, combos)
        total += combos
    return {
        "num_op_groups": float(len(coarse.op_groups)),
        "max_configs_per_group": per_group_max,
        "total_configs": total,
    }
