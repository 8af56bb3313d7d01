"""Lowering a :class:`Strategy` tree onto the planner + runtime machinery.

The strategy algebra stays abstract; this module is its interpreter.  Each
tree maps onto exactly one registered execution backend plus its options:

* ``machines(M) / inner`` → the topology level: the cluster is sliced to its
  first ``M`` machines and the inner strategy runs across the whole slice
  (PCI-e *and* network links);
* ``dp(G) / inner`` → the ``hybrid`` backend (``replica_groups=G``, the
  lowered inner as ``hybrid``'s inner backend);
* ``pipeline(S, sched, M)`` → the ``pipeline`` backend (stage count,
  schedule and micro-batch count pass straight through);
* the leaves → ``tofu-partitioned`` / ``single-device`` / ``placement`` /
  ``swap``.

The hardware budget flows down the tree: ``machines(M)`` scopes the cluster,
``dp(G)`` divides the remaining devices into ``G`` equal groups,
``pipeline(S)`` gives each stage one device, and a ``tofu`` leaf partitions
over whatever devices remain — so the lowering also reports *how many
workers the partition plan must be searched for* (and on which topology
slice), which :func:`repro.compile` feeds to the planner.

Compositions the runtime cannot execute (``dp`` inside ``dp``, ``machines``
below the root, a multi-device strategy inside a pipeline stage) are
rejected here with a :class:`StrategyError` naming the offending node,
before any search runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.errors import StrategyError
from repro.graph.graph import Graph
from repro.models.layers import PERSISTENT_FACTOR
from repro.sim.device import Topology, slice_machines, slice_topology_range
from repro.strategy.algebra import (
    DataParallel,
    Machines,
    Pipeline,
    Placement,
    Single,
    Strategy,
    Swap,
    Tofu,
    normalize,
)

__all__ = ["StrategyLowering", "lower_strategy", "persistent_bytes", "weight_shards"]


@dataclass
class StrategyLowering:
    """How one strategy executes: the backend selection plus the planning
    requirement :func:`repro.compile` must satisfy first.

    Attributes:
        strategy: The normalized strategy the lowering interprets.
        backend: Execution-backend registry key the tree lowers to.
        options: Backend options encoding the tree's parameters.
        plan_workers: Worker count a partition plan must be searched for
            (``None`` when no node needs a plan).
        plan_backend: Search-backend registry key for that plan (``None``
            when no node needs a plan; ``tofu`` for a bare ``tofu`` leaf).
        plan_machine: Topology slice the plan's workers correspond to (one
            replica group for ``dp``-wrapped strategies, the machine slice
            for ``machines``-scoped ones).
        machine: The topology slice the lowered program executes on (the
            full machine unless ``machines(M)`` narrowed it).
    """

    strategy: Strategy
    backend: str
    options: Dict[str, object] = field(default_factory=dict)
    plan_workers: Optional[int] = None
    plan_backend: Optional[str] = None
    plan_machine: Optional[Topology] = None
    machine: Optional[Topology] = None

    def describe(self) -> str:
        """One line naming the backend and options this lowering runs."""
        parts = [f"executor: {self.backend}"]
        if self.options:
            rendered = ", ".join(
                f"{k}={v!r}" for k, v in sorted(self.options.items())
            )
            parts.append(f"options: {rendered}")
        if self.plan_workers:
            parts.append(
                f"plan: {self.plan_backend} search for {self.plan_workers} "
                "worker(s)"
            )
        return "\n".join(parts)


def _lower_node(node: Strategy, machine: Topology) -> StrategyLowering:
    """Lower one node onto the devices of ``machine`` (already sliced by any
    enclosing ``machines``/``dp``)."""
    if isinstance(node, Single):
        return StrategyLowering(node, "single-device")
    if isinstance(node, Swap):
        return StrategyLowering(node, "swap")
    if isinstance(node, Placement):
        return StrategyLowering(node, "placement")
    if isinstance(node, Tofu):
        if machine.num_devices == 1:
            # A one-device partition is the whole graph on that device.
            return StrategyLowering(node, "single-device")
        return StrategyLowering(
            node,
            "tofu-partitioned",
            plan_workers=machine.num_devices,
            plan_backend=node.backend or "tofu",
            plan_machine=machine,
        )
    if isinstance(node, Pipeline):
        if node.stages > machine.num_devices:
            raise StrategyError(
                f"{node._segment()!r} wants {node.stages} stages but only "
                f"{machine.num_devices} device(s) remain for it"
            )
        inner = node.inner
        if inner is not None and not isinstance(inner, (Single, Tofu)):
            raise StrategyError(
                f"pipeline stages run on a single device; "
                f"{str(inner)!r} cannot execute inside "
                f"{node._segment()!r} (use single() or tofu(), which "
                f"degenerates to one device per stage)"
            )
        return StrategyLowering(
            node,
            "pipeline",
            {
                "num_stages": node.stages,
                "num_microbatches": node.microbatches,
                "schedule": node.schedule,
            },
        )
    if isinstance(node, DataParallel):
        raise StrategyError(
            f"{node._segment()!r} cannot nest inside another dp(...) group "
            f"(the hybrid interpreter composes one data-parallel level)"
        )
    raise StrategyError(f"no lowering for strategy node {str(node)!r}")


def lower_strategy(
    strategy: Strategy,
    machine: Topology,
    *,
    graph: Optional[Graph] = None,
) -> StrategyLowering:
    """Interpret a strategy tree as (execution backend, options, plan needs).

    No lowering depends on the graph (the ``placement`` backend derives its
    device map itself); ``graph`` is accepted and ignored so callers written
    against the graph-taking signature keep working.
    """
    root = normalize(strategy)
    body = root
    if isinstance(root, Machines):
        if root.count > machine.num_machines:
            raise StrategyError(
                f"{root._segment()!r} needs a cluster with at least "
                f"{root.count} machine(s); the given topology has "
                f"{machine.num_machines} (build one with "
                f"repro.sim.device.ClusterSpec or cluster_of)"
            )
        machine = slice_machines(machine, root.count)
        body = root.inner or Single()
    lowering = _lower_body(body, machine)
    # Provenance keeps the full tree (machines root included): the plan-cache
    # key and the compiled model's strategy must distinguish machine counts.
    lowering.strategy = root
    lowering.machine = machine
    return lowering


def _lower_body(body: Strategy, machine: Topology) -> StrategyLowering:
    """Lower the sub-machine part of the tree (everything under ``machines``)."""
    if not isinstance(body, DataParallel):
        return _lower_node(body, machine)

    groups = body.groups
    if machine.num_devices % groups:
        raise StrategyError(
            f"{body._segment()!r} needs the device count "
            f"({machine.num_devices}) to be divisible by its {groups} groups"
        )
    group_devices = machine.num_devices // groups
    sub_machine = slice_topology_range(machine, 0, group_devices)
    inner = _lower_node(body.inner or Single(), sub_machine)
    options: Dict[str, object] = {
        "replica_groups": groups,
        "inner": inner.backend,
    }
    if inner.options:
        options["inner_options"] = dict(inner.options)
    return StrategyLowering(
        body,
        "hybrid",
        options,
        plan_workers=inner.plan_workers,
        plan_backend=inner.plan_backend,
        plan_machine=inner.plan_machine,
    )


def weight_shards(strategy: Strategy, machine: Topology) -> int:
    """How many ways the strategy shards the *weights* across devices.

    ``machines`` scopes the hardware and ``dp`` replicates weights (no
    sharding); ``pipeline`` stages, ``tofu`` partitions, and layer-wise
    ``placement`` split them.  :func:`persistent_bytes` divides the
    persistent footprint by this count.
    """
    root = normalize(strategy)
    devices = machine.num_devices
    shards = 1
    for node in root.chain():
        if isinstance(node, Machines):
            if node.count <= machine.num_machines:
                devices = slice_machines(machine, node.count).num_devices
        elif isinstance(node, DataParallel):
            if devices % node.groups == 0:
                devices //= node.groups
        elif isinstance(node, Pipeline):
            shards *= min(node.stages, devices)
            devices = 1
        elif isinstance(node, (Tofu, Placement)):
            shards *= max(1, devices)
            devices = 1
    return max(1, shards)


def persistent_bytes(weight_bytes: float, strategy: Strategy, machine: Topology) -> float:
    """Per-device persistent state of ``strategy``: ``3 W / shards``.

    The footprint estimate both the autotuner's static screen and the
    batch-search evaluators make before lowering anything.
    """
    return PERSISTENT_FACTOR * weight_bytes / weight_shards(strategy, machine)
