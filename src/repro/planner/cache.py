"""Content-addressed partition-plan cache.

Planning is the expensive part of the pipeline (Table 1: seconds to hours
depending on the algorithm), while the inputs that determine the answer are
small and hashable: the dataflow graph, the worker factorisation, the machine
model, and the backend configuration.  The cache keys plans by a SHA-256
digest over a canonical JSON encoding of exactly those four inputs, so
planning the same WResNet/RNN twice — in one process or across runs when an
on-disk store is configured — is a hit.

The two-tier machinery (in-memory LRU + on-disk JSON store with size
accounting, LRU eviction under a byte budget, and ``export``/``import``
bundles) is :class:`repro.caching.TwoTierCache`, whose memory tier the
lowered-program cache shares; this module adds the plan payload codec and
the plan key scheme.

The memory tier holds plan objects, not their JSON: :meth:`PlanCache.put`
freezes the plan (:meth:`PartitionPlan.freeze`) and keeps it by reference,
and every hit returns that same object.  A frozen plan cannot be edited, so
sharing it cannot corrupt the cache, and the signature the program key
hashes (:func:`repro.partition.plan.plan_signature`) is computed once per
plan, not once per compile.  :func:`plan_to_dict` and
:func:`plan_from_dict` run only at the disk tier and ``export``/``import``
bundles, whose payload format is unchanged.  To edit a cached plan, edit a
copy: ``plan_from_dict(plan_to_dict(plan))``.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

from repro.caching import (
    TwoTierCache,
    content_key,
    graph_signature,
    machine_signature,
)
from repro.graph.graph import Graph
from repro.partition.plan import PartitionPlan, plan_from_dict, plan_to_dict
from repro.sim.device import Topology

__all__ = [
    "KEY_COVERED_CONFIG_FIELDS",
    "NON_SEMANTIC_CONFIG_FIELDS",
    "PlanCache",
    "graph_signature",
    "machine_signature",
    "plan_cache_key",
]

#: PlannerConfig fields whose values feed :func:`plan_cache_key`: none,
#: the backend and its options are per-call arguments.  Together with
#: NON_SEMANTIC_CONFIG_FIELDS this must classify *every* config field — the
#: ``cache-key`` checker (repro.analysis) fails the build otherwise, so a new
#: semantic knob cannot silently poison warm cache entries.
KEY_COVERED_CONFIG_FIELDS: tuple = ()

#: PlannerConfig fields that deliberately do NOT contribute to plan cache
#: keys: the fixed ``jobs``/``expand_jobs`` spellings and cache plumbing,
#: none of which changes which plan a search returns.
NON_SEMANTIC_CONFIG_FIELDS = (
    "jobs",
    "expand_jobs",
    "cache_capacity",
    "cache_dir",
    "cache_max_bytes",
)


def plan_cache_key(
    graph: Graph,
    factors: Sequence[int],
    machine: Optional[Topology],
    backend: str,
    backend_options: Mapping[str, object],
    *,
    explore_factor_orders: bool = True,
    strategy: Optional[object] = None,
) -> str:
    """The content address of one planning request.

    ``strategy`` is the full :class:`repro.strategy.Strategy` the plan is
    searched for (or its dict form), when the request came through
    ``repro.compile``.  Folding the whole tree into the key means two
    strategies that differ anywhere — replica-group count, stage count,
    schedule, micro-batches — can never collide on one cache entry, even
    when their ``tofu`` leaves would search identical plans.

    ``explore_factor_orders`` is whether the backend searches every order
    of the worker factorisation (the planner passes the backend's
    ``supports_factor_orders``).

    The key carries no pricing model: the search minimises communication
    bytes, so the kernel pricing never moves a plan.

    Raises ``TypeError`` when an input is not JSON-serialisable — e.g. a
    pre-built ``coarse=CoarsenedGraph`` backend option.  Such inputs have no
    stable content address (hashing their repr would embed memory addresses),
    so the planner bypasses the cache for those requests instead.
    """
    fields = {
        "graph": graph_signature(graph),
        "factors": list(factors),
        "machine": machine_signature(machine),
        "backend": backend,
        "options": dict(backend_options),
        "explore_factor_orders": bool(explore_factor_orders),
    }
    if strategy is not None:
        # Only present for strategy-routed requests; a direct Planner.plan
        # call (the CLI's `partition` command) is keyed without one.
        to_dict = getattr(strategy, "to_dict", None)
        fields["strategy"] = to_dict() if callable(to_dict) else strategy
    return content_key(fields)


EXPORT_FORMAT = "tofu-plan-cache"
EXPORT_VERSION = 1


class PlanCache(TwoTierCache):
    """In-memory LRU over frozen plans, with an optional disk tier of plan
    payloads."""

    export_format = EXPORT_FORMAT
    export_version = EXPORT_VERSION
    payload_field = "plan"
    description = "plan cache"

    def encode(self, entry: PartitionPlan) -> Dict:
        """The JSON payload of a plan (:func:`plan_to_dict`)."""
        return plan_to_dict(entry)

    def decode(self, payload: Dict) -> PartitionPlan:
        """The frozen plan a payload encodes (a malformed one raises, so
        its lookup misses)."""
        plan = plan_from_dict(payload)
        plan.freeze()
        return plan

    # ------------------------------------------------------------------ get
    def get(self, key: str) -> Optional[PartitionPlan]:
        """The cached (frozen) plan under ``key``, or ``None`` on a miss;
        every hit returns the same object."""
        return self.get_entry(key)

    # ------------------------------------------------------------------ put
    def put(self, key: str, plan: PartitionPlan) -> None:
        """Freeze ``plan`` and store it under ``key`` in every enabled
        tier."""
        plan.freeze()
        self.put_entry(key, plan)
