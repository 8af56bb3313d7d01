"""Content-addressed partition-plan cache.

Planning is the expensive part of the pipeline (Table 1: seconds to hours
depending on the algorithm), while the inputs that determine the answer are
small and hashable: the dataflow graph, the worker factorisation, the machine
model, and the backend configuration.  The cache keys plans by a SHA-256
digest over a canonical JSON encoding of exactly those four inputs, so
planning the same WResNet/RNN twice — in one process or across runs when an
on-disk store is configured — is a hit.

The memory tier is :class:`repro.caching.LRUCache`, the LRU the
lowered-program cache also builds on.  The disk tier is this module's own:
a directory of ``<content key>.json`` files, each ``{"key": ..., "plan":
...}``.  Content keys are host-independent, so a store moves between
machines by copying its directory; ``ls``/``du`` on it list and size its
entries.  Files in the directory that are not named by a content key are
not the store's: clearing leaves them alone.  The store is unbounded.

The memory tier holds plan objects, not their JSON: :meth:`PlanCache.put`
freezes the plan (:meth:`PartitionPlan.freeze`) and keeps it by reference,
and every hit returns that same object.  A frozen plan cannot be edited, so
sharing it cannot corrupt the cache, and the signature the program key
hashes (:func:`repro.partition.plan.plan_signature`) is computed once per
plan, not once per compile.  :func:`plan_to_dict` and
:func:`plan_from_dict` run only at the disk tier.  To edit a cached plan,
edit a copy: ``plan_from_dict(plan_to_dict(plan))``.
"""

from __future__ import annotations

import glob
import json
import os
import tempfile
from typing import Dict, Mapping, Optional, Sequence

from repro.caching import (
    LRUCache,
    content_key,
    graph_signature,
    is_content_key,
    machine_signature,
)
from repro.errors import ReproError
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
    searched for, when the request came through ``repro.compile``; the key
    folds in its canonical string.  Folding the whole tree into the key means two
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
        fields["strategy"] = str(strategy)
    return content_key(fields)


#: What :func:`plan_from_dict` raises for a malformed payload.
_DECODE_ERRORS = (ReproError, AttributeError, IndexError, KeyError, TypeError,
                  ValueError)


class PlanCache(LRUCache):
    """In-memory LRU over frozen plans, with an optional on-disk store.

    Processes share a store through its directory: every entry is written
    to a tempfile and moved into place with ``os.replace``, so a reader
    never sees a partial file.
    """

    def __init__(self, capacity: int = 128, cache_dir: Optional[str] = None):
        super().__init__(capacity)
        self.cache_dir = cache_dir
        if cache_dir:
            try:
                os.makedirs(cache_dir, exist_ok=True)
            except OSError as exc:
                raise ReproError(
                    f"plan cache directory {cache_dir!r} is not usable: {exc}"
                ) from exc

    @property
    def enabled(self) -> bool:
        """Whether any tier (memory or disk) stores plans."""
        return self.capacity > 0 or self.cache_dir is not None

    # ------------------------------------------------------------------ get
    def get(self, key: str) -> Optional[PartitionPlan]:
        """The cached (frozen) plan under ``key`` (memory first, then the
        disk store), or ``None`` on a miss; every hit returns the same
        object.

        An entry file that fails to decode, or whose ``"key"`` is not
        ``key``, counts as a miss; the next :meth:`put` under ``key``
        overwrites it.
        """
        plan = self._recall(key)
        if plan is None and self.cache_dir:
            plan = self._read(key)
            if plan is not None:
                self._remember(key, plan)
        return self._count(plan)

    # ------------------------------------------------------------------ put
    def put(self, key: str, plan: PartitionPlan) -> None:
        """Freeze ``plan`` and store it under ``key`` in every enabled
        tier."""
        plan.freeze()
        self._remember(key, plan)
        if self.cache_dir:
            self._write(key, plan_to_dict(plan))

    def clear(self) -> None:
        """Empty both tiers (memory and, when configured, the disk store)."""
        super().clear()
        if not self.cache_dir:
            return
        for path in glob.glob(os.path.join(self.cache_dir, "*.json")):
            # Only ``<content key>.json`` files are the store's.
            if is_content_key(os.path.basename(path)[: -len(".json")]):
                try:
                    os.unlink(path)
                except OSError:
                    pass

    # ------------------------------------------------------------- internals
    def _path(self, key: str) -> str:
        return os.path.join(self.cache_dir, f"{key}.json")

    def _read(self, key: str) -> Optional[PartitionPlan]:
        """The frozen plan stored under ``key``, or ``None`` when its file
        is missing, does not decode, or is an entry of another key."""
        try:
            with open(self._path(key), "r", encoding="utf-8") as fh:
                entry = json.load(fh)
        except (OSError, ValueError):
            return None
        if (
            not isinstance(entry, dict)
            or entry.get("key") != key
            or not isinstance(entry.get("plan"), dict)
        ):
            return None
        try:
            plan = plan_from_dict(entry["plan"])
            plan.freeze()
        except _DECODE_ERRORS:
            return None
        return plan

    def _write(self, key: str, payload: Dict) -> None:
        entry = json.dumps({"key": key, "plan": payload})
        fd, tmp = tempfile.mkstemp(dir=self.cache_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(entry)
            os.replace(tmp, self._path(key))
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass

