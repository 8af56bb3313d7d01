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
...}``, plus ``export``/``import`` bundles (``{"format":
"tofu-plan-cache", "version": 1, "entries": {key: plan payload}}``) for
moving a store between machines.  Files in the directory that are not
named by a content key are not the store's: listing, clearing and
exporting leave them alone.  The store is unbounded.

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

import glob
import json
import os
import tempfile
from typing import Any, Dict, List, Mapping, Optional, Sequence

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

    def info(self) -> Dict[str, object]:
        """The counters of :meth:`LRUCache.info`, plus ``disk_entries`` and
        ``disk_bytes`` when a disk tier is configured."""
        info = super().info()
        if self.cache_dir:
            info["disk_bytes"] = self.disk_bytes()
            info["disk_entries"] = len(self._entry_paths())
        return info

    def disk_bytes(self) -> int:
        """Total size of the on-disk store (0 without a disk tier)."""
        total = 0
        for path in self._entry_paths():
            try:
                total += os.path.getsize(path)
            except OSError:
                continue
        return total

    # ------------------------------------------------------------------ get
    def get(self, key: str) -> Optional[PartitionPlan]:
        """The cached (frozen) plan under ``key`` (memory first, then the
        disk store), or ``None`` on a miss; every hit returns the same
        object.

        An entry file that fails to decode counts as a miss; the next
        :meth:`put` under ``key`` overwrites it.
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

    # --------------------------------------------------------- export/import
    def export_to(self, path: str) -> int:
        """Bundle every on-disk entry into one JSON file at ``path``.

        Content addresses are host-independent (every key input is
        canonically encoded), so a bundle exported on one machine imports
        losslessly on another.  Returns the number of exported entries;
        requires a disk tier.  An unwritable ``path`` raises
        :class:`ReproError` and leaves no temporary file behind.
        """
        if not self.cache_dir:
            raise ReproError(
                "plan cache export needs a disk tier (configure cache_dir)"
            )
        entries: Dict[str, Dict] = {}
        for file_path in self._entry_paths():
            entry = self._read_entry(file_path)
            # Unreadable/corrupt entries are skipped, not fatal.
            if entry is not None and is_content_key(entry.get("key")):
                entries[entry["key"]] = entry["plan"]
        bundle = {
            "format": EXPORT_FORMAT,
            "version": EXPORT_VERSION,
            "entries": entries,
        }
        directory = os.path.dirname(os.path.abspath(path))
        tmp = None
        try:
            fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(bundle, fh)
            os.replace(tmp, path)
        except OSError as exc:
            if tmp is not None:
                os.unlink(tmp)
            raise ReproError(
                f"cannot export the plan cache to {path!r}: {exc}"
            ) from exc
        return len(entries)

    def import_from(self, path: str, *, replace: bool = False) -> Dict[str, int]:
        """Merge a bundle written by :meth:`export_to` into the disk store.

        Existing entries are kept unless ``replace=True`` (content addresses
        make key collisions equal-payload collisions, so keeping is safe).
        Returns ``{"imported": ..., "skipped": ...}``; requires a disk tier.
        The whole bundle is validated first: a malformed one raises
        :class:`ReproError` and writes nothing.
        """
        if not self.cache_dir:
            raise ReproError(
                "plan cache import needs a disk tier (configure cache_dir)"
            )
        try:
            with open(path, "r", encoding="utf-8") as fh:
                bundle = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ReproError(
                f"plan cache bundle {path!r} is not readable JSON: {exc}"
            ) from exc
        entries = _bundle_entries(bundle, path)
        imported = skipped = 0
        for key, payload in entries.items():
            if not replace and os.path.exists(self._path(key)):
                skipped += 1
                continue
            self._write(key, payload)
            imported += 1
        return {"imported": imported, "skipped": skipped}

    def clear(self) -> None:
        """Empty both tiers (memory and, when configured, the disk store)."""
        super().clear()
        for path in self._entry_paths():
            try:
                os.unlink(path)
            except OSError:
                pass

    # ------------------------------------------------------------- internals
    def _path(self, key: str) -> str:
        return os.path.join(self.cache_dir, f"{key}.json")

    def _entry_paths(self) -> List[str]:
        """Every ``<content key>.json`` file of the store; other files in
        the directory are not the store's."""
        if not self.cache_dir:
            return []
        return [
            path
            for path in glob.glob(os.path.join(self.cache_dir, "*.json"))
            if is_content_key(os.path.basename(path)[: -len(".json")])
        ]

    def _read(self, key: str) -> Optional[PartitionPlan]:
        """The frozen plan stored under ``key``, or ``None`` when its file
        is missing or does not decode."""
        entry = self._read_entry(self._path(key))
        if entry is None:
            return None
        try:
            plan = plan_from_dict(entry["plan"])
            plan.freeze()
        except _DECODE_ERRORS:
            return None
        return plan

    @staticmethod
    def _read_entry(path: str) -> Optional[Dict]:
        """The entry file at ``path``, or ``None`` when it is unreadable or
        not an object holding a plan object."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                entry = json.load(fh)
        except (OSError, ValueError):
            return None
        if not isinstance(entry, dict) or not isinstance(entry.get("plan"), dict):
            return None
        return entry

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


def _bundle_entries(bundle: Any, path: str) -> Dict[str, Dict]:
    """The ``key -> payload`` entries of a bundle, or :class:`ReproError`
    naming the first thing :meth:`PlanCache.export_to` would never write."""
    if not isinstance(bundle, dict):
        raise ReproError(
            f"{path!r} is not a {EXPORT_FORMAT} bundle (expected a JSON "
            f"object, got {type(bundle).__name__})"
        )
    if bundle.get("format") != EXPORT_FORMAT:
        raise ReproError(
            f"{path!r} is not a {EXPORT_FORMAT} bundle "
            f"(format={bundle.get('format')!r})"
        )
    if bundle.get("version") != EXPORT_VERSION:
        raise ReproError(
            f"unsupported plan cache bundle version "
            f"{bundle.get('version')!r} (this library reads version "
            f"{EXPORT_VERSION})"
        )
    entries = bundle.get("entries", {})
    if not isinstance(entries, dict):
        raise ReproError(
            f"plan cache bundle {path!r}: 'entries' must be an object, got "
            f"{type(entries).__name__}"
        )
    for key, payload in entries.items():
        if not is_content_key(key):
            raise ReproError(
                f"plan cache bundle {path!r}: entry key {key!r} is not a "
                f"content key (64 lowercase hex digits)"
            )
        if not isinstance(payload, dict):
            raise ReproError(
                f"plan cache bundle {path!r}: the payload of entry {key} "
                f"must be an object, got {type(payload).__name__}"
            )
    return entries
