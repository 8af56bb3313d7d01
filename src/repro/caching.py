"""Shared cache plumbing: content addresses and an in-memory LRU.

Both content-addressed stores of the pipeline — the partition-plan cache
(:mod:`repro.planner.cache`) and the lowered-program cache
(:mod:`repro.runtime.cache`) — keep entries in an in-memory LRU with
hit/miss bookkeeping, :class:`LRUCache`.  Only plans persist: the plan
cache adds its own on-disk store (one ``<content key>.json`` file per
plan); programs live in memory only.

Content-address helpers (:func:`graph_signature`, :func:`machine_signature`,
:func:`content_key`, :func:`is_content_key`) also live here so both key
schemes hash identical inputs identically.  A graph is serialised for its
signature once: the first :func:`graph_signature` freezes the graph and
stores the hash on it (a plan does the same,
:func:`repro.partition.plan.plan_signature`).
"""

from __future__ import annotations

import hashlib
import json
import re
from collections import OrderedDict
from typing import Any, Dict, Optional

from repro.graph.graph import Graph
from repro.graph.serialization import graph_to_dict
from repro.sim.device import Topology, machine_to_dict


# ---------------------------------------------------------------------------
# Content addressing
# ---------------------------------------------------------------------------
def graph_signature(graph: Graph) -> str:
    """Content hash of a graph (tensors, nodes, attrs, metadata).

    The first call freezes ``graph`` (:meth:`Graph.freeze`), hashes it and
    stores the hash on it; every later call returns the stored hash.  The
    freeze is what makes that safe: a signed graph cannot change, so its
    signature cannot go stale.
    """
    if graph.signature is None:
        graph.freeze()
        graph.signature = content_key(graph_to_dict(graph))
    return graph.signature


def machine_signature(machine: Optional[Topology]) -> str:
    """Content hash of a machine or cluster model (``"no-machine"`` when
    unspecified) over the payload a saved model stores
    (:func:`repro.sim.device.machine_to_dict`) — a one-machine cluster and
    its bare machine hash differently, as do clusters differing only in
    machine count or network parameters."""
    if machine is None:
        return "no-machine"
    return content_key(machine_to_dict(machine))


def content_key(fields: Dict) -> str:
    """SHA-256 over the canonical JSON encoding of ``fields``.

    Raises ``TypeError`` when a field is not JSON-serialisable — such inputs
    have no stable content address, so callers bypass their cache for them.
    """
    payload = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


#: The shape of every :func:`content_key`: a SHA-256 hex digest.
_CONTENT_KEY = re.compile(r"[0-9a-f]{64}")


def is_content_key(key: object) -> bool:
    """Whether ``key`` has the shape of a :func:`content_key`."""
    return isinstance(key, str) and _CONTENT_KEY.fullmatch(key) is not None


# ---------------------------------------------------------------------------
# The in-memory tier
# ---------------------------------------------------------------------------
class LRUCache:
    """In-memory LRU of entries with hit/miss counters.

    Subclasses define ``get``/``put``: what they hand out from an entry —
    the same frozen object per hit, or a fresh one sharing immutable parts
    — is their own contract.  :meth:`_recall` and :meth:`_remember` move
    entries in and out of the LRU; :meth:`_count` books one lookup.  An
    instance is used from one thread.
    """

    def __init__(self, capacity: int = 128):
        self.capacity = max(0, capacity)
        self._memory: "OrderedDict[str, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    @property
    def enabled(self) -> bool:
        """Whether the cache stores anything (a positive capacity)."""
        return self.capacity > 0

    def __len__(self) -> int:
        return len(self._memory)

    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 before any lookup)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def info(self) -> Dict[str, object]:
        """``hits``, ``misses``, ``hit_rate`` and the in-memory ``size``."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate(),
            "size": len(self._memory),
        }

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        self._memory.clear()
        self.hits = 0
        self.misses = 0

    def _recall(self, key: str) -> Optional[Any]:
        """The entry under ``key``, now the most recent (``None`` when
        absent); counts nothing."""
        entry = self._memory.get(key)
        if entry is not None:
            self._memory.move_to_end(key)
        return entry

    def _remember(self, key: str, entry: Any) -> None:
        if self.capacity <= 0:
            return
        self._memory[key] = entry
        self._memory.move_to_end(key)
        while len(self._memory) > self.capacity:
            self._memory.popitem(last=False)

    def _count(self, entry: Optional[Any]) -> Optional[Any]:
        """Book one lookup that found ``entry`` (``None``: a miss)."""
        if entry is None:
            self.misses += 1
        else:
            self.hits += 1
        return entry
