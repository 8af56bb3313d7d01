"""Shared two-tier cache plumbing.

Both content-addressed stores of the pipeline — the partition-plan cache
(:mod:`repro.planner.cache`) and the lowered-program cache
(:mod:`repro.runtime.cache`) — need an in-memory LRU with hit/miss
bookkeeping; the plan cache also needs an optional on-disk store of JSON
payloads (one file per key) with size accounting and least-recently-used
eviction under a byte budget, and ``export``/``import`` bundles for moving
a store between machines.  :class:`TwoTierCache` is that machinery,
factored out once; the plan cache subclasses it with its entry codec and
bundle format name, the program cache uses its memory tier only.

Content-address helpers (:func:`graph_signature`, :func:`machine_signature`,
:func:`content_key`) also live here so both key schemes hash identical
inputs identically.  A graph is serialised for its signature once: the
first :func:`graph_signature` freezes the graph and stores the hash on it
(a plan does the same, :func:`repro.partition.plan.plan_signature`).
"""

from __future__ import annotations

import dataclasses
import glob
import hashlib
import json
import os
import re
import tempfile
from collections import OrderedDict
from typing import Any, Dict, Optional

from repro.errors import ReproError
from repro.graph.graph import Graph
from repro.graph.serialization import graph_to_dict
from repro.sim.device import Topology


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
        payload = json.dumps(
            graph_to_dict(graph), sort_keys=True, separators=(",", ":")
        )
        graph.signature = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    return graph.signature


def machine_signature(machine: Optional[Topology]) -> str:
    """Content hash of a machine or cluster model (``"no-machine"`` when
    unspecified) — a one-machine cluster and its bare machine hash
    differently, as do clusters differing only in machine count or network
    parameters."""
    if machine is None:
        return "no-machine"
    payload = json.dumps(
        dataclasses.asdict(machine), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def content_key(fields: Dict) -> str:
    """SHA-256 over the canonical JSON encoding of ``fields``.

    Raises ``TypeError`` when a field is not JSON-serialisable — such inputs
    have no stable content address, so callers bypass their cache for them.
    """
    payload = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


#: The shape of every :func:`content_key`: a SHA-256 hex digest.
_CONTENT_KEY = re.compile(r"[0-9a-f]{64}")

#: What :meth:`TwoTierCache.decode` raises for a malformed payload.
_DECODE_ERRORS = (ReproError, AttributeError, IndexError, KeyError, TypeError,
                  ValueError)


def _is_content_key(key: object) -> bool:
    return isinstance(key, str) and _CONTENT_KEY.fullmatch(key) is not None


# ---------------------------------------------------------------------------
# The shared store
# ---------------------------------------------------------------------------
class TwoTierCache:
    """In-memory LRU of entries, with an optional disk tier of payloads.

    Subclasses set three class attributes: ``export_format`` (the bundle
    format marker), ``export_version``, and ``payload_field`` (the JSON key
    a disk entry stores its payload under — ``"plan"`` for plans, which
    keeps the plan cache's pre-refactor on-disk layout byte-compatible),
    plus ``description`` for error messages.

    The memory tier holds *entries*; the disk tier and export bundles
    carry their JSON *payloads*.  :meth:`encode` and :meth:`decode` convert
    between the two at that boundary only — the default is the identity
    (entries are payload dicts); plans keep their objects.  What a subclass
    hands out from an entry — the same frozen object per hit, or a fresh
    one sharing immutable parts — is its own contract.

    An instance is used from one thread.  Processes share a store through
    its directory: every disk entry is written to a tempfile and moved into
    place with ``os.replace``, so a reader never sees a partial file.
    """

    export_format: str = "tofu-cache"
    export_version: int = 1
    payload_field: str = "entry"
    description: str = "cache"

    def __init__(
        self,
        capacity: int = 128,
        cache_dir: Optional[str] = None,
        *,
        max_bytes: Optional[int] = None,
    ):
        self.capacity = max(0, capacity)
        self.cache_dir = cache_dir
        self.max_bytes = max_bytes
        self._memory: "OrderedDict[str, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.disk_evictions = 0
        if cache_dir:
            try:
                os.makedirs(cache_dir, exist_ok=True)
            except OSError as exc:
                raise ReproError(
                    f"{self.description} directory {cache_dir!r} is not "
                    f"usable: {exc}"
                ) from exc

    @property
    def enabled(self) -> bool:
        return self.capacity > 0 or self.cache_dir is not None

    def __len__(self) -> int:
        return len(self._memory)

    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 before any lookup)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def info(self) -> Dict[str, object]:
        info: Dict[str, object] = {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate(),
            "size": len(self._memory),
        }
        if self.cache_dir:
            info["disk_bytes"] = self.disk_bytes()
            info["disk_entries"] = len(self._disk_entries())
            info["disk_evictions"] = self.disk_evictions
        return info

    def disk_bytes(self) -> int:
        """Total size of the on-disk store (0 without a disk tier)."""
        return sum(size for _, size, _ in self._disk_entries())

    # ---------------------------------------------------------------- codec
    def encode(self, entry: Any) -> Dict:
        """The JSON payload of a memory-tier entry (identity by default)."""
        return entry

    def decode(self, payload: Dict) -> Any:
        """The memory-tier entry of a JSON payload (identity by default)."""
        return payload

    # -------------------------------------------------------------- entries
    def get_entry(self, key: str) -> Optional[Any]:
        """The stored entry under ``key`` (memory first, then the decoded
        disk payload), or ``None`` on a miss.

        A payload that fails to decode counts as a miss; the next
        :meth:`put_entry` under ``key`` overwrites it.
        """
        entry = self._memory.get(key)
        if entry is not None:
            self._memory.move_to_end(key)
            self.hits += 1
            return entry
        payload = self._disk_get(key)
        if payload is None:
            self.misses += 1
            return None
        try:
            entry = self.decode(payload)
        except _DECODE_ERRORS:
            self.misses += 1
            return None
        self.hits += 1
        self._memory_put(key, entry)
        return entry

    def put_entry(self, key: str, entry: Any) -> None:
        """Store ``entry`` in memory and its payload on disk (the entry is
        encoded only when a disk tier is configured)."""
        payload = self.encode(entry) if self.cache_dir else None
        self._memory_put(key, entry)
        if payload is not None:
            self._disk_put(key, payload)

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
                f"{self.description} export needs a disk tier "
                f"(configure cache_dir)"
            )
        entries: Dict[str, Dict] = {}
        for file_path, _, _ in self._disk_entries():
            entry = self._read_entry(file_path)
            # Unreadable/corrupt entries are skipped, not fatal.
            if entry is not None and _is_content_key(entry.get("key")):
                entries[entry["key"]] = entry[self.payload_field]
        bundle = {
            "format": self.export_format,
            "version": self.export_version,
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
                f"cannot export the {self.description} to {path!r}: {exc}"
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
                f"{self.description} import needs a disk tier "
                f"(configure cache_dir)"
            )
        try:
            with open(path, "r", encoding="utf-8") as fh:
                bundle = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ReproError(
                f"{self.description} bundle {path!r} is not readable JSON: "
                f"{exc}"
            ) from exc
        entries = self._bundle_entries(bundle, path)
        imported = skipped = 0
        for key, payload in entries.items():
            if not replace and os.path.exists(self._path(key)):
                skipped += 1
                continue
            self._disk_put(key, payload)
            imported += 1
        return {"imported": imported, "skipped": skipped}

    def _bundle_entries(self, bundle: Any, path: str) -> Dict[str, Dict]:
        """The ``key -> payload`` entries of a bundle, or :class:`ReproError`
        naming the first thing :meth:`export_to` would never write."""
        if not isinstance(bundle, dict):
            raise ReproError(
                f"{path!r} is not a {self.export_format} bundle (expected a "
                f"JSON object, got {type(bundle).__name__})"
            )
        if bundle.get("format") != self.export_format:
            raise ReproError(
                f"{path!r} is not a {self.export_format} bundle "
                f"(format={bundle.get('format')!r})"
            )
        if bundle.get("version") != self.export_version:
            raise ReproError(
                f"unsupported {self.description} bundle version "
                f"{bundle.get('version')!r} (this library reads version "
                f"{self.export_version})"
            )
        entries = bundle.get("entries", {})
        if not isinstance(entries, dict):
            raise ReproError(
                f"{self.description} bundle {path!r}: 'entries' must be an "
                f"object, got {type(entries).__name__}"
            )
        for key, payload in entries.items():
            if not _is_content_key(key):
                raise ReproError(
                    f"{self.description} bundle {path!r}: entry key {key!r} "
                    f"is not a content key (64 lowercase hex digits)"
                )
            if not isinstance(payload, dict):
                raise ReproError(
                    f"{self.description} bundle {path!r}: the payload of "
                    f"entry {key} must be an object, got "
                    f"{type(payload).__name__}"
                )
        return entries

    def clear(self) -> None:
        """Empty both tiers (memory and, when configured, the disk store)."""
        self._memory.clear()
        self.hits = 0
        self.misses = 0
        self.disk_evictions = 0
        if self.cache_dir:
            for path in glob.glob(os.path.join(self.cache_dir, "*.json")):
                try:
                    os.unlink(path)
                except OSError:
                    pass

    # ------------------------------------------------------------- internals
    def _memory_put(self, key: str, entry: Any) -> None:
        if self.capacity <= 0:
            return
        self._memory[key] = entry
        self._memory.move_to_end(key)
        while len(self._memory) > self.capacity:
            self._memory.popitem(last=False)

    def _path(self, key: str) -> str:
        return os.path.join(self.cache_dir, f"{key}.json")

    def _disk_get(self, key: str) -> Optional[Dict]:
        if not self.cache_dir:
            return None
        path = self._path(key)
        entry = self._read_entry(path)
        if entry is None:
            return None
        try:
            os.utime(path, None)  # refresh LRU recency on hit
        except OSError:
            pass
        return entry[self.payload_field]

    def _read_entry(self, path: str) -> Optional[Dict]:
        """The entry file at ``path``, or ``None`` when it is unreadable or
        not an object holding a payload object."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                entry = json.load(fh)
        except (OSError, ValueError):
            return None
        if not isinstance(entry, dict) or not isinstance(
            entry.get(self.payload_field), dict
        ):
            return None
        return entry

    def _disk_put(self, key: str, payload: Dict) -> None:
        if not self.cache_dir:
            return
        entry = json.dumps({"key": key, self.payload_field: payload})
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
            return
        self._disk_enforce_budget(keep=self._path(key))

    def _disk_entries(self):
        """``(path, size, mtime)`` of every stored entry file."""
        if not self.cache_dir:
            return []
        entries = []
        for path in glob.glob(os.path.join(self.cache_dir, "*.json")):
            try:
                stat = os.stat(path)
            except OSError:
                continue
            entries.append((path, stat.st_size, stat.st_mtime))
        return entries

    def _disk_enforce_budget(self, keep: Optional[str] = None) -> None:
        """Evict least-recently-used files until the store fits ``max_bytes``.

        ``keep`` protects the entry just written: even when one payload alone
        exceeds the budget the caller's own entry must survive the sweep, so
        hit-after-put stays guaranteed within a process.
        """
        if self.max_bytes is None or not self.cache_dir:
            return
        entries = self._disk_entries()
        total = sum(size for _, size, _ in entries)
        if total <= self.max_bytes:
            return
        entries.sort(key=lambda item: item[2])  # oldest mtime first
        for path, size, _ in entries:
            if total <= self.max_bytes:
                break
            if keep is not None and os.path.abspath(path) == os.path.abspath(keep):
                continue
            try:
                os.unlink(path)
            except OSError:
                continue
            total -= size
            self.disk_evictions += 1
