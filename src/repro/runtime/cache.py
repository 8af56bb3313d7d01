"""Content-addressed lowered-program cache.

Lowering is the second hot path after planning: every ``repro.compile`` and
``Executor.run`` walks the graph through the backend's pass pipeline —
scheduling, costing, comm emission, memory planning — even when the exact
same request was lowered moments ago.  The inputs that determine the answer
are small and hashable: the dataflow graph, the machine model, the backend
and its options, and the partition plan.  This cache keys lowered programs
by a SHA-256 digest over a canonical JSON encoding of exactly those inputs,
so a warm ``compile()`` (plan-cache hit + program-cache hit) skips every
lowering pass — the ``--profile`` snapshot of a warm compile shows cache-hit
counters and no ``pass.*``/``lower.*`` stages at all.

The two-tier machinery (in-memory LRU + on-disk JSON store with size
accounting, LRU eviction under a byte budget, ``export``/``import`` bundles)
is shared with the plan cache — see :class:`repro.caching.TwoTierCache`;
this module adds the program codec
(:func:`repro.runtime.program.program_to_dict`) and the program key scheme.

The memory tier holds lowered programs, not their JSON: a program's dense
task graph (:class:`repro.sim.engine.TaskGraphBuilder`) is immutable once
built, so the cache keeps it by reference and every hit returns
:meth:`LoweredProgram.copy` — a fresh program (its own memory report and
stats) around the shared dense form, together with the compiled form
cached on it for the program's machine.  A warm hit therefore neither
copies nor re-sorts a task graph.  Only the disk tier and
``export``/``import`` bundles encode programs, in the unchanged version-1
payload format.  Callers edit a returned program with
:meth:`LoweredProgram.replace_tasks`, which builds a new dense form (the
Table 3 ablation rescales durations this way); nothing done to a returned
program reaches the cache.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from repro.caching import (
    TwoTierCache,
    content_key,
    graph_signature,
    machine_signature,
)
from repro.graph.graph import Graph
from repro.runtime.program import (
    LoweredProgram,
    program_from_dict,
    program_to_dict,
)
from repro.sim.device import Topology

__all__ = [
    "KEY_COVERED_CONFIG_FIELDS",
    "NON_SEMANTIC_CONFIG_FIELDS",
    "ProgramCache",
    "default_program_cache",
    "lowered_cache_key",
]

#: ExecutorConfig fields whose values feed :func:`lowered_cache_key` (the
#: key's ``backend``/``options`` payload entries).  Together
#: with NON_SEMANTIC_CONFIG_FIELDS this must classify *every* config field —
#: the ``cache-key`` checker (repro.analysis) fails the build otherwise, so
#: a new semantic knob cannot silently poison warm cache entries.
KEY_COVERED_CONFIG_FIELDS = ("backend", "backend_options")

#: ExecutorConfig fields that deliberately do NOT contribute to program
#: cache keys: cache plumbing and observability knobs that never change
#: what a lowering produces.
NON_SEMANTIC_CONFIG_FIELDS = (
    "cache_programs",
    "program_cache_dir",
    "program_cache_capacity",
    "program_cache_max_bytes",
    "profile",
    "verify",
)


def lowered_cache_key(
    graph: Graph,
    machine: Optional[Topology],
    backend: str,
    backend_options: Mapping[str, object],
    *,
    plan: Optional[object] = None,
) -> str:
    """The content address of one lowering request.

    The plan is folded in as its full dictionary form — the same graph,
    machine, backend, and options lower to different programs under
    different plans, and a plan has no shorter stable signature than its
    content.

    Raises ``TypeError`` when a backend option is not JSON-serialisable
    (e.g. a pre-built ``coarse=CoarsenedGraph``).  Such requests have no
    stable content address, so the executor bypasses the cache for them —
    mirroring the planner.
    """
    from repro.partition.plan import plan_to_dict

    fields = {
        "graph": graph_signature(graph),
        "machine": machine_signature(machine),
        "backend": backend,
        "options": backend_options,
    }
    if plan is not None:
        fields["plan"] = plan_to_dict(plan)
    return content_key(fields)


EXPORT_FORMAT = "tofu-program-cache"
EXPORT_VERSION = 1


class ProgramCache(TwoTierCache):
    """In-memory LRU over lowered programs, with an optional disk tier of
    program payloads."""

    export_format = EXPORT_FORMAT
    export_version = EXPORT_VERSION
    payload_field = "program"
    description = "program cache"

    def encode(self, entry: LoweredProgram) -> Dict:
        """The version-1 JSON payload of a program (:func:`program_to_dict`)."""
        return program_to_dict(entry)

    def decode(self, payload: Dict) -> LoweredProgram:
        """The program a version-1 payload encodes (:func:`program_from_dict`)."""
        return program_from_dict(payload)

    # ------------------------------------------------------------------ get
    def get(self, key: str) -> Optional[LoweredProgram]:
        """A copy of the cached program under ``key`` (sharing its dense
        task graph), or ``None`` on a miss."""
        program = self.get_entry(key)
        if program is None:
            return None
        return program.copy()

    # ------------------------------------------------------------------ put
    def put(self, key: str, program: LoweredProgram) -> None:
        """Store a copy of ``program`` under ``key`` in every enabled tier;
        later edits to ``program``'s containers never reach the cache."""
        self.put_entry(key, program.copy())


#: 64 in-memory programs comfortably cover an `auto` sweep over both
#: reference models.
DEFAULT_PROGRAM_CACHE_CAPACITY = 64

_DEFAULT_PROGRAM_CACHE: Optional[ProgramCache] = None


def default_program_cache() -> ProgramCache:
    """The process-wide program cache.

    Shared by every :class:`repro.runtime.Executor` that does not configure
    its own store — ``repro.compile`` builds executors per call, so the
    warm-compile path depends on them hitting one shared cache.
    """
    global _DEFAULT_PROGRAM_CACHE
    if _DEFAULT_PROGRAM_CACHE is None:
        _DEFAULT_PROGRAM_CACHE = ProgramCache(
            capacity=DEFAULT_PROGRAM_CACHE_CAPACITY
        )
    return _DEFAULT_PROGRAM_CACHE
