"""Content-addressed lowered-program cache.

Lowering is the second hot path after planning: every ``repro.compile``
walks the graph through the backend's pass pipeline —
scheduling, costing, comm emission, memory planning — even when the exact
same request was lowered moments ago.  The inputs that determine the answer
are small and hashable: the dataflow graph, the machine model, the backend
and its options, and the partition plan.  This cache keys lowered programs
by a SHA-256 digest over a canonical JSON encoding of exactly those inputs,
so a warm ``compile()`` (plan-cache hit + program-cache hit) skips every
lowering pass — the ``--profile`` snapshot of a warm compile shows cache-hit
counters and no ``pass.*``/``lower.*`` stages at all.

The cache lives in memory only: it is :class:`repro.caching.LRUCache`,
the LRU the plan cache's memory tier also builds on, plus the program key
scheme.  Programs are never put on disk — only plans are
(Sec 5–6: the runtime regenerates the partitioned graph from the plan), and
re-lowering a cached plan is faster than decoding its program would be.

The plan enters the key as its signature
(:func:`repro.partition.plan.plan_signature`), stored on the frozen plan
like the graph's, so a warm key serialises neither.

A program's dense task graph (:class:`repro.sim.engine.TaskGraphBuilder`)
is immutable once built, so the cache keeps it by reference and every hit
returns :meth:`LoweredProgram.copy` — a fresh program (its own memory report
and stats) around the shared task view, with the compiled form and the
replay cached on it for the program's machine.  A warm hit
therefore neither copies, re-sorts nor replays a task graph.  Callers edit
a returned program by giving a copy a new task dict
(``dataclasses.replace(program.copy(), tasks={**program.tasks, **edits})``),
which builds a new dense form (the Table 3 ablation rescales durations this
way); nothing done to a returned program reaches the cache.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Optional

from repro.caching import (
    LRUCache,
    content_key,
    graph_signature,
    machine_signature,
)
from repro.graph.graph import Graph
from repro.runtime.program import LoweredProgram
from repro.sim.device import Topology

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.partition.plan import PartitionPlan

__all__ = [
    "KEY_COVERED_CONFIG_FIELDS",
    "NON_SEMANTIC_CONFIG_FIELDS",
    "ProgramCache",
    "default_program_cache",
    "lowered_cache_key",
]

#: ExecutorConfig fields whose values feed :func:`lowered_cache_key`: none,
#: the backend and its options are per-call arguments.  Together with
#: NON_SEMANTIC_CONFIG_FIELDS this must classify *every* config field — the
#: ``cache-key`` checker (repro.analysis) fails the build otherwise, so a
#: new semantic knob cannot silently poison warm cache entries.
KEY_COVERED_CONFIG_FIELDS: tuple = ()

#: ExecutorConfig fields that deliberately do NOT contribute to program
#: cache keys: cache plumbing, which never changes what a lowering
#: produces.
NON_SEMANTIC_CONFIG_FIELDS = (
    "cache_programs",
    "program_cache_capacity",
)


def lowered_cache_key(
    graph: Graph,
    machine: Optional[Topology],
    backend: str,
    backend_options: Mapping[str, object],
    *,
    plan: Optional["PartitionPlan"] = None,
) -> str:
    """The content address of one lowering request.

    The plan is folded in as its signature (:func:`plan_signature`): the
    same graph, machine, backend, and options lower to different programs
    under different plans.  The signature leaves out the plan's wall-clock
    search time, so searching the same plan twice hits one program entry.
    Like the graph's, the plan's signature is computed once and stored on
    the (then frozen) plan, so a warm key hashes nothing.

    Raises ``TypeError`` when a backend option is not JSON-serialisable
    (e.g. an object-valued option of a registered third-party backend).
    Such requests have no stable content address, so the executor bypasses
    the cache for them — mirroring the planner.
    """
    from repro.partition.plan import plan_signature

    fields = {
        "graph": graph_signature(graph),
        "machine": machine_signature(machine),
        "backend": backend,
        "options": backend_options,
    }
    if plan is not None:
        fields["plan"] = plan_signature(plan)
    return content_key(fields)


class ProgramCache(LRUCache):
    """In-memory LRU over lowered programs (no disk tier)."""

    # ------------------------------------------------------------------ get
    def get(self, key: str) -> Optional[LoweredProgram]:
        """A copy of the cached program under ``key`` (sharing its dense
        task graph), or ``None`` on a miss."""
        program = self._count(self._recall(key))
        if program is None:
            return None
        return program.copy()

    # ------------------------------------------------------------------ put
    def put(self, key: str, program: LoweredProgram) -> None:
        """Store a copy of ``program`` under ``key``; later edits to
        ``program``'s containers never reach the cache."""
        self._remember(key, program.copy())


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
