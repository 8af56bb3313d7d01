"""The compile memo: facts about a frozen graph, derived once per compile.

An ``auto`` compile lowers up to 16 candidate strategies of one graph, and
every candidate asks it the same questions: each node's roofline inputs, its
topological order, its default memory plan, the recursive search's steps.
The answers are pure functions of the graph, and a frozen graph cannot
change, so one compile derives each answer once and every candidate reads it.

The memo lives exactly as long as the outermost compile: the
reference-counted compile scope (``compiler.collector_paused``, which
``repro.compile`` and ``Tuner.tune`` open) calls :func:`open_memo` when the
first compile enters and :func:`close_memo` when the last one leaves, on
success and on error.  Outside a compile, and for a graph that is not
frozen, :func:`memoized` derives afresh.  Nothing is stored on the graph, so
a caller that compiles one graph object many times (a benchmark's cold
rounds) gets a cold derivation in every compile.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, Hashable, Iterator, Optional, Tuple,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.graph.graph import Graph

__all__ = ["close_memo", "memo_suspended", "memoized", "open_memo"]

#: ``(graph, key) -> value`` while a compile runs, ``None`` outside one.
#: The graph is keyed by identity and kept alive until the scope closes.
_entries: Optional[Dict[Tuple["Graph", Hashable], Any]] = None


def open_memo() -> None:
    """Start an empty memo (the outermost compile entering)."""
    global _entries
    _entries = {}


def close_memo() -> None:
    """Drop the memo and everything in it (the outermost compile leaving)."""
    global _entries
    _entries = None


@contextmanager
def memo_suspended() -> Iterator[None]:
    """Derive everything afresh inside this block, even within a compile.

    The static verifier runs its checkers here: a check re-derives what
    lowering computed instead of reading lowering's answers back.
    """
    global _entries
    saved, _entries = _entries, None
    try:
        yield
    finally:
        _entries = saved


def memoized(graph: "Graph", key: Hashable, derive: Callable[[], Any]) -> Any:
    """``derive()``, computed once per compile for a frozen ``graph``.

    ``key`` names the fact; ``derive`` must be a pure function of the graph
    (and of ``key``).  Callers share the returned value, so they must not
    edit it.
    """
    if _entries is None or not graph.frozen:
        return derive()
    slot = (graph, key)
    try:
        return _entries[slot]
    except KeyError:
        value = _entries[slot] = derive()
        return value
