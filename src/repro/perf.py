"""Lightweight stage profiling for the two hot paths: lowering and simulation.

The planner search, every lowering pass, and the simulate loop report into a
:class:`StageTimer` when one is *active*; when none is, the instrumentation
collapses to a single global load and branch, so the hot paths pay nothing
in the common case.  Zero dependencies, stdlib only.

Activation is scoped and re-entrant::

    timer = StageTimer()
    with activation(timer):
        model = repro.compile(graph, "dp:2/tofu", machine)
    print(timer.summary())

This is the one spelling of profiling: the CLI's ``--profile`` flag wraps
its command in it, and the autotuner reports into the active timer (or a
private one) to fill its ``stage_seconds``.  Two kinds of measurements:

* **stages** — named wall-clock sections with call counts
  (``pass.topo_schedule``, ``lower.pipeline``, ``sim.run`` ...), recorded by
  :func:`stage` / :func:`timed`;
* **counters** — named value accumulators (``plan_cache.hit``,
  ``program_cache.miss`` ...), recorded by :func:`count`.

The warm-path acceptance check reads exactly this: a warm
``repro.compile()`` snapshot shows cache-hit counters and *no* ``pass.*`` or
``lower.*`` stages, proving every lowering pass was skipped.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager, nullcontext
from typing import Callable, ContextManager, Dict, Iterator, Optional, Set

__all__ = [
    "StageTimer",
    "activation",
    "active_timer",
    "count",
    "stage",
    "timed",
]


class StageTimer:
    """Accumulates named stage timings and counters."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.counters: Dict[str, float] = {}
        self._open: Set[str] = set()

    # ---------------------------------------------------------------- record
    def record(self, name: str, seconds: float) -> None:
        """Add one timed call of stage ``name``."""
        self.seconds[name] = self.seconds.get(name, 0.0) + seconds
        self.calls[name] = self.calls.get(name, 0) + 1

    def count(self, name: str, value: float = 1.0) -> None:
        """Accumulate ``value`` on counter ``name``."""
        self.counters[name] = self.counters.get(name, 0.0) + value

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Time the block as one call of ``name``; inside an open stage of
        the same name (a hybrid's inner emission) it records nothing."""
        if name in self._open:
            yield
            return
        self._open.add(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._open.discard(name)
            self.record(name, time.perf_counter() - start)

    # --------------------------------------------------------------- queries
    def stage_calls(self, name: str) -> int:
        return self.calls.get(name, 0)

    def counter(self, name: str) -> float:
        return self.counters.get(name, 0.0)

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """JSON-serialisable view: per-stage calls/seconds plus counters."""
        return {
            "stages": {
                name: {"calls": self.calls[name], "seconds": self.seconds[name]}
                for name in sorted(self.calls)
            },
            "counters": {name: self.counters[name] for name in sorted(self.counters)},
        }

    def clear(self) -> None:
        self.seconds.clear()
        self.calls.clear()
        self.counters.clear()

    def summary(self) -> str:
        """Human-readable table (what ``--profile`` prints)."""
        lines = ["profile:"]
        if self.calls:
            width = max(len(name) for name in self.calls)
            for name in sorted(self.calls):
                lines.append(
                    f"  {name:<{width}}  {self.calls[name]:>6} call(s)  "
                    f"{self.seconds[name] * 1e3:>10.3f} ms"
                )
        if self.counters:
            width = max(len(name) for name in self.counters)
            for name in sorted(self.counters):
                value = self.counters[name]
                text = f"{int(value)}" if value == int(value) else f"{value:.3f}"
                lines.append(f"  {name:<{width}}  {text:>6}")
        if len(lines) == 1:
            lines.append("  (no stages recorded)")
        return "\n".join(lines)


# The active sink: the timer every instrumented section reports into.
_ACTIVE: Optional[StageTimer] = None


def active_timer() -> Optional[StageTimer]:
    """The timer the instrumentation reports into (``None`` = off)."""
    return _ACTIVE


@contextmanager
def activation(timer: Optional[StageTimer]) -> Iterator[Optional[StageTimer]]:
    """Make ``timer`` the active profile sink for the duration of the block.

    ``None`` keeps whatever timer is already active (so a CLI command run
    without ``--profile`` inside a profiled block still reports to the outer
    timer); on exit the previous sink is restored.
    """
    global _ACTIVE
    previous = _ACTIVE
    if timer is not None:
        _ACTIVE = timer
    try:
        yield _ACTIVE
    finally:
        _ACTIVE = previous


def stage(name: str) -> ContextManager[None]:
    """Time a section under ``name`` when a timer is active (no-op otherwise)."""
    timer = _ACTIVE
    return nullcontext() if timer is None else timer.stage(name)


def count(name: str, value: float = 1.0) -> None:
    """Bump counter ``name`` on the active timer (no-op when none is)."""
    timer = _ACTIVE
    if timer is not None:
        timer.count(name, value)


def timed(name: str) -> Callable:
    """Decorator form of :func:`stage` for the lowering passes."""

    def decorate(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            timer = _ACTIVE
            if timer is None:
                return fn(*args, **kwargs)
            with timer.stage(name):
                return fn(*args, **kwargs)

        return wrapper

    return decorate
