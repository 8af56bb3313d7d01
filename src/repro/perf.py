"""Lightweight stage profiling for the two hot paths: lowering and simulation.

The planner search, every lowering pass, and the simulate loop report into a
:class:`StageTimer` when one is *active*; when none is, the instrumentation
collapses to a single thread-local load and branch, so the hot paths pay
nothing in the common case.  The active sink is per-thread, which is what
gives the compile service (:mod:`repro.serve`) isolated per-request stage
timings under concurrency.  Zero dependencies, stdlib only.

Activation is scoped and re-entrant::

    timer = StageTimer()
    with activation(timer):
        model = repro.compile(graph, "dp:2/tofu", machine)
    print(timer.summary())

``Executor`` (``ExecutorConfig(profile=True)``), ``repro.compile`` (which
surfaces the snapshot as ``CompiledModel.metadata["profile"]``) and the CLI
``--profile`` flag all build on this module.  Two kinds of measurements:

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
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, Optional

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
        start = time.perf_counter()
        try:
            yield
        finally:
            self.record(name, time.perf_counter() - start)

    # --------------------------------------------------------------- queries
    def stage_calls(self, name: str) -> int:
        return self.calls.get(name, 0)

    def counter(self, name: str) -> float:
        return self.counters.get(name, 0.0)

    def stages_matching(self, prefix: str) -> Dict[str, int]:
        """``{stage: calls}`` of every stage whose name starts with ``prefix``."""
        return {
            name: calls
            for name, calls in self.calls.items()
            if name.startswith(prefix)
        }

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


# The active sink is *per thread*: the compile service runs one request per
# worker thread, each under its own profiling executor, and a module-global
# sink would interleave their stages.  Thread-locality keeps every request's
# snapshot self-contained while single-threaded callers see the exact
# pre-existing behaviour.
_TLS = threading.local()


def active_timer() -> Optional[StageTimer]:
    """The timer this thread's instrumentation reports into (``None`` = off)."""
    return getattr(_TLS, "timer", None)


@contextmanager
def activation(timer: Optional[StageTimer]) -> Iterator[Optional[StageTimer]]:
    """Make ``timer`` the active profile sink for the duration of the block.

    ``None`` keeps whatever timer is already active (so a non-profiling
    ``Executor`` nested inside a profiling ``compile`` still reports to the
    outer timer); on exit the previous sink is restored.  Activation is
    per-thread: concurrent requests profiling in parallel never cross-talk.
    """
    previous = getattr(_TLS, "timer", None)
    if timer is not None:
        _TLS.timer = timer
    try:
        yield getattr(_TLS, "timer", None)
    finally:
        _TLS.timer = previous


@contextmanager
def stage(name: str) -> Iterator[None]:
    """Time a section under ``name`` when a timer is active (no-op otherwise)."""
    timer = getattr(_TLS, "timer", None)
    if timer is None:
        yield
        return
    start = time.perf_counter()
    try:
        yield
    finally:
        timer.record(name, time.perf_counter() - start)


def count(name: str, value: float = 1.0) -> None:
    """Bump counter ``name`` on the active timer (no-op when none is)."""
    timer = getattr(_TLS, "timer", None)
    if timer is not None:
        timer.count(name, value)


def timed(name: str) -> Callable:
    """Decorator form of :func:`stage` for the lowering passes."""

    def decorate(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            timer = getattr(_TLS, "timer", None)
            if timer is None:
                return fn(*args, **kwargs)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                timer.record(name, time.perf_counter() - start)

        return wrapper

    return decorate
