"""Tuner outcomes, the Pareto frontier, and the result bundle.

One sweep produces one :class:`CandidateOutcome` per candidate — evaluated,
screened (with the rejection reason), errored, or skipped by the budget —
and the ranking stage reduces the evaluated ones to a Pareto frontier over
(iteration time, peak device memory, machine count).  Reporting a frontier
rather than a single winner keeps the time/memory/footprint trade-offs
visible: the fastest strategy may need every box, while a near-tie may fit
one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.caching import content_key, machine_signature

if TYPE_CHECKING:  # pragma: no cover
    from repro.compiler import CompiledModel

__all__ = ["CandidateOutcome", "TunerResult", "pareto_frontier"]

# Outcome statuses, in pipeline order.
STATUS_EVALUATED = "evaluated"  # fully simulated
STATUS_SCREENED = "screened"  # rejected before simulation (memory fit)
STATUS_ERROR = "error"  # the compile itself failed
STATUS_SKIPPED = "skipped"  # never started (budget exhausted)


@dataclass
class CandidateOutcome:
    """What the sweep decided about one candidate strategy.

    ``status`` is ``"evaluated"`` (simulated; ``iteration_time`` /
    ``peak_memory`` / ``oom`` are filled), ``"screened"`` (rejected before
    any simulation; ``reason`` says why), ``"error"`` (the compile raised;
    ``reason`` carries the message), or ``"skipped"`` (the budget ran out
    first).  ``index`` is the candidate's position in the deterministic
    generation order — the tie-breaker that keeps reruns identical.
    """

    index: int
    strategy: str
    status: str
    reason: Optional[str] = None
    iteration_time: Optional[float] = None
    peak_memory: Optional[int] = None
    machine_count: int = 1
    oom: bool = False

    @property
    def viable(self) -> bool:
        """Whether this outcome can win: fully evaluated and within memory."""
        return self.status == STATUS_EVALUATED and not self.oom

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable form (one row of :meth:`TunerResult.to_dict`)."""
        return {
            "index": self.index,
            "strategy": self.strategy,
            "status": self.status,
            "reason": self.reason,
            "iteration_time": self.iteration_time,
            "peak_memory": self.peak_memory,
            "machine_count": self.machine_count,
            "oom": self.oom,
        }


def _dominates(a: CandidateOutcome, b: CandidateOutcome) -> bool:
    """Whether ``a`` is at least as good as ``b`` on every objective and
    strictly better on one (all three minimised)."""
    at_least = (
        a.iteration_time <= b.iteration_time
        and a.peak_memory <= b.peak_memory
        and a.machine_count <= b.machine_count
    )
    strictly = (
        a.iteration_time < b.iteration_time
        or a.peak_memory < b.peak_memory
        or a.machine_count < b.machine_count
    )
    return at_least and strictly


def pareto_frontier(outcomes: List[CandidateOutcome]) -> List[CandidateOutcome]:
    """The non-dominated evaluated outcomes over (iteration time, peak
    memory, machine count), sorted fastest-first.

    Only viable outcomes (evaluated, not OOM) compete; ties on every
    objective keep both points.  The sort key ends on the candidate index,
    so the frontier order is deterministic.
    """
    viable = [o for o in outcomes if o.viable]
    frontier = [
        o
        for o in viable
        if not any(_dominates(other, o) for other in viable if other is not o)
    ]
    frontier.sort(
        key=lambda o: (o.iteration_time, o.peak_memory, o.machine_count, o.index)
    )
    return frontier


@dataclass
class TunerResult:
    """Everything one budgeted sweep produced.

    ``best`` is the fastest viable candidate's compiled model;
    ``frontier`` the Pareto set
    over (iteration time, peak memory, machine count); ``outcomes`` every
    candidate's verdict in generation order — including screened ones with
    their rejection reason; ``stats`` the sweep's counters and stage
    timings.
    """

    best: Optional["CompiledModel"]
    frontier: List[CandidateOutcome]
    outcomes: List[CandidateOutcome]
    stats: Dict[str, object] = field(default_factory=dict)

    def winner_key(self) -> str:
        """Content address of the winning configuration (strategy tree ×
        machine model) — what the determinism guarantee is stated over:
        equal budgets must produce equal winner keys across reruns."""
        if self.best is None:
            return ""
        return content_key(
            {
                "strategy": str(self.best.strategy),
                "machine": machine_signature(self.best.machine),
            }
        )

    def counts(self) -> Dict[str, int]:
        """Outcome totals by status (evaluated / screened / error / skipped)."""
        totals: Dict[str, int] = {}
        for outcome in self.outcomes:
            totals[outcome.status] = totals.get(outcome.status, 0) + 1
        return totals

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable form: frontier + outcomes + stats (the winner's
        full model payload is not embedded; save it separately)."""
        return {
            "winner": None if self.best is None else str(self.best.strategy),
            "winner_key": self.winner_key(),
            "frontier": [o.to_dict() for o in self.frontier],
            "outcomes": [o.to_dict() for o in self.outcomes],
            "counts": self.counts(),
            "stats": dict(self.stats),
        }

    def summary(self) -> str:
        """Human-readable frontier table plus screening totals."""
        lines = []
        counts = self.counts()
        total = len(self.outcomes)
        lines.append(
            f"candidates: {total} "
            f"({counts.get(STATUS_EVALUATED, 0)} evaluated, "
            f"{counts.get(STATUS_SCREENED, 0)} screened, "
            f"{counts.get(STATUS_ERROR, 0)} failed, "
            f"{counts.get(STATUS_SKIPPED, 0)} skipped)"
        )
        if self.best is not None:
            lines.append(f"winner: {self.best.strategy}")
        lines.append("pareto frontier (iteration time / peak memory / machines):")
        gib = 1024.0**3
        for outcome in self.frontier:
            marker = " *" if (
                self.best is not None
                and outcome.strategy == str(self.best.strategy)
            ) else ""
            lines.append(
                f"  {outcome.strategy:<36} "
                f"{outcome.iteration_time * 1e3:>9.2f} ms  "
                f"{outcome.peak_memory / gib:>6.2f} GiB  "
                f"{outcome.machine_count:>2} machine(s){marker}"
            )
        return "\n".join(lines)
