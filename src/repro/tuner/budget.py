"""Search budgets for the autotuner.

A budget bounds the design-space sweep two ways: **candidates** (how many
strategies may be screened and evaluated — deterministic: the same budget on
the same machine always decides the same candidate set) and **wall-clock**
(a soft deadline checked between candidates — best-effort: what finishes in
time depends on the host).  Both may be combined; an unbounded budget
evaluates the full generated grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, TypeVar

from repro.errors import StrategyError

__all__ = ["TunerBudget"]

T = TypeVar("T")


@dataclass(frozen=True)
class TunerBudget:
    """How much searching the tuner may do.

    ``max_candidates`` caps how many strategies enter the staged evaluation
    (the generated grid is truncated in its deterministic order, so a
    candidate budget alone keeps reruns bit-identical).
    ``max_seconds`` is a wall-clock deadline checked between candidates:
    candidates not started by the deadline are reported as skipped, never
    silently dropped.  ``None`` means unbounded on that axis.
    """

    max_candidates: Optional[int] = None
    max_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        candidates, seconds = self.max_candidates, self.max_seconds
        if candidates is not None and (
            isinstance(candidates, bool)
            or not isinstance(candidates, int)
            or candidates < 1
        ):
            raise StrategyError(
                f"TunerBudget.max_candidates must be an integer >= 1, got "
                f"{candidates!r}"
            )
        if seconds is not None and (
            isinstance(seconds, bool)
            or not isinstance(seconds, (int, float))
            or not math.isfinite(seconds)
            or seconds <= 0
        ):
            raise StrategyError(
                f"TunerBudget.max_seconds must be a finite number > 0, got "
                f"{seconds!r}"
            )

    @property
    def deterministic(self) -> bool:
        """Whether the budget decides the same candidates on every run
        (true exactly when no wall-clock deadline is set)."""
        return self.max_seconds is None

    def split(self, pool: Sequence[T]) -> Tuple[List[T], List[T]]:
        """``(admitted, cut)``: the candidates inside and beyond the
        candidate budget, in the pool's original order."""
        if self.max_candidates is None or len(pool) <= self.max_candidates:
            return list(pool), []
        return list(pool[: self.max_candidates]), list(pool[self.max_candidates:])

    def to_dict(self) -> dict:
        """JSON-serialisable form (recorded in :class:`TunerResult`)."""
        return {
            "max_candidates": self.max_candidates,
            "max_seconds": self.max_seconds,
        }
