"""Search budgets for the autotuner.

A budget bounds the design-space sweep in **candidates**: how many
strategies may be screened and evaluated.  The generated grid is truncated
in its deterministic order, so the same budget on the same machine always
decides the same candidate set and every sweep reruns bit-identically.  An
unbounded budget evaluates the full generated grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, TypeVar

from repro.errors import StrategyError

__all__ = ["TunerBudget"]

T = TypeVar("T")


@dataclass(frozen=True)
class TunerBudget:
    """How much searching the tuner may do.

    ``max_candidates`` caps how many strategies enter the staged evaluation;
    the rest of the grid is reported as skipped, never silently dropped.
    ``None`` means unbounded.
    """

    max_candidates: Optional[int] = None

    def __post_init__(self) -> None:
        candidates = self.max_candidates
        if candidates is not None and (
            isinstance(candidates, bool)
            or not isinstance(candidates, int)
            or candidates < 1
        ):
            raise StrategyError(
                f"TunerBudget.max_candidates must be an integer >= 1, got "
                f"{candidates!r}"
            )

    def split(self, pool: Sequence[T]) -> Tuple[List[T], List[T]]:
        """``(admitted, cut)``: the candidates inside and beyond the
        candidate budget, in the pool's original order."""
        if self.max_candidates is None or len(pool) <= self.max_candidates:
            return list(pool), []
        return list(pool[: self.max_candidates]), list(pool[self.max_candidates:])

    def to_dict(self) -> dict:
        """JSON-serialisable form (recorded in :class:`TunerResult`)."""
        return {"max_candidates": self.max_candidates}
