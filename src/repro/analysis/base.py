"""Data model of the static verifier: findings, reports, check contexts.

A checker is a plain function ``(CheckContext) -> List[Finding]``.  It never
raises on a bad artifact — it *returns* findings, and the caller decides
what to do with the report (:meth:`VerifyReport.raise_first` raises the
first).  Checkers degrade gracefully: when the context lacks an input a
check needs (no graph, no machine model), that check is skipped rather than
failed, so the same checkers run on a freshly lowered program, a cached
program, and a metadata-only saved model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.errors import AnalysisError

__all__ = ["CheckContext", "Finding", "VerifyReport"]


@dataclass(frozen=True)
class Finding:
    """One invariant violation reported by a checker.

    Attributes:
        code: Stable error code (see :data:`repro.analysis.ERROR_CODES`).
        check: Registry name of the checker that produced the finding.
        message: Human-readable description of the violation.
        task: Offending task name, when one can be named.
        node: Offending graph node or tensor name, when one can be named.
    """

    code: str
    check: str
    message: str
    task: Optional[str] = None
    node: Optional[str] = None

    def __str__(self) -> str:
        where = ""
        if self.task is not None:
            where = f" (task {self.task!r})"
        elif self.node is not None:
            where = f" (node {self.node!r})"
        return f"[{self.code}] {self.check}: {self.message}{where}"


@dataclass
class CheckContext:
    """Everything a checker may inspect for one verification run.

    Only :attr:`program` *or* :attr:`plan` is required; the rest is optional
    context that unlocks deeper checks (a graph enables shard-divisibility
    and memory recomputation, a machine model enables link resolution).

    Attributes:
        program: The lowered program under verification, if any.
        graph: The dataflow graph the program was lowered from, if known.
        machine: The machine/cluster model, if known (falls back to
            ``program.machine``).
        plan: The partition plan, if known (falls back to ``program.plan``).
        executor_config_type: Config class checked for cache-key
            completeness (defaults to ``ExecutorConfig``).
        planner_config_type: Config class checked for cache-key
            completeness (defaults to ``PlannerConfig``).
    """

    program: Optional[object] = None
    graph: Optional[object] = None
    machine: Optional[object] = None
    plan: Optional[object] = None
    executor_config_type: Optional[type] = None
    planner_config_type: Optional[type] = None

    @property
    def resolved_machine(self):
        """The machine model to check against: explicit context first, the
        program's own machine otherwise, ``None`` when neither is known."""
        if self.machine is not None:
            return self.machine
        if self.program is not None:
            return getattr(self.program, "machine", None)
        return None

    @property
    def resolved_plan(self):
        """The partition plan to check: explicit context first, then the
        program's plan, ``None`` when neither is known."""
        if self.plan is not None:
            return self.plan
        if self.program is not None:
            return getattr(self.program, "plan", None)
        return None


@dataclass
class VerifyReport:
    """The outcome of one verification run.

    Attributes:
        findings: Every violation found, in checker order.
        checks_run: Names of the checkers that ran, in order.
    """

    findings: List[Finding] = field(default_factory=list)
    checks_run: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        """True when no checker reported a violation."""
        return not self.findings

    def raise_first(self) -> None:
        """Raise a structured :class:`repro.errors.AnalysisError` for the
        first finding (no-op on a clean report); the error message appends
        how many further findings the report holds."""
        if not self.findings:
            return
        first = self.findings[0]
        extra = len(self.findings) - 1
        suffix = f" (+{extra} more finding(s))" if extra else ""
        raise AnalysisError(
            f"{first}{suffix}",
            code=first.code,
            check=first.check,
            task=first.task,
            node=first.node,
        )

    def summary(self) -> str:
        """One line per finding, headed by a checks/findings count."""
        lines = [
            f"{len(self.checks_run)} check(s) run, "
            f"{len(self.findings)} finding(s)"
        ]
        lines.extend(str(finding) for finding in self.findings)
        return "\n".join(lines)
