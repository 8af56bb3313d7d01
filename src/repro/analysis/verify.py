"""The verification driver: run checkers and report.

:func:`verify_program` runs the registered checkers over one lowered
program (plus whatever context is available) and returns a
:class:`~repro.analysis.base.VerifyReport`; callers raise its first finding
with :meth:`~repro.analysis.base.VerifyReport.raise_first`.
:func:`verify_model` covers the CLI's artifact: a ``CompiledModel``, which
after a ``load()`` carries the plan and metadata but no task graph.

Built-in checkers register here at import time, mirroring how
``repro.runtime.backends`` registers its built-in execution backends.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.analysis.base import CheckContext, Finding, VerifyReport
from repro.analysis.cachekey import check_cache_key_completeness
from repro.analysis.comm import check_comm_validity
from repro.analysis.memory import check_memory_plan
from repro.analysis.registry import (
    CheckerSpec,
    available_checkers,
    get_checker_spec,
    register_checker,
)
from repro.analysis.schedule import check_schedule_soundness
from repro.analysis.shards import check_shard_conservation
from repro.graph.memo import memo_suspended

__all__ = ["verify_model", "verify_program"]


def _run_checkers(
    context: CheckContext, checkers: Optional[Sequence[str]]
) -> VerifyReport:
    names = list(checkers) if checkers is not None else available_checkers()
    findings: List[Finding] = []
    # Checks re-derive what lowering computed, never read it back from the
    # compile memo, also when verification runs inside a compile.
    with memo_suspended():
        for name in names:
            spec = get_checker_spec(name)
            findings.extend(spec.check(context))
    return VerifyReport(findings=findings, checks_run=tuple(names))


def verify_program(
    program,
    *,
    graph=None,
    machine=None,
    plan=None,
    checkers: Optional[Sequence[str]] = None,
) -> VerifyReport:
    """Statically verify one lowered program.

    Args:
        program: The :class:`repro.runtime.LoweredProgram` to check.
        graph: The dataflow graph it was lowered from, when available —
            unlocks shard-divisibility and memory recomputation checks.
        machine: The machine model, when available (defaults to the
            program's own).
        plan: The partition plan, when available (defaults to the
            program's own).
        checkers: Checker names to run, in order; every registered checker
            by default.

    Returns:
        A :class:`~repro.analysis.base.VerifyReport`; inspect
        ``report.findings`` or call ``report.raise_first()``.
    """
    context = CheckContext(
        program=program, graph=graph, machine=machine, plan=plan
    )
    return _run_checkers(context, checkers)


def verify_model(model, *, checkers: Optional[Sequence[str]] = None) -> VerifyReport:
    """Statically verify a ``CompiledModel`` (fresh or reloaded).

    A model straight out of ``repro.compile`` still holds its lowered
    program and gets the full program checks; a model reloaded from disk
    carries the plan and program *metadata* only, so the checkers degrade
    to plan/machine-level checks, plus a metadata device-range sweep of the
    saved ``per_device_memory`` report.
    """
    if model.program is not None:
        report = _run_checkers(
            CheckContext(
                program=model.program,
                machine=model.machine,
                plan=model.plan,
            ),
            checkers,
        )
    else:
        report = _run_checkers(
            CheckContext(plan=model.plan, machine=model.machine), checkers
        )
        report.findings.extend(_check_metadata_memory(model))
    return report


def _check_metadata_memory(model) -> List[Finding]:
    """Device-range findings over a metadata-only model's saved report."""
    findings: List[Finding] = []
    machine = model.machine
    memory = model.metadata.get("per_device_memory")
    if machine is None or not isinstance(memory, dict):
        return findings
    for raw_device, budget in memory.items():
        try:
            device = int(raw_device)
        except (TypeError, ValueError):
            device = None
        if device is None or not 0 <= device < machine.num_devices:
            findings.append(
                Finding(
                    code="ANA009_DEVICE_RANGE",
                    check="memory-plan",
                    message=(
                        f"the saved memory report budgets device "
                        f"{raw_device!r}, outside a topology with "
                        f"{machine.num_devices} device(s)"
                    ),
                )
            )
        elif not isinstance(budget, (int, float)) or budget < 0:
            findings.append(
                Finding(
                    code="ANA010_MEMORY_COVERAGE",
                    check="memory-plan",
                    message=(
                        f"the saved memory report budgets device "
                        f"{raw_device!r} with {budget!r} bytes"
                    ),
                )
            )
    return findings


# ---------------------------------------------------------------- built-ins
register_checker(
    CheckerSpec(
        name="shard-conservation",
        check=check_shard_conservation,
        description="partition shards tile every tensor exactly "
        "(no overlap/gap, parts multiply to the worker count)",
        codes=("ANA001_SHARD_TILING", "ANA002_WORKER_MISMATCH"),
    )
)
register_checker(
    CheckerSpec(
        name="schedule-soundness",
        check=check_schedule_soundness,
        description="deps + after edges are acyclic and resolvable; "
        "pipeline slot orders are complete and deadlock-free",
        codes=(
            "ANA003_CYCLIC_SCHEDULE",
            "ANA004_DANGLING_DEP",
            "ANA005_SLOT_MULTIPLICITY",
            "ANA006_SCHEDULE_DEADLOCK",
        ),
    )
)
register_checker(
    CheckerSpec(
        name="comm-validity",
        check=check_comm_validity,
        description="comm tasks ride links the topology resolves, "
        "between real devices, never to themselves",
        codes=(
            "ANA007_BAD_LINK",
            "ANA008_SELF_TRANSFER",
            "ANA009_DEVICE_RANGE",
        ),
    )
)
register_checker(
    CheckerSpec(
        name="memory-plan",
        check=check_memory_plan,
        description="memory reports cover every compute device and are "
        "reproducible from liveness intervals",
        codes=(
            "ANA009_DEVICE_RANGE",
            "ANA010_MEMORY_COVERAGE",
            "ANA011_MEMORY_MISMATCH",
        ),
    )
)
register_checker(
    CheckerSpec(
        name="cache-key",
        check=check_cache_key_completeness,
        description="every ExecutorConfig/PlannerConfig field is cache-key "
        "covered or declared non-semantic",
        codes=("ANA012_CACHE_KEY_FIELD",),
    )
)
