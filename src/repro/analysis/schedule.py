"""Schedule soundness: task orderings must admit an execution.

Two halves.  Over any program: the union of data deps and ``after``
control edges must be acyclic and reference only tasks that exist.  Over a
micro-batch pipelined program: each stage's slot order must run every
``(phase, micro-batch)`` slot exactly once, and the composed ordering —
per-stage slot order plus the cross-stage micro-batch data dependencies —
must be deadlock-free (GPipe and 1F1B both are; a corrupted slot order that
runs a backward before its forward is not).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Tuple

from repro.analysis.base import CheckContext, Finding
from repro.errors import SimulationError

__all__ = ["check_schedule_soundness"]

CHECK_NAME = "schedule-soundness"


def _kahn_cycle(edges: Dict[object, List[object]]) -> List[object]:
    """Nodes left unordered by Kahn's algorithm (members of / downstream of
    a cycle); empty for a DAG.  ``edges[n]`` lists nodes that must run
    before ``n``."""
    indegree = {node: 0 for node in edges}
    dependents: Dict[object, List[object]] = {node: [] for node in edges}
    for node, preds in edges.items():
        for pred in preds:
            if pred in indegree:
                indegree[node] += 1
                dependents[pred].append(node)
    queue = deque(node for node, degree in indegree.items() if degree == 0)
    ordered = 0
    while queue:
        node = queue.popleft()
        ordered += 1
        for dependent in dependents[node]:
            indegree[dependent] -= 1
            if indegree[dependent] == 0:
                queue.append(dependent)
    if ordered == len(edges):
        return []
    return [node for node, degree in indegree.items() if degree > 0]


def _check_task_graph(program) -> List[Finding]:
    try:
        # The dense form's (cached) sort fails exactly when a dependency
        # dangles or the edges cycle; only then are names worth walking.
        program.task_graph.sort()
        return []
    except SimulationError:
        pass
    findings: List[Finding] = []
    tasks = program.tasks
    edges: Dict[object, List[object]] = {}
    for name, task in tasks.items():
        preds: List[object] = []
        for dep in task.ordering_deps():
            if dep not in tasks:
                findings.append(
                    Finding(
                        code="ANA004_DANGLING_DEP",
                        check=CHECK_NAME,
                        message=(
                            f"task {name!r} is ordered after {dep!r}, which "
                            f"is not in the program"
                        ),
                        task=name,
                    )
                )
            else:
                preds.append(dep)
        edges[name] = preds
    stuck = _kahn_cycle(edges)
    if stuck:
        sample = sorted(str(node) for node in stuck)[:5]
        findings.append(
            Finding(
                code="ANA003_CYCLIC_SCHEDULE",
                check=CHECK_NAME,
                message=(
                    f"deps + after edges contain a cycle; {len(stuck)} "
                    f"task(s) cannot be ordered (e.g. {', '.join(sample)})"
                ),
                task=sample[0] if sample else None,
            )
        )
    return findings


def _check_pipeline_schedule(program) -> List[Finding]:
    schedule = program.schedule
    findings: List[Finding] = []
    num_stages = schedule.num_stages
    num_microbatches = schedule.num_microbatches
    if len(schedule.slots_of_stage) != num_stages:
        findings.append(
            Finding(
                code="ANA005_SLOT_MULTIPLICITY",
                check=CHECK_NAME,
                message=(
                    f"schedule declares {num_stages} stage(s) but carries "
                    f"slot orders for {len(schedule.slots_of_stage)}"
                ),
            )
        )
        return findings

    expected = {
        (phase, m)
        for phase in ("fwd", "bwd")
        for m in range(num_microbatches)
    }
    for stage, slots in enumerate(schedule.slots_of_stage):
        seen: Dict[Tuple[str, int], int] = {}
        for slot in slots:
            seen[tuple(slot)] = seen.get(tuple(slot), 0) + 1
        duplicated = sorted(s for s, count in seen.items() if count > 1)
        missing = sorted(expected - set(seen))
        spurious = sorted(set(seen) - expected)
        for kind, slots_bad in (
            ("runs", duplicated),
            ("misses", missing),
            ("includes unknown", spurious),
        ):
            if slots_bad:
                findings.append(
                    Finding(
                        code="ANA005_SLOT_MULTIPLICITY",
                        check=CHECK_NAME,
                        message=(
                            f"stage {stage} {kind} slot(s) "
                            f"{slots_bad[:4]}: every (phase, micro-batch) "
                            f"must be scheduled exactly once"
                        ),
                    )
                )
    if findings:
        return findings

    # Deadlock-freedom: per-stage slot order composed with the micro-batch
    # data dependencies (fwd flows down the stages, bwd flows back up, a
    # stage's bwd needs its own fwd's stashed activations).
    edges: Dict[Tuple[int, str, int], List[Tuple[int, str, int]]] = {}
    for stage, slots in enumerate(schedule.slots_of_stage):
        previous = None
        for phase, m in slots:
            key = (stage, phase, m)
            preds = edges.setdefault(key, [])
            if previous is not None:
                preds.append(previous)
            if phase == "fwd" and stage > 0:
                preds.append((stage - 1, "fwd", m))
            if phase == "bwd":
                preds.append((stage, "fwd", m))
                if stage < num_stages - 1:
                    preds.append((stage + 1, "bwd", m))
            previous = key
    stuck = _kahn_cycle(edges)
    if stuck:
        sample = sorted(stuck)[:3]
        findings.append(
            Finding(
                code="ANA006_SCHEDULE_DEADLOCK",
                check=CHECK_NAME,
                message=(
                    f"the slot order conflicts with micro-batch data "
                    f"dependencies: {len(stuck)} slot(s) can never run "
                    f"(e.g. {sample})"
                ),
            )
        )
    return findings


def check_schedule_soundness(context: CheckContext) -> List[Finding]:
    """Verify the program's task ordering admits an execution.

    Emits ``ANA004_DANGLING_DEP`` for deps/``after`` edges naming unknown
    tasks, ``ANA003_CYCLIC_SCHEDULE`` when the ordering edges contain a
    cycle, ``ANA005_SLOT_MULTIPLICITY`` when a pipeline stage's slot order
    does not run every (phase, micro-batch) exactly once, and
    ``ANA006_SCHEDULE_DEADLOCK`` when the slot order conflicts with the
    micro-batch data dependencies.  Returns no findings when the context
    carries no program.
    """
    program = context.program
    if program is None:
        return []
    findings = _check_task_graph(program)
    if getattr(program, "schedule", None) is not None:
        findings.extend(_check_pipeline_schedule(program))
    return findings
