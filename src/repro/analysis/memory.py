"""Memory-plan soundness: the declared budgets must be reproducible.

The memory report is the contract between lowering and simulation: the
simulator verdicts OOM from ``per_device_memory`` without replaying
liveness.  This checker re-derives the report from the program's own
artifacts — the liveness-interval memory plan of the sharded graph plus the
comm staging buffer for ``tofu-partitioned`` programs, the per-stage
liveness report for ``pipeline`` programs — and flags a report the
artifacts cannot explain, along with coverage holes (compute devices with
no declared budget) and nonsense budgets (negative bytes, unknown
devices).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.analysis.base import CheckContext, Finding
from repro.partition.apply import FUSED_STAGING_FACTOR, UNFUSED_STAGING_FACTOR
from repro.runtime.passes import memory_plan_of, stage_memory_report

__all__ = ["check_memory_plan"]

CHECK_NAME = "memory-plan"

def _partitioned_candidates(program) -> List[Dict[int, int]]:
    """Every memory report generate_partitioned_graph could have produced
    for this program's sharded graph (fused x reuse lowering variants)."""
    num_devices = program.num_devices
    fetch = program.fetch_bytes_per_node
    reduce_ = program.reduce_bytes_per_node
    max_fetch_per_device = (
        max((fetch[n] + reduce_.get(n, 0.0)) / num_devices for n in fetch)
        if fetch
        else 0.0
    )
    candidates = []
    for allow_reuse in (True, False):
        peak = memory_plan_of(
            program.sharded_graph, allow_reuse=allow_reuse
        ).peak_bytes
        for staging in (FUSED_STAGING_FACTOR, UNFUSED_STAGING_FACTOR):
            buffer_bytes = int(staging * max_fetch_per_device)
            candidates.append(
                {d: peak + buffer_bytes for d in range(num_devices)}
            )
    return candidates


def _check_partitioned(program) -> List[Finding]:
    candidates = _partitioned_candidates(program)
    if program.per_device_memory not in candidates:
        return [
            Finding(
                code="ANA011_MEMORY_MISMATCH",
                check=CHECK_NAME,
                message=(
                    f"declared per-device peak {program.per_device_peak_bytes} "
                    f"bytes is not reproducible from the sharded graph's "
                    f"liveness plan (candidate peaks: "
                    f"{sorted({max(c.values(), default=0) for c in candidates})})"
                ),
            )
        ]
    return []


def _stage_devices_of(program) -> Optional[Dict[int, int]]:
    """stage -> device, recovered from the program's own task placement."""
    stage_of_node = program.stage_of_node
    devices: Dict[int, int] = {}
    for node, stage in stage_of_node.items():
        task = program.tasks.get(f"{node}#mb0") or program.tasks.get(node)
        if task is None:
            return None
        existing = devices.get(stage)
        if existing is not None and existing != task.device:
            return None
        devices[stage] = task.device
    return devices


def _check_pipeline(program, graph) -> List[Finding]:
    schedule = program.schedule
    stage_devices = _stage_devices_of(program)
    if stage_devices is None:
        return []
    report = stage_memory_report(
        graph,
        program.stage_of_node,
        schedule.num_stages,
        num_microbatches=program.num_microbatches,
        schedule=schedule,
    )
    expected = {
        stage_devices[stage]: report[stage]
        for stage in range(schedule.num_stages)
        if stage in stage_devices
    }
    if expected != dict(program.per_device_memory):
        return [
            Finding(
                code="ANA011_MEMORY_MISMATCH",
                check=CHECK_NAME,
                message=(
                    f"declared per-stage peaks {dict(program.per_device_memory)} "
                    f"differ from the report recomputed from the graph's "
                    f"liveness intervals {expected}"
                ),
            )
        ]
    return []


def check_memory_plan(context: CheckContext) -> List[Finding]:
    """Verify the program's memory report is consistent and reproducible.

    Emits ``ANA010_MEMORY_COVERAGE`` for negative budgets and for compute
    devices with no declared budget (when the program opts into memory
    checking), ``ANA009_DEVICE_RANGE`` for report entries naming devices
    outside the machine model, and ``ANA011_MEMORY_MISMATCH`` when the
    declared peaks cannot be re-derived from the program's own sharded
    graph (``tofu-partitioned``) or the graph's per-stage liveness report
    (``pipeline``; needs the graph in the context).  Returns no findings
    when the context carries no program.
    """
    program = context.program
    if program is None:
        return []
    findings: List[Finding] = []
    memory = program.per_device_memory

    for device, budget in memory.items():
        if budget < 0:
            findings.append(
                Finding(
                    code="ANA010_MEMORY_COVERAGE",
                    check=CHECK_NAME,
                    message=(
                        f"device {device} declares a negative memory budget "
                        f"({budget} bytes)"
                    ),
                )
            )
    machine = context.resolved_machine
    if machine is not None:
        for device in memory:
            if not 0 <= device < machine.num_devices:
                findings.append(
                    Finding(
                        code="ANA009_DEVICE_RANGE",
                        check=CHECK_NAME,
                        message=(
                            f"the memory report budgets device {device}, "
                            f"outside a topology with "
                            f"{machine.num_devices} device(s)"
                        ),
                    )
                )

    if program.check_memory:
        compute_devices = {
            device
            for _, device, kind, *_ in program.task_graph.rows
            if kind == "compute"
        }
        for device in sorted(compute_devices - set(memory)):
            findings.append(
                Finding(
                    code="ANA010_MEMORY_COVERAGE",
                    check=CHECK_NAME,
                    message=(
                        f"device {device} runs compute tasks but the memory "
                        f"report declares no budget for it"
                    ),
                )
            )

    if program.sharded_graph is not None:
        findings.extend(_check_partitioned(program))
    elif (
        program.backend == "pipeline"
        and context.graph is not None
        and program.schedule is not None
        and program.stage_of_node
    ):
        findings.extend(_check_pipeline(program, context.graph))
    return findings
