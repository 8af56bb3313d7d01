"""Comm validity: every transfer must ride a link the topology has.

A comm task names its endpoints: a destination device, and a source device,
``None`` (a gather from every peer) or the host.  It is valid when it names
a destination, does not transfer to itself, its endpoints are real devices,
and ``link_between(src, dst)`` resolves them on the machine model — i.e.
the transfer crosses an edge the topology actually has.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.analysis.base import CheckContext, Finding
from repro.errors import ReproError
from repro.sim.device import HOST_DEVICE

__all__ = ["check_comm_validity"]

CHECK_NAME = "comm-validity"


def _device_in_range(device: Optional[int], machine) -> bool:
    if device is None or device == HOST_DEVICE:
        return True
    return 0 <= device < machine.num_devices


def check_comm_validity(context: CheckContext) -> List[Finding]:
    """Verify every comm task's endpoints against the machine model.

    Emits ``ANA007_BAD_LINK`` for comm tasks naming no destination device
    and endpoints ``link_between(src, dst)`` cannot resolve;
    ``ANA008_SELF_TRANSFER`` for a device transferring to itself; and
    ``ANA009_DEVICE_RANGE`` for task devices or endpoints outside the
    machine model.  Ranges and links need a machine model (from the context
    or the program itself); without one only the endpoints' shape is
    checked.  Returns no findings when the context carries no program.
    """
    program = context.program
    if program is None:
        return []
    machine = context.resolved_machine
    findings: List[Finding] = []
    # link_between's error for each distinct (src, dst) pair, None when it
    # resolves: a pair is resolved once, however many tasks cross it.
    link_errors: Dict[Tuple[Optional[int], int], Optional[ReproError]] = {}

    def finding(code: str, name: str, message: str) -> None:
        findings.append(
            Finding(code=code, check=CHECK_NAME, message=message, task=name)
        )

    # Only devices and endpoints matter here: read the rows, not the tasks
    # (whose dependency names a read would rebuild).
    for name, device, kind, _, _, _, _, src, dst in program.task_graph.rows:
        if machine is not None and not _device_in_range(device, machine):
            finding(
                "ANA009_DEVICE_RANGE", name,
                f"task {name!r} runs on device {device}, outside a "
                f"topology with {machine.num_devices} device(s)",
            )
        if kind != "comm":
            continue
        if dst is None:
            finding(
                "ANA007_BAD_LINK", name,
                f"comm task {name!r} names no destination device",
            )
        elif src == dst:
            finding(
                "ANA008_SELF_TRANSFER", name,
                f"comm task {name!r} transfers from device {src} to itself",
            )
        elif machine is None:
            continue
        elif not (
            _device_in_range(src, machine) and _device_in_range(dst, machine)
        ):
            finding(
                "ANA009_DEVICE_RANGE", name,
                f"comm task {name!r} endpoints {src}->{dst} are outside a "
                f"topology with {machine.num_devices} device(s)",
            )
        else:
            if (src, dst) not in link_errors:
                try:
                    machine.link_between(src, dst)
                    link_errors[src, dst] = None
                except ReproError as exc:
                    link_errors[src, dst] = exc
            error = link_errors[src, dst]
            if error is not None:
                finding(
                    "ANA007_BAD_LINK", name,
                    f"comm task {name!r}: the topology cannot resolve a "
                    f"{src}->{dst} link ({error})",
                )
    return findings
