"""Candidate generation over the strategy algebra.

The grid is one fixed set per machine: machine scopes × replica groups ×
pipeline stage counts × the micro-batch counts :data:`MICROBATCHES` × the
schedules :data:`repro.strategy.PIPELINE_SCHEDULES`, all over the default
``tofu`` search.  It relies on the tuner's staged screening plus a
:class:`repro.tuner.TunerBudget` to keep the sweep affordable; to sweep
other axes (or ``tofu:<backend>`` variants), pass an explicit candidate list
to :meth:`repro.tuner.Tuner.tune`.

The grid is *heterogeneity-aware*: generation reads the per-machine device
counts and aggregate speeds from the :class:`repro.sim.device.ClusterSpec`
(:func:`machine_compute_profile`) and orders replica-group counts so groups
that align with machine boundaries — every all-reduce ring stays inside one
box — come before counts whose groups straddle boxes
(:func:`aligned_replica_groups`).  On an asymmetric cluster that ordering is
what survives a truncating candidate budget; the stage-cut DP downstream is
already topology-aware, so exposing more stage/schedule/micro-batch
combinations is how the tuner exploits unequal boxes.

Order is fully deterministic: promising-first (``tofu()`` and ``single()``
always lead, so a budget of 1 still reproduces the paper's own strategy),
dedup by canonical string.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.sim.device import Topology
from repro.strategy.algebra import (
    PIPELINE_SCHEDULES,
    Strategy,
    dp,
    machines,
    pipeline,
    single,
    tofu,
)

__all__ = [
    "aligned_replica_groups",
    "machine_compute_profile",
    "tuner_candidates",
]

MICROBATCHES: Tuple[int, ...] = (2, 4, 8)


def _divisors(value: int) -> List[int]:
    return [d for d in range(1, value + 1) if value % d == 0]


def machine_compute_profile(machine: Topology) -> List[Tuple[int, float]]:
    """Per-machine ``(device_count, aggregate_peak_flops)`` of a topology.

    The tuner's generation order consults this profile: unequal device
    counts drive the boundary-aligned replica-group ordering, and unequal
    aggregate speeds mark the cluster as asymmetric (recorded in tuner
    stats so a frontier over an odd cluster is self-describing).
    """
    return [
        (box.num_devices, sum(device.peak_flops for device in box.devices))
        for box in machine.machines
    ]


def aligned_replica_groups(machine: Topology) -> List[int]:
    """Replica-group counts whose groups never straddle a machine boundary.

    A group count ``G`` over ``D`` devices makes contiguous groups of
    ``D / G`` devices; the count is *aligned* when every machine's device
    count is a multiple of that group size, so each all-reduce ring stays
    inside one box and pays no inter-machine hops.  On a single machine
    every divisor is aligned.
    """
    profile = machine_compute_profile(machine)
    devices = machine.num_devices
    aligned = []
    for groups in _divisors(devices):
        group_size = devices // groups
        if all(count % group_size == 0 for count, _ in profile):
            aligned.append(groups)
    return aligned


def tuner_candidates(machine: Topology) -> List[Strategy]:
    """The candidate grid for ``machine``, promising-first.

    ``tofu()`` and ``single()`` always lead (so any candidate budget keeps
    the paper's own strategy in the sweep), followed by machine-count scopes
    on a cluster, replica-group counts (boundary-aligned counts first — see
    :func:`aligned_replica_groups`), and the pipeline grid over stage counts
    × :data:`~repro.strategy.PIPELINE_SCHEDULES` × :data:`MICROBATCHES`,
    alone and under each replica-group count.

    The grid is *not* bounded here; pass the result through a
    :class:`repro.tuner.TunerBudget` (what :meth:`repro.tuner.Tuner.tune`
    does) to cap it.
    """
    devices = machine.num_devices
    candidates: List[Strategy] = [tofu(), single()]

    if machine.num_machines > 1:
        for count in range(machine.num_machines, 1, -1):
            candidates.append(machines(count) / tofu())
            candidates.append(machines(count) / dp(count) / tofu())
            for schedule in PIPELINE_SCHEDULES:
                for micro in MICROBATCHES:
                    candidates.append(
                        machines(count)
                        / pipeline(count, schedule, micro)
                        / tofu()
                    )

    aligned = set(aligned_replica_groups(machine))
    group_counts = [g for g in _divisors(devices) if g > 1]
    # Aligned counts first (stable within each class) — on a symmetric
    # machine this is a no-op, on an asymmetric cluster it keeps the
    # no-straddle replica layouts ahead of any truncating budget.
    group_counts.sort(key=lambda g: (g not in aligned, g))
    for groups in group_counts:
        candidates.append(dp(groups) / tofu())

    stage_counts = [s for s in _divisors(devices) if s > 1]
    if 1 < machine.num_machines <= devices and machine.num_machines not in stage_counts:
        # An asymmetric cluster's device total need not divide evenly; one
        # stage per machine is still a natural cut.
        stage_counts.append(machine.num_machines)
        stage_counts.sort()
    for stages in stage_counts:
        for schedule in PIPELINE_SCHEDULES:
            for micro in MICROBATCHES:
                candidates.append(pipeline(stages, schedule, micro))

    for groups in group_counts:
        if groups == devices:
            continue
        for stages in _divisors(devices // groups):
            if stages <= 1:
                continue
            for schedule in PIPELINE_SCHEDULES:
                for micro in MICROBATCHES:
                    candidates.append(
                        dp(groups) / pipeline(stages, schedule, micro) / tofu()
                    )

    seen = set()
    unique: List[Strategy] = []
    for candidate in candidates:
        key = str(candidate)
        if key not in seen:
            seen.add(key)
            unique.append(candidate)
    return unique
