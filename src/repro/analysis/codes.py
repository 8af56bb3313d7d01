"""The stable error-code catalogue of the static verifier.

Every finding a checker can produce carries exactly one code from this
table.  Codes are stable identifiers — greppable in logs, referenced from
``docs/verifier.md``, and asserted by the seeded-mutation tests — so they
are never renumbered or reused; retired codes are removed, new checks get
new numbers.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["ERROR_CODES", "describe_code"]

#: code -> one-line description, mirrored in docs/verifier.md.
ERROR_CODES: Dict[str, str] = {
    "ANA000_ANALYSIS": "generic analysis failure (driver errors)",
    "ANA001_SHARD_TILING": (
        "a partition step splits a tensor dimension that is out of range "
        "(the split drops — a gap) or into more parts than the dimension "
        "has elements (whole shards of overlap)"
    ),
    "ANA002_WORKER_MISMATCH": (
        "the product of the plan's per-step parts does not equal the plan's "
        "declared worker count"
    ),
    "ANA003_CYCLIC_SCHEDULE": (
        "the task graph's deps + after edges contain a cycle, so no "
        "execution order exists"
    ),
    "ANA004_DANGLING_DEP": "a dependency that is not a task of the program",
    "ANA005_SLOT_MULTIPLICITY": (
        "a pipeline stage's slot order does not run every (phase, "
        "micro-batch) slot exactly once"
    ),
    "ANA006_SCHEDULE_DEADLOCK": (
        "the pipeline slot order conflicts with micro-batch data "
        "dependencies — the schedule deadlocks"
    ),
    "ANA007_BAD_LINK": (
        "a comm task names no destination device, or endpoints the "
        "topology's link_between cannot resolve"
    ),
    "ANA008_SELF_TRANSFER": (
        "a comm task's source and destination endpoints are the same device"
    ),
    "ANA009_DEVICE_RANGE": (
        "a task or memory-report entry names a device index outside the "
        "machine model"
    ),
    "ANA010_MEMORY_COVERAGE": (
        "the per-device memory report misses a device that runs compute "
        "tasks, or carries a negative budget"
    ),
    "ANA011_MEMORY_MISMATCH": (
        "the declared per-device/per-stage peak memory is not reproducible "
        "from the program's graph and plan"
    ),
    "ANA012_CACHE_KEY_FIELD": (
        "an ExecutorConfig/PlannerConfig field is neither covered by the "
        "cache key nor declared non-semantic"
    ),
    "ANA014_UNKNOWN_ARTIFACT": (
        "tofu-repro verify's argument is not a saved-model file"
    ),
}


def describe_code(code: str) -> str:
    """One-line description of a verifier error code (empty when unknown)."""
    return ERROR_CODES.get(code, "")
