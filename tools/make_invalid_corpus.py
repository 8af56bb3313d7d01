#!/usr/bin/env python
"""Regenerate the seeded-mutation corpus under ``tests/data/invalid/``.

Each corpus file is one healthy compiler artifact with exactly one seeded
invariant violation, plus the metadata the test suite needs to drive the
static verifier at it:

* ``kind`` — ``"program"`` (a ``program_to_dict`` payload), ``"plan"`` (a
  ``plan_to_dict`` payload with the graph it partitions), or ``"config"``
  (a descriptor for the cache-key checker's config-class override);
* ``checker`` — the registry name of the checker expected to fire;
* ``expect_code`` — the stable error code the checker must report
  (``null`` for the two healthy control artifacts, which must verify
  clean).

The generator is deterministic — same library version, same bytes — so the
corpus can be regenerated after an artifact-format change with::

    PYTHONPATH=src python tools/make_invalid_corpus.py

``tests/analysis/test_checkers.py`` replays every file and asserts the
expected code (and only healthy artifacts verify clean), pinning each
checker to a concrete violation it must keep catching.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.graph.serialization import graph_to_dict  # noqa: E402
from repro.models.mlp import build_mlp  # noqa: E402
from repro.models.rnn import build_rnn  # noqa: E402
from repro.partition.plan import (  # noqa: E402
    PartitionPlan,
    StepAssignment,
    plan_to_dict,
)
from repro.planner import Planner, PlannerConfig  # noqa: E402
from repro.runtime import Executor, ExecutorConfig  # noqa: E402
from repro.runtime.program import program_to_dict  # noqa: E402
from repro.sim.device import k80_8gpu_machine  # noqa: E402

OUT_DIR = REPO_ROOT / "tests" / "data" / "invalid"


def _pipeline_payload():
    """A healthy 2-stage 1f1b RNN pipeline program, as its JSON payload."""
    bundle = build_rnn(num_layers=2, hidden_size=32, seq_len=2, batch_size=4)
    machine = k80_8gpu_machine(4)
    executor = Executor(ExecutorConfig(cache_programs=False))
    program = executor.lower(
        bundle.graph,
        machine=machine,
        backend="pipeline",
        backend_options={
            "num_stages": 2,
            "num_microbatches": 2,
            "schedule": "1f1b",
        },
    )
    return program_to_dict(program)


def _tofu_artifacts():
    """A healthy tofu-partitioned MLP: (graph dict, plan dict, program dict)."""
    bundle = build_mlp(
        batch_size=16, input_dim=32, hidden_dim=32, num_layers=2,
        num_classes=8,
    )
    machine = k80_8gpu_machine(4)
    plan = Planner(PlannerConfig()).plan(bundle.graph, 4, machine=machine)
    # The search's wall-clock time would make every regeneration rewrite
    # the tofu-derived files; pin it so the corpus is byte-deterministic.
    # The planner's plan is cached, so read-only: pin it on a copy.
    plan = dataclasses.replace(plan, search_time_seconds=0.0)
    executor = Executor(ExecutorConfig(cache_programs=False))
    program = executor.lower(
        bundle.graph, plan=plan, machine=machine, backend="tofu-partitioned"
    )
    return graph_to_dict(bundle.graph), plan_to_dict(plan), program_to_dict(
        program)


def _compute_tasks(payload):
    return [t for t in payload["tasks"] if t["kind"] == "compute"]


def _device_copies(payload):
    """Comm tasks sent by one device to another."""
    return [
        t for t in payload["tasks"]
        if t["kind"] == "comm" and t["src_device"] is not None
    ]


def build_corpus():
    """All corpus entries as ``name -> entry`` (entry is JSON-ready)."""
    pipeline = _pipeline_payload()
    graph_dict, plan_dict, tofu = _tofu_artifacts()
    entries = {}

    def program_entry(name, description, checker, code, payload):
        entries[name] = {
            "name": name,
            "description": description,
            "kind": "program",
            "checker": checker,
            "expect_code": code,
            "program": payload,
        }

    def plan_entry(name, description, checker, code, plan_payload, graph_payload):
        entries[name] = {
            "name": name,
            "description": description,
            "kind": "plan",
            "checker": checker,
            "expect_code": code,
            "plan": plan_payload,
            "graph": graph_payload,
        }

    # ------------------------------------------------------ healthy controls
    program_entry(
        "healthy_pipeline", "unmutated 2-stage 1f1b RNN pipeline program",
        None, None, pipeline)
    program_entry(
        "healthy_tofu", "unmutated 4-worker tofu-partitioned MLP program",
        None, None, tofu)

    # -------------------------------------------------------------- shards
    # Overlap: a hand-built plan splitting a batch-2 dimension 4 ways (the
    # per-step parts still multiply to num_workers, isolating ANA001).
    tiny = build_mlp(
        batch_size=2, input_dim=32, hidden_dim=32, num_layers=2,
        num_classes=8,
    )
    victim = next(
        name for name, spec in sorted(tiny.graph.tensors.items())
        if tuple(spec.shape)[:1] == (2,)
    )
    step = StepAssignment(
        parts=2, tensor_dims={victim: 0}, op_strategies={},
        comm_bytes=0.0, weighted_bytes=0.0,
    )
    overlap_plan = PartitionPlan(num_workers=4, steps=[step, copy.deepcopy(step)])
    plan_entry(
        "overlapping_shards",
        f"tensor {victim!r} of extent 2 split 4 ways: shards overlap",
        "shard-conservation", "ANA001_SHARD_TILING",
        plan_to_dict(overlap_plan), graph_to_dict(tiny.graph))

    gap_plan = copy.deepcopy(plan_dict)
    gap_tensor = sorted(gap_plan["steps"][0]["tensor_dims"])[0]
    gap_plan["steps"][0]["tensor_dims"][gap_tensor] = 9
    plan_entry(
        "shard_dim_gap",
        f"tensor {gap_tensor!r} split along out-of-range dimension 9",
        "shard-conservation", "ANA001_SHARD_TILING", gap_plan, graph_dict)

    mismatch_plan = copy.deepcopy(plan_dict)
    mismatch_plan["num_workers"] += 1
    plan_entry(
        "worker_mismatch",
        "plan declares one more worker than its steps multiply to",
        "shard-conservation", "ANA002_WORKER_MISMATCH", mismatch_plan,
        graph_dict)

    # ------------------------------------------------------------ schedule
    cyclic = copy.deepcopy(pipeline)
    first, second = _compute_tasks(cyclic)[:2]
    first["after"] = list(first["after"]) + [second["name"]]
    second["after"] = list(second["after"]) + [first["name"]]
    program_entry(
        "cyclic_after",
        "two compute tasks ordered after each other: a scheduling cycle",
        "schedule-soundness", "ANA003_CYCLIC_SCHEDULE", cyclic)

    dangling = copy.deepcopy(pipeline)
    _compute_tasks(dangling)[0]["deps"] = list(
        _compute_tasks(dangling)[0]["deps"]) + ["no-such-task"]
    program_entry(
        "dangling_dep",
        "a task depends on a name no task in the program carries",
        "schedule-soundness", "ANA004_DANGLING_DEP", dangling)

    duplicate = copy.deepcopy(pipeline)
    slots = duplicate["schedule"]["slots_of_stage"][0]
    slots[1] = list(slots[0])
    program_entry(
        "duplicate_slot",
        "stage 0 schedules one (phase, microbatch) slot twice and drops "
        "another",
        "schedule-soundness", "ANA005_SLOT_MULTIPLICITY", duplicate)

    deadlock = copy.deepcopy(pipeline)
    deadlock["schedule"]["slots_of_stage"][0] = list(
        reversed(deadlock["schedule"]["slots_of_stage"][0]))
    program_entry(
        "deadlock_schedule",
        "stage 0's slot order reversed: every backward waits for a forward "
        "scheduled after it",
        "schedule-soundness", "ANA006_SCHEDULE_DEADLOCK", deadlock)

    # ---------------------------------------------------------------- comm
    bad_link = copy.deepcopy(pipeline)
    _device_copies(bad_link)[0]["dst_device"] = None
    program_entry(
        "bad_link",
        "a comm task names no destination device, so no link resolves",
        "comm-validity", "ANA007_BAD_LINK", bad_link)

    selft = copy.deepcopy(pipeline)
    victim_comm = _device_copies(selft)[0]
    victim_comm["dst_device"] = victim_comm["src_device"]
    program_entry(
        "self_transfer",
        "a comm task whose source and destination device coincide",
        "comm-validity", "ANA008_SELF_TRANSFER", selft)

    out_of_range = copy.deepcopy(pipeline)
    out_of_range["tasks"][0]["device"] = 99
    program_entry(
        "device_range",
        "a task placed on device 99 of a 4-device machine",
        "comm-validity", "ANA009_DEVICE_RANGE", out_of_range)

    # -------------------------------------------------------------- memory
    coverage = copy.deepcopy(pipeline)
    coverage["check_memory"] = True
    dropped = sorted(coverage["per_device_memory"])[0]
    del coverage["per_device_memory"][dropped]
    program_entry(
        "memory_coverage",
        f"the memory report forgets compute device {dropped}",
        "memory-plan", "ANA010_MEMORY_COVERAGE", coverage)

    drift = copy.deepcopy(tofu)
    drift["per_device_memory"] = {
        device: required + 9999
        for device, required in drift["per_device_memory"].items()
    }
    program_entry(
        "memory_mismatch",
        "declared per-device peaks no longer reproducible from the sharded "
        "graph's liveness intervals",
        "memory-plan", "ANA011_MEMORY_MISMATCH", drift)

    # ----------------------------------------------------------- cache key
    entries["stale_cache_key"] = {
        "name": "stale_cache_key",
        "description": "an ExecutorConfig field neither in the cache key "
        "nor declared non-semantic",
        "kind": "config",
        "checker": "cache-key",
        "expect_code": "ANA012_CACHE_KEY_FIELD",
        "extra_field": "mystery_knob",
    }
    return entries


def main() -> int:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    entries = build_corpus()
    for name, entry in sorted(entries.items()):
        path = OUT_DIR / f"{name}.json"
        path.write_text(
            json.dumps(entry, sort_keys=True, separators=(",", ":")) + "\n",
            encoding="utf-8",
        )
        print(f"wrote {path.relative_to(REPO_ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
