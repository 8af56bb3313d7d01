"""Profiling layer: stage timers thread through compile/lower/simulate, and
a fully warm ``repro.compile`` skips every planning and lowering pass.

The warm-skip property: with the plan cache and the program cache hot (a
program-cache hit shares the cached program's dense task graph, already
compiled for the machine), the only work left on a repeat compile is the
simulation replay itself — the profile shows ``sim.run`` and nothing from
``pass.*`` / ``lower.*`` / ``planner.search.*`` / ``sim.compile``.
"""

from __future__ import annotations

import json

import pytest

import repro
from repro import perf
from repro.runtime import Executor, ExecutorConfig
from repro.sim.device import k80_8gpu_machine


def test_stage_timer_records_and_snapshots():
    timer = perf.StageTimer()
    with perf.activation(timer):
        with perf.stage("pass.demo"):
            pass
        perf.count("demo.counter")
        perf.count("demo.counter", 2)
    assert timer.stage_calls("pass.demo") == 1
    assert timer.counter("demo.counter") == 3
    snapshot = timer.snapshot()
    assert json.loads(json.dumps(snapshot)) == snapshot  # JSON-serialisable


def test_inactive_by_default():
    """Without an activated timer, stages and counters are no-ops — the hot
    path pays nothing when profiling is off."""
    perf.count("orphan.counter")
    with perf.stage("orphan.stage"):
        pass
    assert perf.active_timer() is None


def test_nested_activation_none_keeps_previous_sink():
    timer = perf.StageTimer()
    with perf.activation(timer):
        with perf.activation(None):  # a non-profiling executor nested inside
            perf.count("kept")
    assert timer.counter("kept") == 1


def test_executor_profile_captures_lowering_stages(mlp_bundle):
    executor = Executor(ExecutorConfig(profile=True))
    executor.lower(
        mlp_bundle.graph, machine=k80_8gpu_machine(4), backend="pipeline",
        backend_options={"num_stages": 2, "num_microbatches": 4},
    )
    snapshot = executor.profile_timer.snapshot()
    assert "lower.pipeline" in snapshot["stages"]
    assert any(name.startswith("pass.") for name in snapshot["stages"])


@pytest.mark.parametrize("strategy", ["pipeline:2:1f1b:4/tofu"])
def test_warm_compile_skips_every_pass(mlp_bundle, strategy):
    """Cold compile runs planner search, lowering passes, and a simulator
    compile; the warm repeat is cache hits plus ``sim.run`` — nothing else."""
    machine = k80_8gpu_machine(4)

    cold_executor = Executor(ExecutorConfig(profile=True))
    cold = repro.compile(
        mlp_bundle.graph, strategy, machine, executor=cold_executor,
    )
    cold_stages = set(cold.metadata["profile"]["stages"])
    assert any(s.startswith("lower.") for s in cold_stages)
    assert any(s.startswith("pass.") for s in cold_stages)
    assert "sim.compile" in cold_stages

    warm_executor = Executor(ExecutorConfig(profile=True))
    warm = repro.compile(
        mlp_bundle.graph, strategy, machine, executor=warm_executor,
    )
    profile = warm.metadata["profile"]
    warm_stages = set(profile["stages"])

    assert not any(s.startswith("pass.") for s in warm_stages)
    assert not any(s.startswith("lower.") for s in warm_stages)
    assert not any(s.startswith("planner.search") for s in warm_stages)
    assert profile["counters"].get("program_cache.hit") == 1
    # The hit shares the dense form the cold compile built for an equal
    # machine: no re-sort, just the replay.
    assert "sim.compile" not in warm_stages
    assert "sim.run" in warm_stages
    assert (
        warm.report.result.iteration_time == cold.report.result.iteration_time
    )


def test_profile_metadata_absent_without_flag(mlp_bundle):
    model = repro.compile(
        mlp_bundle.graph, "tofu", num_workers=2, executor=Executor()
    )
    assert "profile" not in model.metadata
