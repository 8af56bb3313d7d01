"""``repro.compile`` runs with the cyclic collector paused.

The pause is process-wide and reference-counted: the first compile in
disables the collector (only if it is enabled), the last one out re-enables
it (only if the pause disabled it), a raising compile restores it, and a
process forked inside a compile starts outside every pause.
"""

from __future__ import annotations

import gc
import os
import threading

import pytest

import repro
from repro import compiler
from repro.compiler import collector_paused
from repro.errors import StrategyError
from repro.models.mlp import build_mlp
from repro.planner.parallel import mp_context
from repro.serve import CompileRequest, CompileService
from repro.sim.device import k80_8gpu_machine
from repro.tuner import Tuner, TunerBudget
from repro.tuner import core as tuner_core

MACHINE = k80_8gpu_machine(4)


@pytest.fixture(scope="module")
def graph():
    return build_mlp(
        batch_size=8, input_dim=32, hidden_dim=64, num_layers=2, num_classes=16,
    ).graph


@pytest.fixture
def switches(monkeypatch):
    """Every ``gc.disable``/``gc.enable`` call, in order."""
    calls = []
    disable, enable = gc.disable, gc.enable

    def counting_disable():
        calls.append("disable")
        disable()

    def counting_enable():
        calls.append("enable")
        enable()

    monkeypatch.setattr(gc, "disable", counting_disable)
    monkeypatch.setattr(gc, "enable", counting_enable)
    assert gc.isenabled()
    return calls


class _FailingPlanner:
    """A planner that records the collector state, then raises."""

    def __init__(self):
        self.collector_enabled = None

    def plan(self, *args, **kwargs):
        self.collector_enabled = gc.isenabled()
        raise StrategyError("search failed")


def test_compile_pauses_and_resumes(graph, switches):
    repro.compile(graph, "tofu", MACHINE)
    assert switches == ["disable", "enable"]
    assert gc.isenabled()


def test_collector_is_restored_after_a_compile_raises(graph, switches):
    planner = _FailingPlanner()
    with pytest.raises(StrategyError, match="search failed"):
        repro.compile(graph, "tofu", MACHINE, planner=planner)
    assert planner.collector_enabled is False
    assert switches == ["disable", "enable"]
    assert gc.isenabled()


def test_auto_compile_re_enables_exactly_once(graph, switches):
    model = repro.compile(
        graph, "auto", MACHINE,
        candidates=["tofu", "dp:2/tofu", "dp:4/single"],
        tuner=Tuner(budget=TunerBudget(), jobs=1),
    )
    assert len(model.metadata["tuner"]["outcomes"]) == 3
    assert switches == ["disable", "enable"]
    assert gc.isenabled()


def test_callers_own_disable_survives_a_compile(graph, switches):
    gc.disable()
    try:
        repro.compile(graph, "tofu", MACHINE)
        assert not gc.isenabled()
    finally:
        gc.enable()
    assert switches == ["disable", "enable"]  # the caller's own two calls


def test_overlapping_serve_compiles_resume_once_drained(graph, monkeypatch, switches):
    """Four service threads are inside ``compile`` at once; the collector
    stays paused until the last one returns."""
    barrier = threading.Barrier(4, timeout=60)
    paused = []
    lower = compiler.lower_strategy

    def gated(*args, **kwargs):
        barrier.wait()
        paused.append(not gc.isenabled())
        return lower(*args, **kwargs)

    monkeypatch.setattr(compiler, "lower_strategy", gated)
    strategies = ["tofu", "dp:2/tofu", "dp:4/single", "single"]
    with CompileService(workers=4) as service:
        pending = [
            service.submit(CompileRequest(graph=graph, strategy=s, num_workers=4))
            for s in strategies
        ]
        responses = [p.result(timeout=120) for p in pending]
    assert all(r.ok for r in responses), [r.error for r in responses]
    assert paused == [True] * 4
    assert switches == ["disable", "enable"]
    assert gc.isenabled()


def _fork_only():
    if not hasattr(os, "fork") or mp_context().get_start_method() != "fork":
        pytest.skip("needs fork-started pools")


def test_forked_child_starts_outside_the_pause(tmp_path):
    _fork_only()
    out = tmp_path / "child.txt"
    with collector_paused():
        assert not gc.isenabled()
        pid = os.fork()
        if pid == 0:  # pragma: no cover - runs in the child
            try:
                with collector_paused():
                    inner = gc.isenabled()
                out.write_text(f"{gc.isenabled()} {inner} {gc.isenabled()}")
            finally:
                os._exit(0)
        os.waitpid(pid, 0)
        assert not gc.isenabled()
    assert gc.isenabled()
    # Enabled on start, paused inside its own compile, resumed after it.
    assert out.read_text() == "True False True"


def test_forked_tuner_worker_starts_with_the_collector_enabled(
    graph, monkeypatch, tmp_path
):
    _fork_only()
    init_worker = tuner_core._init_worker

    def recording(*args):
        (tmp_path / f"worker-{os.getpid()}.txt").write_text(str(gc.isenabled()))
        init_worker(*args)

    monkeypatch.setattr(tuner_core, "_init_worker", recording)
    repro.compile(
        graph, "auto", MACHINE,
        candidates=["tofu", "dp:2/tofu"],
        tuner=Tuner(budget=TunerBudget(), jobs=2),
    )
    states = [path.read_text() for path in tmp_path.glob("worker-*.txt")]
    assert states and set(states) == {"True"}
    assert gc.isenabled()
