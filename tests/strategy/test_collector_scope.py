"""``repro.compile`` runs with the cyclic collector paused.

The pause is process-wide and reference-counted: the first compile in
disables the collector (only if it is enabled), the last one out re-enables
it (only if the pause disabled it), and a raising compile restores it.
"""

from __future__ import annotations

import gc

import pytest

import repro
from repro.errors import StrategyError
from repro.models.mlp import build_mlp
from repro.sim.device import k80_8gpu_machine
from repro.tuner import Tuner, TunerBudget

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
        tuner=Tuner(budget=TunerBudget(max_candidates=3), jobs=1),
    )
    assert model.metadata["tuner"]["stats"]["admitted"] == 3
    assert switches == ["disable", "enable"]
    assert gc.isenabled()


def test_direct_tune_pauses_once_for_the_whole_sweep(graph, switches):
    result = Tuner(budget=TunerBudget()).tune(
        graph, MACHINE, candidates=["tofu", "dp:2/tofu", "dp:4/single"]
    )
    assert len(result.outcomes) == 3
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

