"""The budgeted autotuner: screening, determinism, budgets, wiring.

The determinism contract under test: a budget in candidates (no
wall-clock deadline) makes reruns decide the same candidates with the same
tie-breaks — identical Pareto frontiers and identical winner content
addresses.
"""

from __future__ import annotations

import pytest

from repro import compile as repro_compile
from repro import perf
from repro.errors import StrategyError
from repro.models.mlp import build_mlp
from repro.planner.core import Planner
from repro.runtime.core import Executor, ExecutorConfig
from repro.sim.device import DeviceSpec, MachineSpec, k80_8gpu_machine
from repro.tuner import Tuner, TunerBudget

BUDGET = TunerBudget(max_candidates=8)


@pytest.fixture(scope="module")
def graph():
    return build_mlp(
        batch_size=32, input_dim=256, hidden_dim=256, num_layers=3,
        num_classes=64,
    ).graph


def tight_machine(graph, headroom: float, devices: int = 4) -> MachineSpec:
    """A machine whose per-device memory is ``headroom`` x the model's
    weight bytes — small headroom screens unsharded candidates out."""
    capacity = int(graph.weight_bytes() * headroom)
    return MachineSpec(
        devices=[
            DeviceSpec(name=f"gpu{i}", memory_bytes=capacity)
            for i in range(devices)
        ]
    )


class TestSerial:
    def test_returns_best_and_frontier(self, graph):
        result = Tuner(budget=BUDGET).tune(graph, k80_8gpu_machine(4))
        assert result.best is not None
        assert result.frontier, "a viable sweep must produce a frontier"
        assert result.best.iteration_time == result.frontier[0].iteration_time
        assert str(result.best.strategy) in {o.strategy for o in result.frontier}

    def test_outcomes_cover_every_generated_candidate(self, graph):
        result = Tuner(budget=BUDGET).tune(graph, k80_8gpu_machine(4))
        assert len(result.outcomes) == result.stats["generated"]
        skipped = [o for o in result.outcomes if o.status == "skipped"]
        assert len(skipped) == result.stats["generated"] - 8
        assert all("budget" in o.reason for o in skipped)

    def test_error_candidates_are_reported_not_raised(self, graph):
        result = Tuner().tune(
            graph,
            k80_8gpu_machine(4),
            candidates=["tofu", "pipeline:128:1f1b:4"],
        )
        by_status = {o.status: o for o in result.outcomes}
        assert "error" in by_status
        assert by_status["error"].reason

    def test_no_viable_candidate_raises(self, graph):
        machine = tight_machine(graph, headroom=0.01)
        with pytest.raises(StrategyError, match="no executable candidate"):
            Tuner(budget=BUDGET).tune(graph, machine)


class TestScreening:
    def test_unsharded_candidates_are_screened_with_a_reason(self, graph):
        # 1.5x weight headroom: `single` needs 3x (weights+grads+optimizer)
        # on one device and must be screened before any simulation; tofu
        # shards the same state 4 ways and survives.
        machine = tight_machine(graph, headroom=1.5)
        result = Tuner(budget=BUDGET).tune(graph, machine)
        outcomes = {o.strategy: o for o in result.outcomes}
        single = outcomes["single"]
        assert single.status == "screened"
        assert single.oom
        assert "memory" in single.reason
        assert outcomes["tofu"].status == "evaluated"
        assert str(result.best.strategy) != "single"

    def test_screening_is_cheap(self, graph):
        # A screened candidate must never reach the simulator: the sweep
        # records sim runs only for evaluated candidates.  A private program
        # cache makes every candidate lower afresh, so each evaluated
        # program replays exactly once, whatever ran earlier in the process.
        machine = tight_machine(graph, headroom=1.5)
        executor = Executor(
            ExecutorConfig(program_cache_capacity=BUDGET.max_candidates)
        )
        timer = perf.StageTimer()
        with perf.activation(timer):
            result = Tuner(budget=BUDGET).tune(graph, machine, executor=executor)
        evaluated = sum(1 for o in result.outcomes if o.status == "evaluated")
        assert timer.stage_calls("sim.run") == evaluated


class TestDeterminism:
    def test_reruns_agree_bit_for_bit(self, graph):
        machine = k80_8gpu_machine(4)
        first, second = (
            Tuner(budget=BUDGET).tune(
                graph, machine, planner=Planner(), executor=Executor()
            )
            for _ in range(2)
        )
        assert first.winner_key() == second.winner_key()
        assert [o.to_dict() for o in first.outcomes] == [
            o.to_dict() for o in second.outcomes
        ]

    @pytest.mark.parametrize("jobs", [0, 2])
    def test_jobs_accepts_only_one(self, jobs):
        assert Tuner(jobs=1).budget == TunerBudget()
        with pytest.raises(StrategyError, match="process pool was removed"):
            Tuner(jobs=jobs)


class TestCompileIntegration:
    def test_auto_accepts_a_configured_tuner(self, graph):
        model = repro_compile(
            graph,
            "auto",
            k80_8gpu_machine(4),
            tuner=Tuner(budget=TunerBudget(max_candidates=4)),
        )
        assert model.iteration_time > 0
        assert len(model.metadata["tuner"]["outcomes"]) >= 4
        assert model.metadata["tuner"]["winner"] == str(model.strategy)

    def test_explicit_strategy_rejects_a_tuner(self, graph):
        with pytest.raises(StrategyError, match="tuner"):
            repro_compile(graph, "tofu", k80_8gpu_machine(4), tuner=Tuner())

    def test_tuner_metadata_survives_save_and_load(self, graph, tmp_path):
        from repro.compiler import CompiledModel

        model = repro_compile(
            graph,
            "auto",
            k80_8gpu_machine(4),
            tuner=Tuner(budget=TunerBudget(max_candidates=4)),
        )
        path = tmp_path / "model.json"
        model.save(str(path))
        loaded = CompiledModel.load(str(path))
        assert loaded.metadata["tuner"]["winner"] == str(model.strategy)
        assert loaded.metadata["tuner"]["frontier"]

    def test_auto_metadata_reports_screened_candidates(self, graph):
        machine = tight_machine(graph, headroom=1.5)
        model = repro_compile(
            graph, "auto", machine, tuner=Tuner(budget=BUDGET)
        )
        outcomes = model.metadata["tuner"]["outcomes"]
        screened = [o for o in outcomes if o["status"] == "screened"]
        assert screened and all(o["reason"] for o in screened)


class TestProfile:
    def test_tuner_stages_land_on_the_active_timer(self, graph):
        timer = perf.StageTimer()
        with perf.activation(timer):
            Tuner(budget=BUDGET).tune(graph, k80_8gpu_machine(4))
        assert timer.stage_calls("tuner.screen") > 0
        assert timer.stage_calls("tuner.search") > 0
        assert timer.stage_calls("tuner.rank") == 1

    def test_auto_compile_sweep_lands_on_the_active_timer(self, graph):
        """A profiled ``auto`` compile keeps the sweep's stages, and the
        sweep's ``stage_seconds`` count only that sweep when the timer
        already holds earlier ``tuner.*`` time."""
        machine = k80_8gpu_machine(4)
        timer = perf.StageTimer()
        timer.record("tuner.rank", 100.0)
        timer.record("tuner.search", 100.0)
        with perf.activation(timer):
            model = repro_compile(
                graph, "auto", machine, tuner=Tuner(budget=BUDGET)
            )
        assert timer.stage_calls("tuner.screen") > 0
        assert timer.stage_calls("tuner.search") > 1
        assert timer.stage_calls("tuner.rank") == 2
        stage_seconds = model.metadata["tuner"]["stats"]["stage_seconds"]
        assert set(stage_seconds) == {
            "tuner.rank", "tuner.screen", "tuner.search",
        }
        assert 0 < stage_seconds["tuner.rank"] < 100.0
        assert 0 < stage_seconds["tuner.search"] < 100.0
        assert stage_seconds["tuner.screen"] == timer.seconds["tuner.screen"]

    def test_stage_seconds_are_always_in_stats(self, graph):
        result = Tuner(budget=BUDGET).tune(graph, k80_8gpu_machine(4))
        assert "tuner.rank" in result.stats["stage_seconds"]

    def test_profile_without_executor_timer_uses_a_private_one(self, graph):
        # No profiling executor: stats still carry stage seconds, and no
        # timer leaks into the ambient perf state.
        from repro import perf

        assert perf.active_timer() is None
        Tuner(budget=BUDGET).tune(graph, k80_8gpu_machine(4))
        assert perf.active_timer() is None
