"""Wiring of the verify pass: cold runs verify, cache hits skip, strict
raises, warn warns, and off does nothing."""

import pytest

from repro import perf
from repro.analysis import (
    AnalysisError,
    CheckerSpec,
    Finding,
    register_checker,
    unregister_checker,
    validate_verify_mode,
)
from repro.models.mlp import build_mlp
from repro.runtime import Executor, ExecutorConfig, ProgramCache
from repro.sim.device import k80_8gpu_machine


def _fresh(executor):
    """Swap in a private program cache — the process-wide default cache is
    shared across tests, which would pollute hit counters here."""
    executor.program_cache = ProgramCache()
    return executor


@pytest.fixture
def bundle():
    return build_mlp(batch_size=8, input_dim=32, hidden_dim=32,
                     num_layers=2, num_classes=8)


@pytest.fixture
def spy():
    """A registered checker that records each invocation, cleaned up after."""
    calls = []

    def check(context):
        calls.append(context)
        return []

    register_checker(CheckerSpec(
        name="test-spy", check=check, description="records invocations"))
    yield calls
    unregister_checker("test-spy")


@pytest.fixture
def always_fail():
    def check(context):
        return [Finding(code="ANA000_ANALYSIS", check="test-always-fail",
                        message="seeded failure")]

    register_checker(CheckerSpec(
        name="test-always-fail", check=check,
        description="always reports one finding"))
    yield
    unregister_checker("test-always-fail")


class TestExecutorWiring:
    def test_cold_lower_verifies_and_cache_hit_skips(self, bundle, spy):
        machine = k80_8gpu_machine(2)
        executor = _fresh(Executor(ExecutorConfig(verify="strict")))
        timer = perf.StageTimer()
        with perf.activation(timer):
            executor.lower(bundle.graph, machine=machine, backend="single-device")
        assert len(spy) == 1  # cold path ran the pass
        assert "pass.verify" in timer.snapshot()["stages"]

        executor.lower(bundle.graph, machine=machine, backend="single-device")
        assert len(spy) == 1  # program-cache hit skipped it

    def test_verify_off_never_runs_checkers(self, bundle, spy):
        executor = Executor(ExecutorConfig(verify="off", cache_programs=False))
        executor.lower(bundle.graph, machine=k80_8gpu_machine(2),
                       backend="single-device")
        assert spy == []

    def test_strict_raises_structured_error(self, bundle, always_fail):
        executor = Executor(
            ExecutorConfig(verify="strict", cache_programs=False))
        with pytest.raises(AnalysisError) as excinfo:
            executor.lower(bundle.graph, machine=k80_8gpu_machine(2),
                           backend="single-device")
        assert excinfo.value.code == "ANA000_ANALYSIS"
        assert excinfo.value.check == "test-always-fail"

    def test_strict_failure_is_not_cached(self, bundle, always_fail):
        executor = _fresh(Executor(ExecutorConfig(verify="strict")))
        for _ in range(2):  # a failing program must never become a hit
            with pytest.raises(AnalysisError):
                executor.lower(bundle.graph, machine=k80_8gpu_machine(2),
                               backend="single-device")
        assert executor.program_cache.hits == 0

    def test_warn_mode_warns_and_returns(self, bundle, always_fail):
        executor = Executor(ExecutorConfig(verify="warn", cache_programs=False))
        with pytest.warns(UserWarning, match="seeded failure"):
            program = executor.lower(bundle.graph,
                                     machine=k80_8gpu_machine(2),
                                     backend="single-device")
        assert program.tasks

    def test_bad_verify_mode_rejected_at_construction(self):
        with pytest.raises(AnalysisError) as excinfo:
            Executor(ExecutorConfig(verify="nope"))
        assert excinfo.value.code == "ANA013_BAD_VERIFY_MODE"
        with pytest.raises(AnalysisError):
            validate_verify_mode("loud")

