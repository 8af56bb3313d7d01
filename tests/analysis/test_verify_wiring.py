"""Wiring of the verifier to the executor's output: lowering itself runs no
checker, and a registered checker's finding on a freshly lowered program
comes back from ``verify_program`` as a structured error."""

import pytest

from repro.analysis import (
    AnalysisError,
    CheckerSpec,
    Finding,
    register_checker,
    unregister_checker,
    verify_program,
)
from repro.models.mlp import build_mlp
from repro.runtime import Executor, ExecutorConfig
from repro.sim.device import k80_8gpu_machine


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
    def test_verify_off_never_runs_checkers(self, bundle, spy):
        """Lowering does not verify: only an explicit call runs checkers."""
        executor = Executor(ExecutorConfig(cache_programs=False))
        program = executor.lower(bundle.graph, machine=k80_8gpu_machine(2),
                                 backend="single-device")
        assert spy == []
        verify_program(program)
        assert len(spy) == 1

    def test_strict_raises_structured_error(self, bundle, always_fail):
        executor = Executor(ExecutorConfig(cache_programs=False))
        program = executor.lower(bundle.graph, machine=k80_8gpu_machine(2),
                                 backend="single-device")
        report = verify_program(program, graph=bundle.graph)
        assert [f.check for f in report.findings] == ["test-always-fail"]
        with pytest.raises(AnalysisError) as excinfo:
            report.raise_first()
        assert excinfo.value.code == "ANA000_ANALYSIS"
        assert excinfo.value.check == "test-always-fail"
