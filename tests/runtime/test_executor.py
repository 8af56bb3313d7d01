"""Tests for the Executor facade and the runtime-facing CLI commands."""

from __future__ import annotations

import pytest

import repro
from repro.cli import main as cli_main
from repro.planner import Planner
from repro.runtime import (
    Executor,
    ExecutorConfig,
    available_execution_backends,
    default_executor,
)
from repro.sim.device import k80_8gpu_machine

MACHINE = k80_8gpu_machine(4)


class TestExecutorFacade:
    def test_all_five_styles_run_through_executor(self, mlp_bundle):
        """Acceptance: every execution style goes through ``Executor.run``."""
        plan = Planner().plan(mlp_bundle.graph, 4, machine=MACHINE)
        device_of_node = {
            node: mlp_bundle.layer_of_node.get(node, 0) % 4
            for node in mlp_bundle.graph.nodes
        }
        options = {
            "tofu-partitioned": {},
            "single-device": {},
            "placement": {"device_of_node": device_of_node},
            "data-parallel": {},
            "swap": {},
        }
        executor = Executor()
        for backend in (
            "tofu-partitioned", "single-device", "placement",
            "data-parallel", "swap",
        ):
            report = executor.run(
                mlp_bundle.graph,
                plan=plan,
                machine=MACHINE,
                backend=backend,
                backend_options=options[backend],
            )
            assert report.result.iteration_time > 0, backend
            assert report.program.backend == backend
            assert report.program.tasks
            assert report.program.per_device_memory
            assert "LoweredProgram" in report.program.summary()

    def test_lower_then_simulate_equals_run(self, mlp_bundle):
        executor = Executor()
        program = executor.lower(
            mlp_bundle.graph, machine=MACHINE, backend="single-device"
        )
        result = executor.simulate(program, MACHINE)
        report = executor.run(
            mlp_bundle.graph, machine=MACHINE, backend="single-device"
        )
        assert result.iteration_time == report.result.iteration_time

    def test_config_default_backend(self, mlp_bundle):
        executor = Executor(ExecutorConfig(backend="single-device"))
        report = executor.run(mlp_bundle.graph, machine=MACHINE)
        assert report.program.backend == "single-device"

    def test_config_options_merge_with_call_options(self, mlp_bundle):
        executor = Executor(
            ExecutorConfig(backend="swap", backend_options={"prefetch": False})
        )
        serial = executor.run(mlp_bundle.graph, machine=MACHINE)
        overlapped = executor.run(
            mlp_bundle.graph, machine=MACHINE,
            backend_options={"prefetch": True},
        )
        assert overlapped.result.iteration_time <= (
            serial.result.iteration_time + 1e-12
        )

    def test_machine_defaults_to_plan_worker_count(self, mlp_bundle):
        plan = Planner().plan(mlp_bundle.graph, 2)
        report = Executor().run(mlp_bundle.graph, plan=plan)
        assert report.program.num_devices == 2

    def test_default_executor_is_a_singleton(self):
        assert default_executor() is default_executor()

    def test_simulate_defaults_to_lowering_machine(self, mlp_bundle):
        """A program priced for one machine must not silently simulate on
        the default 8-GPU K80 when ``machine`` is omitted."""
        from repro.sim.device import v100_machine

        executor = Executor()
        machine = v100_machine(4)
        program = executor.lower(
            mlp_bundle.graph, machine=machine, backend="data-parallel"
        )
        assert program.machine is machine
        explicit = executor.simulate(program, machine)
        implicit = executor.simulate(program)
        assert implicit.iteration_time == explicit.iteration_time
        # The default K80 machine has slower links (21 vs 150 GB/s p2p), so
        # a silent fallback would have priced the all-reduce differently.
        k80 = executor.simulate(program, k80_8gpu_machine(4))
        assert k80.comm_time > implicit.comm_time

    def test_report_summary_mentions_execution(self, mlp_bundle):
        report = Executor().run(
            mlp_bundle.graph, machine=MACHINE, backend="data-parallel"
        )
        summary = report.summary()
        assert "iteration time" in summary
        assert "LoweredProgram" in summary

    def test_planner_report_unchanged_shape(self, mlp_bundle):
        """A planned compile's report still yields plan + partitioned."""
        report = repro.compile(mlp_bundle.graph, "tofu", MACHINE, planner=Planner()).report
        assert report.plan is not None
        assert report.partitioned is not None
        assert "PartitionPlan" in report.summary()
        assert report.backend == "tofu-partitioned"


class TestCLI:
    def test_executors_command(self, capsys):
        assert cli_main(["executors"]) == 0
        out = capsys.readouterr().out
        for name in available_execution_backends():
            assert name in out

    @pytest.mark.parametrize(
        "executor", ["single-device", "placement", "data-parallel", "swap"]
    )
    def test_simulate_with_alternative_executor(self, executor, capsys):
        assert cli_main(["simulate", "--model", "mlp", "--batch", "32",
                         "--hidden", "128", "--layers", "2", "--workers", "4",
                         "--executor", executor]) == 0
        out = capsys.readouterr().out
        assert f"executor: {executor}" in out
        assert "throughput" in out
        # No planning happened, so no search backend should be advertised.
        assert "backend: tofu" not in out

    def test_simulate_plans_for_any_plan_requiring_executor(self, capsys):
        """The CLI consults spec.requires_plan, not a hard-coded name, so a
        plugin backend that needs a plan gets one."""
        from repro.runtime import (
            ExecutionBackendSpec,
            register_execution_backend,
            unregister_execution_backend,
        )
        from repro.runtime.backends import lower_tofu_partitioned

        register_execution_backend(
            ExecutionBackendSpec(
                name="plan-hungry",
                lower=lower_tofu_partitioned,
                description="test plugin that needs a plan",
                requires_plan=True,
            )
        )
        try:
            assert cli_main(["simulate", "--model", "mlp", "--batch", "32",
                             "--hidden", "128", "--layers", "2",
                             "--workers", "4", "--executor", "plan-hungry"]) == 0
            out = capsys.readouterr().out
            assert "backend: tofu" in out
            assert "executor: plan-hungry" in out
        finally:
            unregister_execution_backend("plan-hungry")

    def test_simulate_default_executor_is_tofu(self, capsys):
        assert cli_main(["simulate", "--model", "mlp", "--batch", "32",
                         "--hidden", "128", "--layers", "2", "--workers", "4"]) == 0
        out = capsys.readouterr().out
        assert "executor: tofu-partitioned" in out
        assert "PartitionPlan" in out

    def test_unknown_executor_rejected(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["simulate", "--model", "mlp", "--executor", "warp-drive"])
