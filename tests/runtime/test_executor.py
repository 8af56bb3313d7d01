"""Tests for the Executor facade and the runtime-facing CLI commands."""

from __future__ import annotations

import pytest

import repro
from repro.cli import main as cli_main
from repro.planner import Planner
from repro.runtime import Executor, available_execution_backends
from repro.sim.device import k80_8gpu_machine

MACHINE = k80_8gpu_machine(4)


class TestExecutorFacade:
    def test_all_five_styles_run_through_executor(self, mlp_bundle):
        """Acceptance: every execution style lowers and simulates through
        the :class:`Executor`."""
        plan = Planner().plan(mlp_bundle.graph, 4, machine=MACHINE)
        executor = Executor()
        for backend in (
            "tofu-partitioned", "single-device", "placement",
            "data-parallel", "swap",
        ):
            program = executor.lower(
                mlp_bundle.graph,
                plan=plan,
                machine=MACHINE,
                backend=backend,
            )
            result = executor.simulate(program)
            assert result.iteration_time > 0, backend
            assert program.backend == backend
            assert program.tasks
            assert program.per_device_memory
            assert "LoweredProgram" in program.summary()

    def test_lower_then_simulate_equals_run(self, mlp_bundle):
        """Lowering then simulating is all a one-call run (now
        ``repro.compile``) does."""
        executor = Executor()
        program = executor.lower(
            mlp_bundle.graph, machine=MACHINE, backend="single-device"
        )
        result = executor.simulate(program, MACHINE)
        model = repro.compile(mlp_bundle.graph, "single", MACHINE)
        assert result.iteration_time == model.result.iteration_time

    def test_machine_defaults_to_plan_worker_count(self, mlp_bundle):
        plan = Planner().plan(mlp_bundle.graph, 2)
        program = Executor().lower(mlp_bundle.graph, plan=plan)
        assert program.num_devices == 2

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

    def test_simulate_reprices_pipeline_transfers_on_another_machine(
        self, mlp_bundle
    ):
        """Stage-boundary copies name their endpoints, not a link priced at
        lowering, so they re-price on another machine like the all-reduce."""
        from repro.sim.device import v100_machine

        executor = Executor()
        program = executor.lower(
            mlp_bundle.graph, machine=v100_machine(4), backend="pipeline",
            backend_options={"num_stages": 2, "num_microbatches": 2},
        )
        v100 = executor.simulate(program)
        k80 = executor.simulate(program, k80_8gpu_machine(4))
        assert k80.comm_time > v100.comm_time

    def test_report_summary_mentions_execution(self, mlp_bundle):
        summary = repro.compile(mlp_bundle.graph, "single", MACHINE).summary()
        assert "iteration time" in summary
        assert "LoweredProgram" in summary

    def test_planner_report_unchanged_shape(self, mlp_bundle):
        """A planned compile still yields plan + sharded program."""
        model = repro.compile(mlp_bundle.graph, "tofu", MACHINE, planner=Planner())
        assert model.plan is not None
        assert model.program.sharded_graph is not None
        assert "PartitionPlan" in model.summary()
        assert model.backend == "tofu-partitioned"


class TestCLI:
    def test_executors_command(self, capsys):
        assert cli_main(["executors"]) == 0
        out = capsys.readouterr().out
        for name in available_execution_backends():
            assert name in out

    # ``data-parallel`` has no strategy spelling; the per-call backend=
    # reaches it and the Python-API tests cover it.
    @pytest.mark.parametrize(
        "strategy, executor",
        [("single", "single-device"), ("placement", "placement"),
         ("swap", "swap")],
        ids=["single-device", "placement", "swap"],
    )
    def test_simulate_with_alternative_executor(self, strategy, executor, capsys):
        assert cli_main(["compile", "--model", "mlp", "--batch", "32",
                         "--hidden", "128", "--layers", "2", "--workers", "4",
                         "--strategy", strategy]) == 0
        out = capsys.readouterr().out
        assert f"backend='{executor}'" in out
        assert "throughput" in out
        # No planning happened, so no partition plan should be printed.
        assert "PartitionPlan" not in out

    def test_simulate_default_executor_is_tofu(self, capsys):
        assert cli_main(["compile", "--model", "mlp", "--batch", "32",
                         "--hidden", "128", "--layers", "2", "--workers", "4"]) == 0
        out = capsys.readouterr().out
        assert "strategy: tofu" in out
        assert "PartitionPlan" in out

    def test_unknown_executor_rejected(self, capsys):
        assert cli_main(["compile", "--model", "mlp", "--strategy",
                         "warp-drive"]) == 1
        assert "unknown strategy combinator" in capsys.readouterr().err
