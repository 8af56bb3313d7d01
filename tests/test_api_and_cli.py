"""Tests for the high-level API and the command-line interface."""

import pytest

import repro
from repro import describe_operator
from repro.cli import main as cli_main
from repro.sim.device import k80_8gpu_machine

FOUR_GPUS = k80_8gpu_machine(4)


class TestAPI:
    def test_describe_operator(self):
        strategies = describe_operator("conv2d")
        assert len(strategies) >= 4
        axes = {s.axis for s in strategies}
        assert "n" in axes and "co" in axes

    def test_describe_elementwise_operator(self):
        assert describe_operator("relu")

    def test_describe_unknown_operator(self):
        with pytest.raises(Exception):
            describe_operator("no_such_operator")

    def test_partition_graph(self, mlp_bundle):
        plan = repro.compile(
            mlp_bundle.graph, machine=FOUR_GPUS, lower_only=True
        ).plan
        assert plan.num_workers == 4
        assert plan.total_comm_bytes >= 0

    def test_partition_and_simulate(self, mlp_bundle):
        model = repro.compile(mlp_bundle.graph, machine=FOUR_GPUS)
        assert model.result.iteration_time > 0
        assert model.throughput(mlp_bundle.batch_size) > 0
        assert "PartitionPlan" in model.summary()

    def test_partition_and_simulate_with_precomputed_plan(self, mlp_bundle):
        plan = repro.compile(
            mlp_bundle.graph, machine=FOUR_GPUS, lower_only=True
        ).plan
        # A program-cache hit would rebuild the plan object; lower afresh.
        executor = repro.Executor(repro.ExecutorConfig(cache_programs=False))
        program = executor.lower(mlp_bundle.graph, plan=plan, machine=FOUR_GPUS)
        assert program.plan is plan
        assert executor.simulate(program).iteration_time > 0

    def test_partition_graph_with_alternative_backend(self, mlp_bundle):
        plan = repro.compile(
            mlp_bundle.graph, "tofu:spartan", FOUR_GPUS, lower_only=True
        ).plan
        assert plan.algorithm == "spartan"

    def test_partition_graph_goes_through_default_planner_cache(self, mlp_bundle):
        from repro.planner import default_planner

        before = default_planner().cache_info()["hits"]
        two_gpus = k80_8gpu_machine(2)
        repro.compile(mlp_bundle.graph, machine=two_gpus, lower_only=True)
        repro.compile(mlp_bundle.graph, machine=two_gpus, lower_only=True)
        assert default_planner().cache_info()["hits"] >= before + 1


class TestCLI:
    def test_describe_command(self, capsys):
        assert cli_main(["describe", "conv2d"]) == 0
        out = capsys.readouterr().out
        assert "partition-n-reduce" in out

    def test_help_keeps_each_example_on_its_own_line(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["--help"])
        assert excinfo.value.code == 0
        lines = [line.strip() for line in capsys.readouterr().out.splitlines()]
        assert "tofu-repro describe conv2d" in lines
        assert "tofu-repro backends" in lines

    def test_serve_is_not_a_command(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["serve"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'serve'" in capsys.readouterr().err

    def test_partition_command(self, capsys):
        assert cli_main(["partition", "--model", "mlp", "--batch", "32",
                         "--hidden", "128", "--layers", "2", "--workers", "4"]) == 0
        out = capsys.readouterr().out
        assert "PartitionPlan" in out

    def test_simulate_command(self, capsys):
        assert cli_main(["compile", "--model", "mlp", "--batch", "32",
                         "--hidden", "128", "--layers", "2", "--workers", "4",
                         "--strategy", "dp:2/single"]) == 0
        out = capsys.readouterr().out
        assert "backend='hybrid'" in out
        assert "throughput" in out

    def test_coverage_command(self, capsys):
        assert cli_main(["coverage"]) == 0
        out = capsys.readouterr().out
        assert "MXNet" in out

    def test_backends_command(self, capsys):
        assert cli_main(["backends"]) == 0
        out = capsys.readouterr().out
        for name in ("tofu", "joint", "spartan", "equalchop", "allrow-greedy"):
            assert name in out

    def test_backends_and_executors_enumerate_strategy_combinators(self, capsys):
        for command in ("backends", "executors"):
            assert cli_main([command]) == 0
            out = capsys.readouterr().out
            assert "strategy combinators" in out
            for keyword in ("dp:", "pipeline:", "single", "swap", "placement"):
                assert keyword in out

    def test_compile_command(self, capsys):
        assert cli_main(["compile", "--model", "mlp", "--batch", "32",
                         "--hidden", "128", "--layers", "2", "--workers", "4",
                         "--strategy", "dp:2/tofu"]) == 0
        out = capsys.readouterr().out
        assert "strategy: dp:2/tofu" in out
        assert "throughput" in out

    def test_compile_command_strategy_names_the_search(self, capsys):
        argv = ["compile", "--model", "mlp", "--batch", "32", "--hidden", "128",
                "--layers", "2", "--workers", "4"]
        assert cli_main([*argv, "--strategy", "tofu:spartan"]) == 0
        out = capsys.readouterr().out
        assert "algorithm=spartan" in out
        # The strategy is the one spelling of the search: no --backend flag.
        with pytest.raises(SystemExit) as excinfo:
            cli_main([*argv, "--strategy", "tofu", "--backend", "spartan"])
        assert excinfo.value.code == 2

    def test_compile_command_dry_run(self, capsys):
        assert cli_main(["compile", "--model", "mlp", "--batch", "32",
                         "--hidden", "128", "--layers", "2", "--workers", "4",
                         "--strategy", "dp:2/pipeline:2:1f1b:4/tofu",
                         "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "executor: hybrid" in out
        assert "replica_groups=2" in out
        assert "throughput" not in out  # dry run: no simulation

    def test_compile_command_auto_dry_run_lists_candidates(self, capsys):
        assert cli_main(["compile", "--model", "mlp", "--batch", "32",
                         "--hidden", "128", "--layers", "2", "--workers", "4",
                         "--strategy", "auto", "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "candidate sweep" in out
        assert "dp:2/tofu" in out

    # The autotuner runs from the CLI as ``compile --strategy auto``.
    AUTO = ["compile", "--model", "mlp", "--batch", "16", "--hidden", "128",
            "--layers", "2", "--workers", "4", "--strategy", "auto"]

    def test_tune_command(self, capsys):
        assert cli_main(self.AUTO) == 0
        out = capsys.readouterr().out
        assert "auto sweep:" in out
        assert "throughput" in out

    def test_tune_command_profile_prints_tuner_stages(self, capsys):
        assert cli_main([*self.AUTO, "--profile"]) == 0
        out = capsys.readouterr().out
        assert "tuner.screen" in out
        assert "tuner.rank" in out

    def test_tune_command_save_round_trips(self, tmp_path, capsys):
        path = tmp_path / "best.json"
        assert cli_main([*self.AUTO, "--save", str(path)]) == 0
        assert "saved:" in capsys.readouterr().out
        from repro.compiler import CompiledModel

        assert CompiledModel.load(str(path)).iteration_time > 0

    def test_compile_command_save(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        assert cli_main(["compile", "--model", "mlp", "--batch", "32",
                         "--hidden", "128", "--layers", "2", "--workers", "4",
                         "--strategy", "tofu", "--save", str(path)]) == 0
        out = capsys.readouterr().out
        assert "saved:" in out
        from repro.compiler import CompiledModel

        loaded = CompiledModel.load(str(path))
        assert loaded.plan is not None

    def test_compile_command_rejects_dry_run_with_save(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        assert cli_main(["compile", "--model", "mlp", "--batch", "32",
                         "--hidden", "128", "--layers", "2", "--workers", "4",
                         "--strategy", "tofu", "--dry-run",
                         "--save", str(path)]) == 1
        err = capsys.readouterr().err
        assert "--save" in err and "--dry-run" in err
        assert not path.exists()

    def test_compile_command_rejects_bad_strategy(self, capsys):
        assert cli_main(["compile", "--model", "mlp", "--batch", "32",
                         "--hidden", "128", "--layers", "2", "--workers", "4",
                         "--strategy", "frobnicate"]) == 1
        err = capsys.readouterr().err
        assert "unknown strategy combinator" in err

    def test_partition_command_with_every_backend(self, capsys):
        from repro.planner import available_backends

        for name in available_backends():
            assert cli_main(["partition", "--model", "mlp", "--batch", "32",
                             "--hidden", "128", "--layers", "2", "--workers", "4",
                             "--backend", name]) == 0
            out = capsys.readouterr().out
            assert f"backend: {name}" in out
            assert "PartitionPlan" in out

    def test_partition_command_with_cache_dir(self, tmp_path, capsys):
        argv = ["partition", "--model", "mlp", "--batch", "32", "--hidden", "128",
                "--layers", "2", "--workers", "4", "--cache-dir", str(tmp_path)]
        assert cli_main(argv) == 0
        capsys.readouterr()
        assert list(tmp_path.glob("*.json")), "plan should be persisted"
        assert cli_main(argv) == 0
        out = capsys.readouterr().out
        assert "1 hits" in out

    def test_library_errors_exit_cleanly(self, tmp_path, capsys):
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("")
        assert cli_main(["partition", "--model", "mlp", "--workers", "4",
                         "--cache-dir", str(not_a_dir)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "not usable" in err


class TestBadInputs:
    """Non-positive counts and unwritable paths end in a coded library
    error (``error: ...`` and exit 1 on the CLI), never a traceback or a
    silently rewritten value."""

    MLP = ["--model", "mlp", "--batch", "16", "--hidden", "128",
           "--layers", "2"]

    @pytest.mark.parametrize("num_workers", [0, -2])
    def test_compile_rejects_non_positive_num_workers(self, mlp_bundle,
                                                      num_workers):
        from repro.errors import SimulationError

        # The machine refuses the count before any compile starts.
        with pytest.raises(SimulationError, match="at least one device"):
            repro.compile(
                mlp_bundle.graph, "tofu", k80_8gpu_machine(num_workers)
            )

    def test_save_failure_leaves_no_temp_file(self, mlp_bundle, tmp_path):
        from repro.errors import StrategyError

        model = repro.compile(mlp_bundle.graph, "single", k80_8gpu_machine(1))
        target = tmp_path / "taken"
        target.mkdir()
        with pytest.raises(StrategyError, match="cannot save"):
            model.save(str(target))
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]

    @pytest.mark.parametrize("flags, message", [
        (["--workers", "0"], "at least one device"),
        (["--workers", "2", "--machines", "0"], "at least one machine"),
    ])
    def test_compile_rejects_non_positive_counts(self, capsys, flags, message):
        assert cli_main(["compile", *self.MLP, *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err

    @pytest.mark.parametrize("argv, message", [
        (["compile", "--jobs", "2"], "unrecognized arguments: --jobs"),
        (["partition", "--jobs", "2"], "unrecognized arguments: --jobs"),
        (["compile", "--model", "wresnet", "--depth", "7"],
         "invalid choice: 7 (choose from 50, 101, 152)"),
        (["cache", "stats"], "invalid choice: 'cache'"),
        (["tune"], "invalid choice: 'tune'"),
    ], ids=["jobs-compile", "jobs-partition", "depth", "cache", "tune"])
    def test_usage_errors_exit_2(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    def test_verify_does_not_create_a_missing_directory(self, tmp_path,
                                                         capsys):
        missing = tmp_path / "missing"
        assert cli_main(["verify", str(missing / "model.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(missing) in err
        assert not missing.exists()

    def test_save_into_a_missing_directory_exits_cleanly(
        self, tmp_path, capsys
    ):
        path = tmp_path / "missing" / "model.json"
        assert cli_main(["compile", *self.MLP, "--workers", "2",
                         "--save", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "cannot save" in err
        assert not (tmp_path / "missing").exists()


class TestClusterCLI:
    MLP = ["--model", "mlp", "--batch", "32", "--hidden", "128", "--layers", "4"]

    def test_compile_with_machines_flag(self, capsys):
        assert cli_main(["compile", *self.MLP, "--workers", "2",
                         "--machines", "2",
                         "--strategy", "machines:2/dp:2/tofu"]) == 0
        out = capsys.readouterr().out
        assert "topology: 2 machines x 2 GPUs" in out
        assert "strategy: machines:2/dp:2/tofu" in out
        assert "throughput" in out

    def test_compile_with_preset(self, capsys):
        assert cli_main(["compile", *self.MLP, "--preset", "p2_8xlarge_x2",
                         "--strategy", "machines:2/dp:2/tofu",
                         "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "topology: 2 machines x 8 GPUs" in out
        assert "executor: hybrid" in out

    def test_simulate_pipeline_on_cluster(self, capsys):
        assert cli_main(["compile", *self.MLP, "--workers", "2",
                         "--machines", "2",
                         "--strategy", "pipeline:2:1f1b:2"]) == 0
        out = capsys.readouterr().out
        assert "pipeline: 2 stages" in out

    def test_auto_dry_run_lists_machine_candidates(self, capsys):
        assert cli_main(["compile", *self.MLP, "--workers", "2",
                         "--machines", "2", "--strategy", "auto",
                         "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "machines:2/tofu" in out

    def test_machines_strategy_without_cluster_errors_cleanly(self, capsys):
        assert cli_main(["compile", *self.MLP, "--workers", "4",
                         "--strategy", "machines:2/tofu"]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "at least 2 machine" in err
