"""Tests for ``repro.compile``: backend parity, auto sweep, save/load,
and strategy-aware plan-cache keys."""

import json
import warnings

import pytest

import repro
from repro.compiler import SAVE_VERSION, CompiledModel
from repro.errors import StrategyError, TDLError, UnknownOperatorError
from repro.planner import Planner, PlannerConfig, plan_cache_key
from repro.partition.plan import factorize_workers
from repro.runtime import Executor
from repro.sim.device import k80_8gpu_machine
from repro.strategy import dp, pipeline, single, swap, tofu
from repro.tuner import Tuner

MACHINE = k80_8gpu_machine(4)


class TestCompile:
    def test_returns_compiled_model_with_report(self, mlp_bundle):
        model = repro.compile(mlp_bundle.graph, "tofu", MACHINE)
        assert isinstance(model, CompiledModel)
        assert model.backend == "tofu-partitioned"
        assert model.plan is not None and model.plan.num_workers == 4
        assert model.result is not None and model.iteration_time > 0
        assert model.throughput(mlp_bundle.batch_size) > 0
        assert model.strategy_text == "tofu"
        assert "strategy: tofu" in model.summary()

    def test_accepts_strategy_objects_and_strings(self, mlp_bundle):
        by_text = repro.compile(mlp_bundle.graph, "dp:2/tofu", MACHINE)
        by_tree = repro.compile(mlp_bundle.graph, dp(2) / tofu(), MACHINE)
        assert by_text.iteration_time == by_tree.iteration_time
        assert by_text.strategy == by_tree.strategy

    def test_num_workers_shorthand(self, mlp_bundle):
        """The old ``num_workers=N`` shorthand is ``k80_8gpu_machine(N)``;
        with no machine at all, a compile runs on the paper's 8-GPU box."""
        model = repro.compile(mlp_bundle.graph, "single", k80_8gpu_machine(2))
        assert model.machine.num_devices == 2
        assert repro.compile(mlp_bundle.graph, "single").machine.num_devices == 8

    def test_simulate_false_stops_after_planning(self, mlp_bundle):
        """What ``simulate=False`` gave is a ``lower_only`` compile: the
        plan, and no simulated result."""
        model = repro.compile(
            mlp_bundle.graph, "tofu", MACHINE, lower_only=True
        )
        assert model.plan is not None
        assert model.result is None and model.iteration_time == 0.0

    def test_lower_only_defers_simulation(self, mlp_bundle):
        model = repro.compile(
            mlp_bundle.graph, "dp:2/tofu", MACHINE, lower_only=True
        )
        assert model.program is not None and model.result is None
        assert model.program.per_device_peak_bytes > 0  # memory report ready
        result = model.simulate()
        assert model.result is result
        assert model.iteration_time == result.iteration_time
        full = repro.compile(mlp_bundle.graph, "dp:2/tofu", MACHINE)
        assert model.iteration_time == full.iteration_time
        assert model.simulate() is result  # idempotent

    def test_deferred_pipeline_simulation_matches_a_direct_compile(
        self, rnn_bundle
    ):
        """A pipelined ``lower_only`` compile completed by ``simulate()`` is
        the direct compile: same result, summary (bubble line included) and
        saved form."""
        strategy = "pipeline:2:1f1b:4"
        direct = repro.compile(rnn_bundle.graph, strategy, MACHINE)
        deferred = repro.compile(
            rnn_bundle.graph, strategy, MACHINE, lower_only=True
        )
        deferred.simulate()
        assert deferred.result == direct.result
        assert deferred.summary() == direct.summary()
        assert "pipeline: 2 stages x 4 micro-batches (1f1b), bubble" in (
            direct.summary()
        )
        assert deferred.to_dict() == direct.to_dict()

    def test_lower_only_summary_says_not_simulated(self):
        """A ``lower_only`` model holds its program but no result: its
        summary shows the program and says it was not simulated, rather
        than claiming loaded metadata."""
        from repro.models import build_rnn

        graph = build_rnn(
            num_layers=2, hidden_size=256, seq_len=4, batch_size=16
        ).graph
        model = repro.compile(graph, "pipeline:2:1f1b:4", lower_only=True)
        lines = model.summary().splitlines()
        assert lines[0] == "strategy: pipeline:2:1f1b:4/single"
        assert lines[1] == model.program.summary()
        assert lines[2:] == ["not simulated"]
        assert "loaded metadata" not in model.summary()
        loaded = CompiledModel.from_dict(model.to_dict())
        assert loaded.summary().endswith("ms (loaded metadata)")

    def test_a_model_that_does_not_fit_has_no_throughput(self):
        from repro.models import build_rnn

        bundle = build_rnn(num_layers=6, hidden_size=4096, batch_size=512)
        model = repro.compile(bundle.graph, "single", k80_8gpu_machine())
        assert model.oom and model.iteration_time > 0
        assert model.throughput(bundle.batch_size) == 0.0
        assert model.result.throughput(bundle.batch_size) == 0.0

    def test_simulate_requires_a_program(self, mlp_bundle, tmp_path):
        model = repro.compile(mlp_bundle.graph, "tofu", MACHINE)
        path = str(tmp_path / "m.json")
        model.save(path)
        loaded = CompiledModel.load(path)
        with pytest.raises(StrategyError, match="no lowered program"):
            loaded.simulate()

    def test_hybrid_parity_with_direct_executor(self, rnn_bundle):
        """The acceptance-criteria parity: the composed strategy simulates
        exactly like the hybrid backend configured with the same params."""
        model = repro.compile(
            rnn_bundle.graph, "dp:2/pipeline:2:1f1b:4/tofu", MACHINE
        )
        executor = Executor()
        direct = executor.lower(
            rnn_bundle.graph,
            machine=MACHINE,
            backend="hybrid",
            backend_options={
                "replica_groups": 2,
                "inner": "pipeline",
                "inner_options": {
                    "num_stages": 2, "num_microbatches": 4, "schedule": "1f1b",
                },
            },
        )
        assert model.backend == "hybrid"
        assert model.iteration_time == executor.simulate(direct).iteration_time
        assert model.program.total_comm_bytes == direct.total_comm_bytes

    def test_pipeline_parity_with_direct_executor(self, rnn_bundle):
        model = repro.compile(rnn_bundle.graph, "pipeline:2:gpipe:4", MACHINE)
        executor = Executor()
        direct = executor.lower(
            rnn_bundle.graph,
            machine=MACHINE,
            backend="pipeline",
            backend_options={
                "num_stages": 2, "num_microbatches": 4, "schedule": "gpipe",
            },
        )
        assert model.iteration_time == executor.simulate(direct).iteration_time

    def test_dp_tofu_parity_with_direct_executor(self, mlp_bundle):
        planner = Planner()
        model = repro.compile(
            mlp_bundle.graph, "dp:2/tofu", MACHINE, planner=planner
        )
        plan = planner.plan(
            mlp_bundle.graph, 2,
            machine=model.program.machine, backend="tofu",
        )
        executor = Executor()
        direct = executor.lower(
            mlp_bundle.graph,
            plan=model.plan,
            machine=MACHINE,
            backend="hybrid",
            backend_options={"replica_groups": 2, "inner": "tofu-partitioned"},
        )
        assert model.plan.num_workers == 2 == plan.num_workers
        assert model.iteration_time == executor.simulate(direct).iteration_time

    def test_degenerate_strategy_matches_single_device(self, mlp_bundle):
        collapsed = repro.compile(
            mlp_bundle.graph, "pipeline:1:1f1b:1/single", MACHINE
        )
        direct = repro.compile(mlp_bundle.graph, "single", MACHINE)
        assert collapsed.strategy == direct.strategy == single()
        assert collapsed.iteration_time == direct.iteration_time

    def test_swap_strategy(self, mlp_bundle):
        model = repro.compile(mlp_bundle.graph, swap(), MACHINE)
        assert model.backend == "swap"
        assert model.iteration_time > 0

    def test_placement_strategy(self, mlp_bundle):
        model = repro.compile(mlp_bundle.graph, "placement", MACHINE)
        assert model.backend == "placement"
        assert model.iteration_time > 0

    def test_bare_tofu_is_the_tofu_search(self, mlp_bundle):
        """The strategy text alone names the search: a bare ``tofu`` plans
        with the ``tofu`` backend whatever planner runs it, and another
        search is spelled ``tofu:<backend>``."""
        for planner in (None, Planner(PlannerConfig(cache_capacity=0))):
            model = repro.compile(
                mlp_bundle.graph, "tofu", MACHINE, planner=planner
            )
            assert model.plan.algorithm.startswith("tofu")
            assert model.strategy_text == "tofu"
            spartan = repro.compile(
                mlp_bundle.graph, "tofu:spartan", MACHINE, planner=planner
            )
            assert spartan.plan.algorithm == "spartan"
            assert spartan.strategy_text == "tofu:spartan"

    def test_backend_options_override(self, mlp_bundle):
        """Execution-backend options beyond the strategy's are an Executor
        concern, not a compile argument."""
        fused = repro.compile(mlp_bundle.graph, "tofu", MACHINE)
        unfused = Executor().lower(
            mlp_bundle.graph, plan=fused.plan, machine=MACHINE,
            backend="tofu-partitioned",
            backend_options={"fuse_remote_fetch": False},
        )
        assert len(unfused.tasks) >= len(fused.program.tasks)


class TestAuto:
    def test_auto_no_slower_than_tofu_on_rnn(self, rnn_bundle):
        planner = Planner()
        plain = repro.compile(
            rnn_bundle.graph, "tofu", MACHINE, planner=planner
        )
        auto = repro.compile(
            rnn_bundle.graph, "auto", MACHINE, planner=planner
        )
        assert auto.iteration_time <= plain.iteration_time
        assert not auto.oom
        outcomes = auto.metadata["tuner"]["outcomes"]
        assert any(outcome["strategy"] == "tofu" for outcome in outcomes)

    def test_auto_with_explicit_candidates(self, mlp_bundle):
        result = Tuner().tune(
            mlp_bundle.graph, MACHINE, candidates=["single", dp(2) / tofu()]
        )
        assert str(result.best.strategy) in {"single", "dp:2/tofu"}
        assert len(result.outcomes) == 2

    def test_auto_records_failed_candidates(self, mlp_bundle):
        result = Tuner().tune(
            mlp_bundle.graph, MACHINE,
            candidates=["single", "pipeline:128:1f1b:4"],
        )
        assert any(outcome.status == "error" for outcome in result.outcomes)
        assert str(result.best.strategy) == "single"

    def test_auto_with_no_viable_candidate_raises(self, mlp_bundle):
        with pytest.raises(StrategyError, match="no executable candidate"):
            Tuner().tune(
                mlp_bundle.graph, MACHINE, candidates=["pipeline:128:1f1b:4"]
            )

    def test_auto_rejects_single_strategy_arguments(self, mlp_bundle):
        with pytest.raises(StrategyError, match="lower_only"):
            repro.compile(mlp_bundle.graph, "auto", MACHINE, lower_only=True)


def _saved(**changes):
    """A mutation of a valid save payload: set each field, or delete it when
    the value is ``...``; returns the file text."""
    def mutate(payload):
        for key, value in changes.items():
            if value is ...:
                del payload[key]
            else:
                payload[key] = value
        return json.dumps(payload)

    return mutate


#: Files ``CompiledModel.load`` must refuse with a StrategyError — never an
#: uncoded error, never a model that loads half-built.
MALFORMED_MODEL_FILES = {
    "empty-file": lambda payload: "",
    "truncated-json": lambda payload: json.dumps(payload)[:40],
    "top-level-list": lambda payload: "[]",
    "header-only": lambda payload: json.dumps(
        {"format": "repro-compiled-model", "version": SAVE_VERSION}
    ),
    "future-version": _saved(version=SAVE_VERSION + 1),
    "version-1-dict-strategy": _saved(
        version=1, strategy={"kind": "dp", "groups": 2,
                             "inner": {"kind": "tofu", "backend": None}},
    ),
    "no-version": _saved(version=...),
    "no-machine": _saved(machine=...),
    "strategy-not-an-object": _saved(strategy=[]),
    "unknown-combinator": _saved(strategy="bogus"),
    "machine-not-an-object": _saved(machine="k80"),
    "plan-without-steps": _saved(plan={"num_workers": 4}),
    "program-metadata-a-list": _saved(program=[1, 2]),
}


class TestSaveLoad:
    def test_round_trip_plan_and_program_metadata(self, mlp_bundle, tmp_path):
        model = repro.compile(mlp_bundle.graph, "dp:2/tofu", MACHINE)
        path = str(tmp_path / "model.json")
        model.save(path)
        loaded = CompiledModel.load(path)
        assert loaded.strategy == model.strategy
        assert loaded.machine == model.machine
        assert loaded.plan == model.plan
        assert loaded.backend == model.backend
        assert loaded.iteration_time == model.iteration_time
        assert loaded.oom == model.oom
        assert loaded.metadata["num_devices"] == model.program.num_devices
        assert loaded.metadata["num_tasks"] == len(model.program.tasks)
        assert "loaded metadata" in loaded.summary()

    def test_round_trip_without_plan(self, rnn_bundle, tmp_path):
        model = repro.compile(rnn_bundle.graph, "pipeline:2:1f1b:4", MACHINE)
        path = str(tmp_path / "pipeline.json")
        model.save(path)
        loaded = CompiledModel.load(path)
        assert loaded.plan is None
        # compile stores the normalized strategy: the open pipeline wrapper
        # is closed with an explicit single() leaf.
        assert loaded.strategy == pipeline(2, "1f1b", 4) / single()
        assert loaded.metadata["num_microbatches"] == 4

    def test_load_rejects_foreign_payloads(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(StrategyError, match="not a repro-compiled-model"):
            CompiledModel.load(str(path))

    @pytest.mark.parametrize("case", sorted(MALFORMED_MODEL_FILES))
    def test_malformed_files_raise_strategy_error(
        self, case, mlp_bundle, tmp_path
    ):
        payload = repro.compile(mlp_bundle.graph, "dp:2/tofu", MACHINE).to_dict()
        path = tmp_path / "model.json"
        path.write_text(MALFORMED_MODEL_FILES[case](payload), encoding="utf-8")
        with pytest.raises(StrategyError):
            CompiledModel.load(str(path))

    def test_load_rejects_missing_file(self, tmp_path):
        with pytest.raises(StrategyError, match="not a readable"):
            CompiledModel.load(str(tmp_path / "absent.json"))


class TestStrategyCacheKey:
    def test_differing_strategies_never_collide(self, mlp_bundle):
        """Regression: the cache key covers the full strategy config, so two
        hybrid/pipeline configurations differing only in schedule or
        micro-batch count get distinct entries."""
        graph = mlp_bundle.graph
        factors = factorize_workers(2)
        base = dict(
            graph=graph, factors=factors, machine=MACHINE,
            backend="tofu", backend_options={},
        )
        keys = {
            plan_cache_key(**base, strategy=s)
            for s in (
                dp(2) / pipeline(2, "1f1b", 4) / tofu(),
                dp(2) / pipeline(2, "gpipe", 4) / tofu(),
                dp(2) / pipeline(2, "1f1b", 8) / tofu(),
                dp(2) / pipeline(4, "1f1b", 4) / tofu(),
                dp(2) / tofu(),
                None,
            )
        }
        assert len(keys) == 6

    def test_planner_keeps_separate_entries_per_strategy(self, mlp_bundle):
        planner = Planner()
        s1 = dp(2) / pipeline(2, "1f1b", 4) / tofu()
        s2 = dp(2) / pipeline(2, "1f1b", 8) / tofu()
        planner.plan(mlp_bundle.graph, 2, strategy=s1)
        assert planner.cache_info()["misses"] == 1
        planner.plan(mlp_bundle.graph, 2, strategy=s2)
        assert planner.cache_info()["misses"] == 2  # no collision: re-searched
        planner.plan(mlp_bundle.graph, 2, strategy=s1)
        assert planner.cache_info()["hits"] == 1

    def test_repeated_compile_hits_the_cache(self, mlp_bundle):
        planner = Planner()
        repro.compile(mlp_bundle.graph, "dp:2/tofu", MACHINE, planner=planner)
        before = planner.cache_info()["hits"]
        repro.compile(mlp_bundle.graph, "dp:2/tofu", MACHINE, planner=planner)
        assert planner.cache_info()["hits"] == before + 1


class TestLegacyDeprecation:
    """The pre-``compile`` entry points are gone, and so is every
    deprecation path: a default compile warns about nothing."""

    def test_default_call_does_not_warn(self, mlp_bundle):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            result = repro.compile(mlp_bundle.graph, machine=MACHINE).result
        assert result.iteration_time > 0
        assert not hasattr(repro, "partition_and_simulate")
        assert not hasattr(repro, "partition_graph")


class TestDescribeOperatorErrors:
    def test_unknown_operator_raises_unknown_operator_error(self):
        with pytest.raises(UnknownOperatorError, match="no_such_operator"):
            repro.describe_operator("no_such_operator")

    def test_missing_tdl_raises_tdl_error_with_name(self):
        from repro.ops.registry import OPS, register_op

        register_op(
            "_strategy_test_no_tdl",
            lambda shapes, attrs: [tuple(shapes[0])],
            category="test",
        )
        try:
            with pytest.raises(TDLError, match="_strategy_test_no_tdl"):
                repro.describe_operator("_strategy_test_no_tdl")
        finally:
            OPS.pop("_strategy_test_no_tdl", None)

    def test_elementwise_without_tdl_raises_tdl_error_with_name(self):
        from repro.ops.registry import OPS, register_op

        register_op(
            "_strategy_test_elementwise",
            lambda shapes, attrs: [tuple(shapes[0])],
            category="test",
            elementwise=True,
        )
        try:
            with pytest.raises(TDLError, match="_strategy_test_elementwise"):
                repro.describe_operator("_strategy_test_elementwise")
        finally:
            OPS.pop("_strategy_test_elementwise", None)

    def test_re_registration_replaces_the_described_strategies(self):
        """``describe_operator`` reads the description the cost model
        prices: re-registering an operator without a TDL description
        leaves it nothing to describe."""
        from repro.ops.registry import OPS, get_op, register_op

        original = OPS["matmul"]
        assert len(repro.describe_operator("matmul")) == 3
        register_op(
            "matmul",
            original.infer_shape,
            flops=original.flops,
            gradient=original.gradient,
            category=original.category,
        )
        try:
            assert get_op("matmul").tdl is None
            with pytest.raises(TDLError, match="matmul"):
                repro.describe_operator("matmul")
        finally:
            OPS["matmul"] = original
        assert len(repro.describe_operator("matmul")) == 3
