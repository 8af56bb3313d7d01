"""Tests for the strategy mini-language: round-trips, degenerate parity,
invalid-input diagnostics, and the lowering interpreter."""

import json

import pytest

from repro.compiler import CompiledModel
from repro.errors import StrategyError
from repro.planner import plan_cache_key
from repro.sim.device import k80_8gpu_machine
from repro.strategy import (
    dp,
    lower_strategy,
    normalize,
    parse,
    pipeline,
    placement,
    single,
    swap,
    tofu,
    weight_shards,
)
from repro.tuner import TunerBudget, tuner_candidates

# A representative sample of the expression space (leaves, one wrapper,
# composed chains, non-default parameters).
SAMPLE_STRATEGIES = [
    tofu(),
    tofu("spartan"),
    single(),
    placement(),
    swap(),
    dp(2) / tofu(),
    dp(4) / single(),
    pipeline(4, "1f1b", 8),
    pipeline(2, "gpipe", 2),
    pipeline(3),
    dp(2) / pipeline(4, "1f1b", 8) / tofu(),
    dp(2) / pipeline(2, "gpipe", 4) / single(),
    dp(8) / tofu("icml18"),
]

MACHINE = k80_8gpu_machine(4)


class TestRoundTrips:
    @pytest.mark.parametrize(
        "strategy", SAMPLE_STRATEGIES, ids=[str(s) for s in SAMPLE_STRATEGIES]
    )
    def test_string_round_trip(self, strategy):
        assert parse(str(strategy)) == strategy

    @pytest.mark.parametrize(
        "strategy", SAMPLE_STRATEGIES, ids=[str(s) for s in SAMPLE_STRATEGIES]
    )
    def test_dict_round_trip(self, strategy):
        """The one dict a strategy lives in is a saved model's payload,
        which stores the canonical string and parses it back."""
        payload = CompiledModel(strategy=strategy, machine=MACHINE).to_dict()
        assert payload["strategy"] == str(strategy)
        loaded = CompiledModel.from_dict(json.loads(json.dumps(payload)))
        assert loaded.strategy == strategy

    @pytest.mark.parametrize(
        "strategy", SAMPLE_STRATEGIES, ids=[str(s) for s in SAMPLE_STRATEGIES]
    )
    def test_signature_is_stable_and_distinct(self, strategy, mlp_bundle):
        """The plan-cache key folds in the canonical string: equal for a
        reparsed strategy, distinct across the sample."""
        def key(s):
            return plan_cache_key(
                mlp_bundle.graph, (2,), MACHINE, "tofu", {}, strategy=s
            )

        assert key(strategy) == key(parse(str(strategy)))
        others = [s for s in SAMPLE_STRATEGIES if s != strategy]
        assert key(strategy) not in {key(s) for s in others}

    def test_canonical_string_form(self):
        s = dp(2) / pipeline(4, "1f1b", 8) / tofu()
        assert str(s) == "dp:2/pipeline:4:1f1b:8/tofu"
        assert str(tofu("spartan")) == "tofu:spartan"

    def test_parse_defaults_for_pipeline(self):
        assert parse("pipeline:4") == pipeline(4, "1f1b", 4)
        assert parse("pipeline:4:gpipe") == pipeline(4, "gpipe", 4)

    def test_parse_accepts_whitespace(self):
        assert parse(" dp:2 / tofu ") == dp(2) / tofu()

    def test_truediv_accepts_strings(self):
        composed = dp(2) / "pipeline:2:1f1b:4/tofu"
        assert composed == dp(2) / pipeline(2, "1f1b", 4) / tofu()


class TestDegenerateParity:
    def test_dp1_collapses(self):
        assert dp(1) / tofu() == tofu()
        collapsed = dp(1) / pipeline(2, "1f1b", 4) / single()
        assert collapsed == pipeline(2, "1f1b", 4) / single()

    def test_trivial_pipeline_collapses(self):
        assert pipeline(1, "1f1b", 1) / single() == single()
        assert pipeline(1, "gpipe", 1) / tofu() == tofu()

    def test_collapse_applies_at_parse_time(self):
        assert parse("dp:1/tofu") == tofu()
        assert parse("pipeline:1:1f1b:1/swap") == swap()

    def test_normalize_closes_open_wrappers_with_single(self):
        assert normalize(dp(2)) == dp(2) / single()
        assert normalize(pipeline(2)) == pipeline(2) / single()
        assert normalize(dp(1)) == single()


class TestInvalidInputs:
    @pytest.mark.parametrize(
        "text, match",
        [
            ("frobnicate", "unknown strategy combinator 'frobnicate'"),
            ("dp", "exactly one group-count argument"),
            ("dp:x", "must be an integer"),
            ("dp:0", "positive integer group count"),
            ("pipeline", "takes stages"),
            ("pipeline:2:bogus", "unknown pipeline schedule 'bogus'"),
            ("pipeline:2:1f1b:0", "positive integer micro-batch count"),
            ("single:1", "takes no arguments"),
            ("tofu:a:b", "at most one search-backend argument"),
            ("dp:2//tofu", "empty strategy segment"),
            ("", "empty strategy segment"),
            ("auto", "not a parseable strategy"),
        ],
    )
    def test_parse_errors_name_the_problem(self, text, match):
        with pytest.raises(StrategyError, match=match):
            parse(text)

    def test_leaves_cannot_wrap(self):
        with pytest.raises(StrategyError, match="leaf combinator"):
            tofu() / single()
        with pytest.raises(StrategyError, match="leaf combinator"):
            dp(2) / single() / tofu()

    def test_combinators_validate_arguments(self):
        with pytest.raises(StrategyError, match="positive integer group count"):
            dp(0)
        with pytest.raises(StrategyError, match="positive integer stage count"):
            pipeline(0)
        with pytest.raises(StrategyError, match="unknown pipeline schedule"):
            pipeline(2, "interleaved")
        with pytest.raises(StrategyError, match="search-backend name"):
            tofu("")
        # Names the canonical string cannot spell back.
        for name in ("a:b", "x/y", " spartan"):
            with pytest.raises(StrategyError, match="cannot be spelled"):
                tofu(name)


class TestLowering:
    MACHINE = k80_8gpu_machine()

    def test_leaves(self):
        assert lower_strategy(single(), self.MACHINE).backend == "single-device"
        assert lower_strategy(swap(), self.MACHINE).backend == "swap"
        low = lower_strategy(tofu(), self.MACHINE)
        assert low.backend == "tofu-partitioned"
        assert low.plan_workers == 8
        # A bare tofu leaf is the tofu search, whatever planner runs it.
        assert low.plan_backend == "tofu"
        assert lower_strategy(tofu("joint"), self.MACHINE).plan_backend == "joint"

    def test_tofu_on_one_device_degenerates_to_single(self):
        low = lower_strategy(tofu(), k80_8gpu_machine(1))
        assert low.backend == "single-device"
        assert low.plan_workers is None

    def test_dp_lowers_to_hybrid_with_group_plan(self):
        low = lower_strategy(dp(2) / tofu("spartan"), self.MACHINE)
        assert low.backend == "hybrid"
        assert low.options["replica_groups"] == 2
        assert low.options["inner"] == "tofu-partitioned"
        assert low.plan_workers == 4  # one replica group of the 8 devices
        assert low.plan_backend == "spartan"
        assert low.plan_machine.num_devices == 4

    def test_pipeline_parameters_pass_through(self):
        low = lower_strategy(pipeline(4, "gpipe", 8), self.MACHINE)
        assert low.backend == "pipeline"
        assert low.options == {
            "num_stages": 4, "num_microbatches": 8, "schedule": "gpipe",
        }

    def test_composed_chain_lowers_to_hybrid_pipeline(self):
        low = lower_strategy(
            dp(2) / pipeline(2, "1f1b", 4) / tofu(), self.MACHINE
        )
        assert low.backend == "hybrid"
        assert low.options["inner"] == "pipeline"
        assert low.options["inner_options"] == {
            "num_stages": 2, "num_microbatches": 4, "schedule": "1f1b",
        }
        assert low.plan_workers is None  # pipeline stages need no plan

    def test_indivisible_groups_rejected(self):
        with pytest.raises(StrategyError, match="divisible"):
            lower_strategy(dp(3) / tofu(), self.MACHINE)

    def test_too_many_stages_rejected(self):
        with pytest.raises(StrategyError, match="stages"):
            lower_strategy(pipeline(16), self.MACHINE)

    def test_dp_cannot_nest_dp(self):
        nested = parse("dp:2/dp:2/tofu")
        with pytest.raises(StrategyError, match="cannot nest"):
            lower_strategy(nested, self.MACHINE)

    def test_multi_device_strategy_inside_pipeline_rejected(self):
        bad = parse("pipeline:2:1f1b:4/swap")
        with pytest.raises(StrategyError, match="single device"):
            lower_strategy(bad, self.MACHINE)

    def test_weight_shards(self):
        assert weight_shards(tofu(), self.MACHINE) == 8
        assert weight_shards(dp(2) / tofu(), self.MACHINE) == 4
        assert weight_shards(pipeline(4), self.MACHINE) == 4
        assert weight_shards(dp(2) / pipeline(2, "1f1b", 4) / tofu(),
                             self.MACHINE) == 2
        assert weight_shards(dp(8) / single(), self.MACHINE) == 1


class TestAutoCandidates:
    """``strategy="auto"`` sweeps the autotuner's grid under a budget."""

    def test_always_contains_tofu_and_single(self):
        candidates = tuner_candidates(k80_8gpu_machine())
        assert [str(c) for c in candidates[:2]] == ["tofu", "single"]

    def test_candidates_are_unique_and_bounded(self):
        admitted, cut = TunerBudget(max_candidates=5).split(
            tuner_candidates(k80_8gpu_machine())
        )
        assert len(admitted) == 5 and cut
        assert len({str(c) for c in admitted}) == 5

    def test_composed_candidates_respect_device_divisibility(self):
        machine = k80_8gpu_machine(8)
        for candidate in tuner_candidates(machine):
            lower_strategy(candidate, machine)  # must not raise
