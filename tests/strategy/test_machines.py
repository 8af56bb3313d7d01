"""The ``machines(M)`` combinator: round-trips, degenerate collapse,
placement rules, lowering onto cluster slices, plan-cache key separation,
the widened ``auto`` sweep, and the compile path on clusters."""

from __future__ import annotations

import pytest

import repro
from repro.compiler import CompiledModel
from repro.errors import StrategyError
from repro.partition.plan import factorize_workers
from repro.planner import Planner, plan_cache_key
from repro.sim.device import ClusterSpec, cluster_of, k80_8gpu_machine
from repro.strategy import (
    dp,
    lower_strategy,
    machines,
    parse,
    pipeline,
    single,
    tofu,
    weight_shards,
)
from repro.tuner import Tuner, tuner_candidates

CLUSTER = cluster_of(k80_8gpu_machine(2), 2)


class TestAlgebra:
    def test_string_round_trip(self):
        for text in (
            "machines:2/tofu",
            "machines:2/dp:2/tofu",
            "machines:4/pipeline:4:gpipe:8/tofu",
            "machines:3/single",
        ):
            assert str(parse(text)) == text

    def test_construction_matches_parse(self):
        assert machines(2) / dp(2) / tofu() == parse("machines:2/dp:2/tofu")
        assert machines(2, dp(2) / tofu()) == parse("machines:2/dp:2/tofu")

    def test_degenerate_collapse(self):
        assert machines(1) / tofu() == tofu()
        assert str(parse("machines:1/dp:2/tofu")) == "dp:2/tofu"
        assert machines(1, single()) == single()

    def test_must_be_outermost(self):
        with pytest.raises(StrategyError, match="outermost"):
            dp(2) / machines(2) / tofu()
        with pytest.raises(StrategyError, match="outermost"):
            pipeline(2) / machines(2)
        with pytest.raises(StrategyError, match="outermost"):
            parse("dp:2/machines:2/tofu")
        with pytest.raises(StrategyError, match="outermost"):
            machines(2) / machines(2) / tofu()

    def test_invalid_counts(self):
        with pytest.raises(StrategyError, match="positive integer"):
            machines(0)
        with pytest.raises(StrategyError, match="positive integer"):
            machines(True)
        with pytest.raises(StrategyError, match="integer"):
            parse("machines:x/tofu")
        with pytest.raises(StrategyError, match="exactly one"):
            parse("machines/tofu")
        with pytest.raises(StrategyError, match="exactly one"):
            parse("machines:2:3/tofu")


class TestLowering:
    def test_machines_scopes_the_cluster_slice(self, mlp_bundle):
        four = cluster_of(k80_8gpu_machine(2), 4)
        lowering = lower_strategy(machines(2) / tofu(), four)
        assert lowering.backend == "tofu-partitioned"
        assert lowering.plan_workers == 4          # 2 machines x 2 GPUs
        assert lowering.machine.num_machines == 2  # sliced, not the full 4
        assert str(lowering.strategy) == "machines:2/tofu"

    def test_machines_dp_one_group_per_machine(self):
        lowering = lower_strategy(machines(2) / dp(2) / tofu(), CLUSTER)
        assert lowering.backend == "hybrid"
        assert lowering.options["replica_groups"] == 2
        # Each group is one whole machine: the plan covers its 2 devices.
        assert lowering.plan_workers == 2
        assert lowering.plan_machine.num_machines == 1

    def test_count_must_fit_the_topology(self):
        with pytest.raises(StrategyError, match="at least 4 machine"):
            lower_strategy(machines(4) / tofu(), CLUSTER)
        with pytest.raises(StrategyError, match="at least 2 machine"):
            lower_strategy(machines(2) / tofu(), k80_8gpu_machine(8))

    def test_open_machines_chain_closes_with_single(self):
        lowering = lower_strategy(machines(2), CLUSTER)
        assert lowering.backend == "single-device"

    def test_weight_shards_sees_the_slice(self):
        four = cluster_of(k80_8gpu_machine(2), 4)
        assert weight_shards(machines(2) / tofu(), four) == 4
        assert weight_shards(machines(2) / dp(2) / tofu(), four) == 2
        assert weight_shards(tofu(), four) == 8


class TestCacheKeys:
    def test_distinct_machine_counts_distinct_keys(self, mlp_bundle):
        factors = factorize_workers(4)
        keys = {
            plan_cache_key(
                mlp_bundle.graph, factors, CLUSTER, "tofu", {},
                strategy=strategy,
            )
            for strategy in (
                machines(2) / tofu(),
                machines(3) / tofu(),
                machines(4) / tofu(),
                tofu(),
            )
        }
        assert len(keys) == 4

    def test_compile_caches_per_machine_count(self, mlp_bundle):
        four = cluster_of(k80_8gpu_machine(2), 4)
        planner = Planner()
        repro.compile(mlp_bundle.graph, "machines:2/tofu", four, planner=planner)
        assert planner.cache_info()["misses"] == 1
        repro.compile(mlp_bundle.graph, "machines:2/tofu", four, planner=planner)
        assert planner.cache_info()["hits"] == 1
        repro.compile(mlp_bundle.graph, "machines:3/tofu", four, planner=planner)
        assert planner.cache_info()["misses"] == 2


class TestCompile:
    def test_compile_machines_dp(self, mlp_bundle):
        model = repro.compile(mlp_bundle.graph, "machines:2/dp:2/tofu", CLUSTER)
        assert model.backend == "hybrid"
        assert model.iteration_time > 0
        assert model.strategy_text == "machines:2/dp:2/tofu"

    def test_compile_slices_larger_cluster(self, mlp_bundle):
        four = cluster_of(k80_8gpu_machine(2), 4)
        model = repro.compile(mlp_bundle.graph, "machines:2/tofu", four)
        # The program executes on the 2-machine slice (4 devices).
        assert model.program.num_devices == 4
        # The compiled model records the topology it was compiled for.
        assert model.machine is four

    def test_default_machine_builds_a_cluster(self, mlp_bundle):
        model = repro.compile(mlp_bundle.graph, "machines:2/dp:2/tofu")
        assert isinstance(model.machine, ClusterSpec)
        assert model.machine.num_machines == 2
        assert model.machine.num_devices == 16

    def test_save_load_round_trips_the_cluster(self, mlp_bundle, tmp_path):
        model = repro.compile(mlp_bundle.graph, "machines:2/dp:2/tofu", CLUSTER)
        path = str(tmp_path / "model.json")
        model.save(path)
        loaded = CompiledModel.load(path)
        assert loaded.machine == CLUSTER
        assert loaded.strategy == model.strategy
        assert loaded.iteration_time == model.iteration_time

    def test_count_mismatch_raises_before_search(self, mlp_bundle):
        with pytest.raises(StrategyError, match="at least 3 machine"):
            repro.compile(mlp_bundle.graph, "machines:3/tofu", CLUSTER)


class TestAutoSweep:
    def test_flat_machine_candidates_unchanged(self):
        machine = k80_8gpu_machine(4)
        candidates = [str(c) for c in tuner_candidates(machine)]
        assert "tofu" in candidates and "single" in candidates
        assert all("machines" not in c for c in candidates)

    def test_cluster_sweep_covers_machine_counts(self):
        four = cluster_of(k80_8gpu_machine(2), 4)
        candidates = [str(c) for c in tuner_candidates(four)]
        assert candidates[0] == "tofu"  # never lost to the budget
        assert "machines:2/tofu" in candidates
        assert "machines:4/tofu" in candidates
        assert "machines:2/dp:2/tofu" in candidates
        assert "machines:4/pipeline:4:1f1b:4/tofu" in candidates

    def test_auto_compile_on_cluster(self, mlp_bundle):
        result = Tuner().tune(
            mlp_bundle.graph, CLUSTER,
            candidates=["tofu", "machines:2/dp:2/tofu"],
        )
        assert {outcome.strategy for outcome in result.outcomes} == {
            "tofu", "machines:2/dp:2/tofu",
        }
        assert all(outcome.status != "error" for outcome in result.outcomes)
