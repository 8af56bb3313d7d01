"""Tests for the planner subsystem: backend registry, plan cache, factor-order
candidate search, and the facade's end-to-end flow."""

from __future__ import annotations

import pytest

import repro
from repro.errors import PartitionError
from repro.partition.plan import (
    FROZEN_PLAN,
    PartitionPlan,
    plan_from_dict,
    plan_to_dict,
)
from repro.partition.recursive import recursive_partition
from repro.planner import (
    BackendSpec,
    PlanCache,
    Planner,
    PlannerConfig,
    available_backends,
    candidate_factorizations,
    default_planner,
    get_backend,
    graph_signature,
    machine_signature,
    plan_cache_key,
    register_backend,
    unregister_backend,
)
from repro.sim.device import k80_8gpu_machine, v100_machine

EXPECTED_BACKENDS = {"tofu", "joint", "icml18", "equalchop", "spartan", "allrow-greedy"}


def _same_search(a: PartitionPlan, b: PartitionPlan) -> bool:
    """Equality modulo wall-clock search time."""
    return (
        a.num_workers == b.num_workers
        and a.algorithm == b.algorithm
        and a.steps == b.steps
    )


@pytest.fixture
def counting_backend():
    """A temporary backend that counts how often its search actually runs."""
    calls = {"n": 0}

    def search(graph, num_workers, **options):
        calls["n"] += 1
        return recursive_partition(graph, num_workers, **options)

    register_backend(
        BackendSpec(
            name="counting",
            fn=search,
            description="test",
            option_names=("allow_reduction", "coarse", "max_states"),
        )
    )
    yield calls
    unregister_backend("counting")


# ---------------------------------------------------------------------------
# Backend registry
# ---------------------------------------------------------------------------
class TestBackendRegistry:
    def test_all_builtin_backends_registered(self):
        assert EXPECTED_BACKENDS <= set(available_backends())

    def test_every_registered_backend_resolves(self):
        for name in available_backends():
            spec = get_backend(name)
            assert spec.name == name
            assert callable(spec.fn)

    def test_every_registered_backend_produces_a_plan(self, mlp_bundle):
        planner = Planner(PlannerConfig(cache_capacity=0))
        for name in available_backends():
            plan = planner.plan(mlp_bundle.graph, 4, backend=name)
            assert plan.num_workers == 4
            assert plan.total_comm_bytes >= 0

    def test_unknown_backend_raises(self):
        with pytest.raises(PartitionError, match="unknown search backend"):
            get_backend("no-such-backend")

    def test_duplicate_registration_rejected(self):
        spec = get_backend("tofu")
        with pytest.raises(PartitionError, match="already registered"):
            register_backend(spec)

    def test_factor_order_backend_takes_factors_keyword(self, mlp_bundle):
        seen = []

        def search(graph, num_workers, factors=None):
            seen.append(factors)
            return recursive_partition(graph, num_workers, factors=factors)

        register_backend(
            BackendSpec(name="ordered", fn=search, supports_factor_orders=True)
        )
        try:
            spec = get_backend("ordered")
            spec.search(mlp_bundle.graph, 4, factors=(2, 2))
            spec.search(mlp_bundle.graph, 4)
        finally:
            unregister_backend("ordered")
        assert seen == [(2, 2), None]

    def test_unsupported_option_rejected_cleanly(self, mlp_bundle):
        with pytest.raises(PartitionError, match="does not accept option"):
            Planner().plan(
                mlp_bundle.graph, 4, backend="spartan",
                backend_options={"allow_reduction": False},
            )


# ---------------------------------------------------------------------------
# Plan cache
# ---------------------------------------------------------------------------
class TestPlanCache:
    def test_cache_hit_returns_equal_plan_without_research(
        self, mlp_bundle, counting_backend
    ):
        planner = Planner()
        first = planner.plan(mlp_bundle.graph, 4, backend="counting")
        second = planner.plan(mlp_bundle.graph, 4, backend="counting")
        assert counting_backend["n"] == 1
        # The memory tier holds the (frozen) plan itself: a hit decodes
        # nothing and returns the very object the search produced.
        assert first is second
        assert planner.cache_info()["hits"] == 1
        assert planner.cache_info()["misses"] == 1

    def test_cached_plan_is_mutation_safe(self, mlp_bundle):
        planner = Planner()
        first = planner.plan(mlp_bundle.graph, 4)
        steps = list(first.steps)
        with pytest.raises(PartitionError) as excinfo:
            first.steps.clear()
        assert excinfo.value.code == FROZEN_PLAN
        second = planner.plan(mlp_bundle.graph, 4)
        assert second is first
        assert list(second.steps) == steps, "a refused edit leaves the cache intact"

    def test_cache_key_changes_with_machine_spec(self, mlp_bundle):
        factors = [2, 2]
        k80 = plan_cache_key(mlp_bundle.graph, factors, k80_8gpu_machine(4), "tofu", {})
        v100 = plan_cache_key(mlp_bundle.graph, factors, v100_machine(4), "tofu", {})
        none = plan_cache_key(mlp_bundle.graph, factors, None, "tofu", {})
        assert len({k80, v100, none}) == 3

    def test_cache_key_changes_with_backend_config(self, mlp_bundle):
        factors = [2, 2]
        base = plan_cache_key(mlp_bundle.graph, factors, None, "counting", {})
        no_red = plan_cache_key(
            mlp_bundle.graph, factors, None, "counting", {"allow_reduction": False}
        )
        other = plan_cache_key(mlp_bundle.graph, factors, None, "spartan", {})
        assert len({base, no_red, other}) == 3

    def test_cache_key_changes_with_graph_and_factorization(
        self, mlp_bundle, rnn_bundle
    ):
        a = plan_cache_key(mlp_bundle.graph, [2, 2], None, "tofu", {})
        b = plan_cache_key(rnn_bundle.graph, [2, 2], None, "tofu", {})
        c = plan_cache_key(mlp_bundle.graph, [2, 2, 2], None, "tofu", {})
        assert len({a, b, c}) == 3

    def test_distinct_backend_options_get_distinct_plans(
        self, mlp_bundle, counting_backend
    ):
        planner = Planner()
        planner.plan(mlp_bundle.graph, 4, backend="counting")
        planner.plan(
            mlp_bundle.graph, 4, backend="counting",
            backend_options={"allow_reduction": False},
        )
        assert counting_backend["n"] == 2

    def test_cache_key_changes_with_explore_flag(self, mlp_bundle):
        explored = plan_cache_key(
            mlp_bundle.graph, [2, 2], None, "tofu", {}, explore_factor_orders=True
        )
        fixed = plan_cache_key(
            mlp_bundle.graph, [2, 2], None, "tofu", {}, explore_factor_orders=False
        )
        assert explored != fixed
        # The planner feeds the flag from the backend's supports_factor_orders.
        for backend in ("tofu", "equalchop"):
            planner = Planner()
            planner.plan(mlp_bundle.graph, 4, backend=backend)
            key = plan_cache_key(
                mlp_bundle.graph, [2, 2], None, backend, {},
                explore_factor_orders=get_backend(backend).supports_factor_orders,
            )
            assert planner.cache.get(key) is not None

    def test_unserializable_options_bypass_cache(self, mlp_bundle, counting_backend):
        from repro.partition.coarsen import coarsen

        planner = Planner()
        coarse = coarsen(mlp_bundle.graph)
        for _ in range(2):
            planner.plan(
                mlp_bundle.graph, 4, backend="counting",
                backend_options={"coarse": coarse},
            )
        # No stable content address for a pre-built object: search runs each
        # time and nothing is stored under a repr-based key.
        assert counting_backend["n"] == 2
        assert planner.cache_info()["size"] == 0

    def test_graph_signature_is_content_addressed(self, mlp_bundle, rnn_bundle):
        assert graph_signature(mlp_bundle.graph) == graph_signature(mlp_bundle.graph)
        assert graph_signature(mlp_bundle.graph) != graph_signature(rnn_bundle.graph)

    def test_machine_signature(self):
        assert machine_signature(None) == "no-machine"
        assert machine_signature(k80_8gpu_machine()) == machine_signature(
            k80_8gpu_machine()
        )
        assert machine_signature(k80_8gpu_machine()) != machine_signature(
            v100_machine()
        )

    def test_lru_eviction(self):
        cache = PlanCache(capacity=2)
        plan = PartitionPlan(num_workers=1)
        cache.put("a", plan)
        cache.put("b", plan)
        cache.put("c", plan)
        assert cache.get("a") is None  # evicted
        assert cache.get("b") is not None

    def test_disabled_cache_always_searches(self, mlp_bundle, counting_backend):
        planner = Planner(PlannerConfig(cache_capacity=0))
        planner.plan(mlp_bundle.graph, 4, backend="counting")
        planner.plan(mlp_bundle.graph, 4, backend="counting")
        assert counting_backend["n"] == 2

    def test_disk_cache_survives_planner_restart(
        self, tmp_path, mlp_bundle, counting_backend
    ):
        config = PlannerConfig(cache_dir=str(tmp_path))
        first = Planner(config).plan(mlp_bundle.graph, 4, backend="counting")
        # A brand-new planner (fresh memory tier) must hit the disk store.
        second = Planner(config).plan(mlp_bundle.graph, 4, backend="counting")
        assert counting_backend["n"] == 1
        assert first == second
        assert list(tmp_path.glob("*.json"))

    def test_clear_cache_purges_disk_tier(self, tmp_path, mlp_bundle, counting_backend):
        planner = Planner(PlannerConfig(cache_dir=str(tmp_path)))
        planner.plan(mlp_bundle.graph, 4, backend="counting")
        assert list(tmp_path.glob("*.json"))
        planner.clear_cache()
        assert not list(tmp_path.glob("*.json"))
        planner.plan(mlp_bundle.graph, 4, backend="counting")
        assert counting_backend["n"] == 2, "cleared cache must force a re-search"

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path, mlp_bundle):
        config = PlannerConfig(cache_dir=str(tmp_path), cache_capacity=0)
        planner = Planner(config)
        plan = planner.plan(mlp_bundle.graph, 4)
        for path in tmp_path.glob("*.json"):
            path.write_text("not json")
        replanned = Planner(config).plan(mlp_bundle.graph, 4)
        assert _same_search(plan, replanned)


# ---------------------------------------------------------------------------
# Plan serialisation
# ---------------------------------------------------------------------------
class TestPlanSerialization:
    def test_round_trip_equality(self, mlp_bundle):
        plan = recursive_partition(mlp_bundle.graph, 4)
        assert plan_from_dict(plan_to_dict(plan)) == plan

    def test_round_trip_through_json(self, mlp_bundle):
        import json

        plan = recursive_partition(mlp_bundle.graph, 4)
        assert plan_from_dict(json.loads(json.dumps(plan_to_dict(plan)))) == plan


# ---------------------------------------------------------------------------
# Candidate search (serial and parallel)
# ---------------------------------------------------------------------------
class TestCandidateSearch:
    def test_candidate_factorizations(self):
        assert candidate_factorizations(8) == [(2, 2, 2)]
        assert candidate_factorizations(12) == [(3, 2, 2), (2, 3, 2), (2, 2, 3)]
        assert candidate_factorizations(1) == [()]

    def test_candidate_factorizations_repeated_factors_stay_cheap(self):
        # 2^11 has exactly one distinct order; a naive permutation scan
        # would walk 11! duplicates before noticing.
        import time

        start = time.time()
        assert candidate_factorizations(2048) == [(2,) * 11]
        assert time.time() - start < 1.0

    def test_candidate_factorizations_respects_limit(self):
        candidates = candidate_factorizations(2 * 3 * 5 * 7, limit=4)
        assert len(candidates) == 4
        assert candidates[0] == (7, 5, 3, 2)  # descending order always first

    def test_explicit_factors_must_multiply_to_worker_count(self, mlp_bundle):
        with pytest.raises(PartitionError, match="do not multiply"):
            recursive_partition(mlp_bundle.graph, 8, factors=[2, 2])

    def test_candidate_search_matches_a_serial_oracle(self, mlp_bundle):
        spec = get_backend("tofu")
        plans = [
            spec.search(mlp_bundle.graph, 12, factors=factors)
            for factors in candidate_factorizations(12)
        ]
        best = min(
            range(len(plans)), key=lambda i: (plans[i].total_comm_bytes, i)
        )
        found = Planner(PlannerConfig(cache_capacity=0)).plan(mlp_bundle.graph, 12)
        assert _same_search(found, plans[best])

    def test_candidate_search_never_worse_than_descending_order(self, mlp_bundle):
        explored = Planner(PlannerConfig(cache_capacity=0)).plan(mlp_bundle.graph, 12)
        descending = recursive_partition(mlp_bundle.graph, 12)
        assert explored.total_comm_bytes <= descending.total_comm_bytes + 1e-6


# ---------------------------------------------------------------------------
# Facade
# ---------------------------------------------------------------------------
class TestPlannerFacade:
    def test_plan_and_simulate(self, mlp_bundle):
        model = repro.compile(
            mlp_bundle.graph, machine=k80_8gpu_machine(4), planner=Planner()
        )
        assert model.result.iteration_time > 0
        assert model.throughput(mlp_bundle.batch_size) > 0

    def test_plan_and_simulate_reuses_cached_plan(self, mlp_bundle, counting_backend):
        planner = Planner()
        machine = k80_8gpu_machine(4)
        repro.compile(mlp_bundle.graph, "tofu:counting", machine, planner=planner)
        repro.compile(mlp_bundle.graph, "tofu:counting", machine, planner=planner)
        assert counting_backend["n"] == 1

    def test_default_planner_is_a_singleton(self):
        assert default_planner() is default_planner()

    @pytest.mark.parametrize("jobs", [0, -1, 2])
    def test_jobs_accepts_only_one(self, jobs):
        assert PlannerConfig(jobs=1).jobs == 1
        with pytest.raises(PartitionError, match="process pool was removed"):
            PlannerConfig(jobs=jobs)

    def test_expand_jobs_accepts_only_one(self):
        assert PlannerConfig(expand_jobs=1).expand_jobs == 1
        with pytest.raises(PartitionError, match="intra-search threads"):
            PlannerConfig(expand_jobs=2)

    def test_expand_jobs_backend_option_rejected(self, mlp_bundle):
        with pytest.raises(PartitionError, match="does not accept option"):
            Planner().plan(
                mlp_bundle.graph, 4, backend_options={"expand_jobs": 2}
            )
