"""Candidate generation: grid coverage, determinism, heterogeneity awareness."""

from __future__ import annotations

from repro.sim.device import (
    ClusterSpec,
    cluster_of,
    k80_8gpu_machine,
    v100_machine,
)
from repro.tuner import (
    aligned_replica_groups,
    machine_compute_profile,
    tuner_candidates,
)


def hetero_cluster(first: int = 6, second: int = 2) -> ClusterSpec:
    """Two K80 boxes with unequal device counts."""
    return ClusterSpec(
        machines=[k80_8gpu_machine(first), k80_8gpu_machine(second)],
        network_bandwidth=1.25e9,
        network_latency=40e-6,
    )


class TestGrid:
    def test_tofu_and_single_lead(self):
        pool = tuner_candidates(k80_8gpu_machine(8))
        assert str(pool[0]) == "tofu"
        assert str(pool[1]) == "single"

    def test_grid_is_deduplicated_and_deterministic(self):
        machine = k80_8gpu_machine(8)
        first = [str(c) for c in tuner_candidates(machine)]
        second = [str(c) for c in tuner_candidates(machine)]
        assert first == second
        assert len(first) == len(set(first))

    def test_grid_spans_every_axis(self):
        pool = [str(c) for c in tuner_candidates(k80_8gpu_machine(8))]
        assert "dp:2/tofu" in pool
        assert "pipeline:2:1f1b:4" in pool
        assert "pipeline:2:gpipe:4" in pool  # schedule axis
        assert "pipeline:2:1f1b:8" in pool  # micro-batch axis
        assert "dp:2/pipeline:2:1f1b:4/tofu" in pool  # composed axis

    def test_grid_is_wider_than_the_legacy_auto_sweep(self):
        from repro.compiler import AUTO_MAX_CANDIDATES

        machine = k80_8gpu_machine(8)
        assert len(tuner_candidates(machine)) > AUTO_MAX_CANDIDATES

    def test_search_backend_axis(self):
        pool = [
            str(c)
            for c in tuner_candidates(
                k80_8gpu_machine(4), search_backends=("equalchop",)
            )
        ]
        assert "tofu:equalchop" in pool

    def test_machines_scopes_on_a_cluster(self):
        cluster = cluster_of(k80_8gpu_machine(4), 2)
        pool = [str(c) for c in tuner_candidates(cluster)]
        assert "machines:2/tofu" in pool
        assert "machines:2/pipeline:2:1f1b:4/tofu" in pool


class TestHeterogeneity:
    def test_compute_profile_reads_per_machine_speeds(self):
        profile = machine_compute_profile(hetero_cluster(6, 2))
        assert [count for count, _ in profile] == [6, 2]
        flops = [total for _, total in profile]
        assert flops[0] == 3 * flops[1]  # 6 devices vs 2, same part

    def test_aligned_groups_on_a_symmetric_machine(self):
        # Single box: every divisor count is aligned.
        assert aligned_replica_groups(k80_8gpu_machine(4)) == [1, 2, 4]

    def test_aligned_groups_respect_machine_boundaries(self):
        # 6+2 devices: group size must divide both 6 and 2, so only
        # size-1 and size-2 groups (counts 8 and 4) avoid straddling.
        assert aligned_replica_groups(hetero_cluster(6, 2)) == [4, 8]

    def test_aligned_counts_come_first_on_an_asymmetric_cluster(self):
        pool = [str(c) for c in tuner_candidates(hetero_cluster(6, 2))]
        dp_order = [p for p in pool if p.startswith("dp:") and p.endswith("/tofu")]
        aligned_first = [p for p in dp_order[:2]]
        assert aligned_first == ["dp:4/tofu", "dp:8/tofu"]

    def test_one_stage_per_machine_cut_exists_on_odd_totals(self):
        # 6+2=8 devices is divisible by 2 anyway; use 6+3=9 where the
        # machine count (2) is not a divisor of the device total.
        cluster = ClusterSpec(
            machines=[k80_8gpu_machine(6), k80_8gpu_machine(3)],
            network_bandwidth=1.25e9,
            network_latency=40e-6,
        )
        pool = [str(c) for c in tuner_candidates(cluster)]
        assert any(p.startswith("pipeline:2:") for p in pool)

    def test_profile_flags_speed_asymmetry(self):
        mixed = ClusterSpec(
            machines=[k80_8gpu_machine(4), v100_machine(4)],
            network_bandwidth=1.25e9,
            network_latency=40e-6,
        )
        profile = machine_compute_profile(mixed)
        assert profile[0][1] != profile[1][1]
