"""Candidate generation: grid coverage, determinism, heterogeneity awareness."""

from __future__ import annotations

import pytest

from repro.sim.device import (
    TOPOLOGY_PRESETS,
    ClusterSpec,
    cluster_of,
    k80_8gpu_machine,
    topology_preset,
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


# The default grid of each machine, in order.  The order decides which
# candidates a truncating budget admits, so a change here changes what
# ``strategy="auto"`` sweeps and must be deliberate.
GRID_K80_4 = """
    tofu single dp:2/tofu dp:4/tofu pipeline:2:1f1b:2 pipeline:2:1f1b:4
    pipeline:2:1f1b:8 pipeline:2:gpipe:2 pipeline:2:gpipe:4
    pipeline:2:gpipe:8 pipeline:4:1f1b:2 pipeline:4:1f1b:4
    pipeline:4:1f1b:8 pipeline:4:gpipe:2 pipeline:4:gpipe:4
    pipeline:4:gpipe:8 dp:2/pipeline:2:1f1b:2/tofu
    dp:2/pipeline:2:1f1b:4/tofu dp:2/pipeline:2:1f1b:8/tofu
    dp:2/pipeline:2:gpipe:2/tofu dp:2/pipeline:2:gpipe:4/tofu
    dp:2/pipeline:2:gpipe:8/tofu
""".split()
GRID_K80_8 = """
    tofu single dp:2/tofu dp:4/tofu dp:8/tofu pipeline:2:1f1b:2
    pipeline:2:1f1b:4 pipeline:2:1f1b:8 pipeline:2:gpipe:2
    pipeline:2:gpipe:4 pipeline:2:gpipe:8 pipeline:4:1f1b:2
    pipeline:4:1f1b:4 pipeline:4:1f1b:8 pipeline:4:gpipe:2
    pipeline:4:gpipe:4 pipeline:4:gpipe:8 pipeline:8:1f1b:2
    pipeline:8:1f1b:4 pipeline:8:1f1b:8 pipeline:8:gpipe:2
    pipeline:8:gpipe:4 pipeline:8:gpipe:8 dp:2/pipeline:2:1f1b:2/tofu
    dp:2/pipeline:2:1f1b:4/tofu dp:2/pipeline:2:1f1b:8/tofu
    dp:2/pipeline:2:gpipe:2/tofu dp:2/pipeline:2:gpipe:4/tofu
    dp:2/pipeline:2:gpipe:8/tofu dp:2/pipeline:4:1f1b:2/tofu
    dp:2/pipeline:4:1f1b:4/tofu dp:2/pipeline:4:1f1b:8/tofu
    dp:2/pipeline:4:gpipe:2/tofu dp:2/pipeline:4:gpipe:4/tofu
    dp:2/pipeline:4:gpipe:8/tofu dp:4/pipeline:2:1f1b:2/tofu
    dp:4/pipeline:2:1f1b:4/tofu dp:4/pipeline:2:1f1b:8/tofu
    dp:4/pipeline:2:gpipe:2/tofu dp:4/pipeline:2:gpipe:4/tofu
    dp:4/pipeline:2:gpipe:8/tofu
""".split()
GRID_X2 = """
    tofu single machines:2/tofu machines:2/dp:2/tofu
    machines:2/pipeline:2:1f1b:2/tofu machines:2/pipeline:2:1f1b:4/tofu
    machines:2/pipeline:2:1f1b:8/tofu machines:2/pipeline:2:gpipe:2/tofu
    machines:2/pipeline:2:gpipe:4/tofu
    machines:2/pipeline:2:gpipe:8/tofu dp:2/tofu dp:4/tofu dp:8/tofu
    dp:16/tofu pipeline:2:1f1b:2 pipeline:2:1f1b:4 pipeline:2:1f1b:8
    pipeline:2:gpipe:2 pipeline:2:gpipe:4 pipeline:2:gpipe:8
    pipeline:4:1f1b:2 pipeline:4:1f1b:4 pipeline:4:1f1b:8
    pipeline:4:gpipe:2 pipeline:4:gpipe:4 pipeline:4:gpipe:8
    pipeline:8:1f1b:2 pipeline:8:1f1b:4 pipeline:8:1f1b:8
    pipeline:8:gpipe:2 pipeline:8:gpipe:4 pipeline:8:gpipe:8
    pipeline:16:1f1b:2 pipeline:16:1f1b:4 pipeline:16:1f1b:8
    pipeline:16:gpipe:2 pipeline:16:gpipe:4 pipeline:16:gpipe:8
    dp:2/pipeline:2:1f1b:2/tofu dp:2/pipeline:2:1f1b:4/tofu
    dp:2/pipeline:2:1f1b:8/tofu dp:2/pipeline:2:gpipe:2/tofu
    dp:2/pipeline:2:gpipe:4/tofu dp:2/pipeline:2:gpipe:8/tofu
    dp:2/pipeline:4:1f1b:2/tofu dp:2/pipeline:4:1f1b:4/tofu
    dp:2/pipeline:4:1f1b:8/tofu dp:2/pipeline:4:gpipe:2/tofu
    dp:2/pipeline:4:gpipe:4/tofu dp:2/pipeline:4:gpipe:8/tofu
    dp:2/pipeline:8:1f1b:2/tofu dp:2/pipeline:8:1f1b:4/tofu
    dp:2/pipeline:8:1f1b:8/tofu dp:2/pipeline:8:gpipe:2/tofu
    dp:2/pipeline:8:gpipe:4/tofu dp:2/pipeline:8:gpipe:8/tofu
    dp:4/pipeline:2:1f1b:2/tofu dp:4/pipeline:2:1f1b:4/tofu
    dp:4/pipeline:2:1f1b:8/tofu dp:4/pipeline:2:gpipe:2/tofu
    dp:4/pipeline:2:gpipe:4/tofu dp:4/pipeline:2:gpipe:8/tofu
    dp:4/pipeline:4:1f1b:2/tofu dp:4/pipeline:4:1f1b:4/tofu
    dp:4/pipeline:4:1f1b:8/tofu dp:4/pipeline:4:gpipe:2/tofu
    dp:4/pipeline:4:gpipe:4/tofu dp:4/pipeline:4:gpipe:8/tofu
    dp:8/pipeline:2:1f1b:2/tofu dp:8/pipeline:2:1f1b:4/tofu
    dp:8/pipeline:2:1f1b:8/tofu dp:8/pipeline:2:gpipe:2/tofu
    dp:8/pipeline:2:gpipe:4/tofu dp:8/pipeline:2:gpipe:8/tofu
""".split()
GRID_X4 = """
    tofu single machines:4/tofu machines:4/dp:4/tofu
    machines:4/pipeline:4:1f1b:2/tofu machines:4/pipeline:4:1f1b:4/tofu
    machines:4/pipeline:4:1f1b:8/tofu machines:4/pipeline:4:gpipe:2/tofu
    machines:4/pipeline:4:gpipe:4/tofu
    machines:4/pipeline:4:gpipe:8/tofu machines:3/tofu
    machines:3/dp:3/tofu machines:3/pipeline:3:1f1b:2/tofu
    machines:3/pipeline:3:1f1b:4/tofu machines:3/pipeline:3:1f1b:8/tofu
    machines:3/pipeline:3:gpipe:2/tofu
    machines:3/pipeline:3:gpipe:4/tofu
    machines:3/pipeline:3:gpipe:8/tofu machines:2/tofu
    machines:2/dp:2/tofu machines:2/pipeline:2:1f1b:2/tofu
    machines:2/pipeline:2:1f1b:4/tofu machines:2/pipeline:2:1f1b:8/tofu
    machines:2/pipeline:2:gpipe:2/tofu
    machines:2/pipeline:2:gpipe:4/tofu
    machines:2/pipeline:2:gpipe:8/tofu dp:4/tofu dp:8/tofu dp:16/tofu
    dp:32/tofu dp:2/tofu pipeline:2:1f1b:2 pipeline:2:1f1b:4
    pipeline:2:1f1b:8 pipeline:2:gpipe:2 pipeline:2:gpipe:4
    pipeline:2:gpipe:8 pipeline:4:1f1b:2 pipeline:4:1f1b:4
    pipeline:4:1f1b:8 pipeline:4:gpipe:2 pipeline:4:gpipe:4
    pipeline:4:gpipe:8 pipeline:8:1f1b:2 pipeline:8:1f1b:4
    pipeline:8:1f1b:8 pipeline:8:gpipe:2 pipeline:8:gpipe:4
    pipeline:8:gpipe:8 pipeline:16:1f1b:2 pipeline:16:1f1b:4
    pipeline:16:1f1b:8 pipeline:16:gpipe:2 pipeline:16:gpipe:4
    pipeline:16:gpipe:8 pipeline:32:1f1b:2 pipeline:32:1f1b:4
    pipeline:32:1f1b:8 pipeline:32:gpipe:2 pipeline:32:gpipe:4
    pipeline:32:gpipe:8 dp:4/pipeline:2:1f1b:2/tofu
    dp:4/pipeline:2:1f1b:4/tofu dp:4/pipeline:2:1f1b:8/tofu
    dp:4/pipeline:2:gpipe:2/tofu dp:4/pipeline:2:gpipe:4/tofu
    dp:4/pipeline:2:gpipe:8/tofu dp:4/pipeline:4:1f1b:2/tofu
    dp:4/pipeline:4:1f1b:4/tofu dp:4/pipeline:4:1f1b:8/tofu
    dp:4/pipeline:4:gpipe:2/tofu dp:4/pipeline:4:gpipe:4/tofu
    dp:4/pipeline:4:gpipe:8/tofu dp:4/pipeline:8:1f1b:2/tofu
    dp:4/pipeline:8:1f1b:4/tofu dp:4/pipeline:8:1f1b:8/tofu
    dp:4/pipeline:8:gpipe:2/tofu dp:4/pipeline:8:gpipe:4/tofu
    dp:4/pipeline:8:gpipe:8/tofu dp:8/pipeline:2:1f1b:2/tofu
    dp:8/pipeline:2:1f1b:4/tofu dp:8/pipeline:2:1f1b:8/tofu
    dp:8/pipeline:2:gpipe:2/tofu dp:8/pipeline:2:gpipe:4/tofu
    dp:8/pipeline:2:gpipe:8/tofu dp:8/pipeline:4:1f1b:2/tofu
    dp:8/pipeline:4:1f1b:4/tofu dp:8/pipeline:4:1f1b:8/tofu
    dp:8/pipeline:4:gpipe:2/tofu dp:8/pipeline:4:gpipe:4/tofu
    dp:8/pipeline:4:gpipe:8/tofu dp:16/pipeline:2:1f1b:2/tofu
    dp:16/pipeline:2:1f1b:4/tofu dp:16/pipeline:2:1f1b:8/tofu
    dp:16/pipeline:2:gpipe:2/tofu dp:16/pipeline:2:gpipe:4/tofu
    dp:16/pipeline:2:gpipe:8/tofu dp:2/pipeline:2:1f1b:2/tofu
    dp:2/pipeline:2:1f1b:4/tofu dp:2/pipeline:2:1f1b:8/tofu
    dp:2/pipeline:2:gpipe:2/tofu dp:2/pipeline:2:gpipe:4/tofu
    dp:2/pipeline:2:gpipe:8/tofu dp:2/pipeline:4:1f1b:2/tofu
    dp:2/pipeline:4:1f1b:4/tofu dp:2/pipeline:4:1f1b:8/tofu
    dp:2/pipeline:4:gpipe:2/tofu dp:2/pipeline:4:gpipe:4/tofu
    dp:2/pipeline:4:gpipe:8/tofu dp:2/pipeline:8:1f1b:2/tofu
    dp:2/pipeline:8:1f1b:4/tofu dp:2/pipeline:8:1f1b:8/tofu
    dp:2/pipeline:8:gpipe:2/tofu dp:2/pipeline:8:gpipe:4/tofu
    dp:2/pipeline:8:gpipe:8/tofu dp:2/pipeline:16:1f1b:2/tofu
    dp:2/pipeline:16:1f1b:4/tofu dp:2/pipeline:16:1f1b:8/tofu
    dp:2/pipeline:16:gpipe:2/tofu dp:2/pipeline:16:gpipe:4/tofu
    dp:2/pipeline:16:gpipe:8/tofu
""".split()


PINNED_GRIDS = {
    "k80_8gpu_machine(4)": (lambda: k80_8gpu_machine(4), GRID_K80_4),
    "k80_8gpu_machine(8)": (lambda: k80_8gpu_machine(8), GRID_K80_8),
    "p2_8xlarge": (lambda: topology_preset("p2_8xlarge"), GRID_K80_8),
    "p2_8xlarge_x2": (lambda: topology_preset("p2_8xlarge_x2"), GRID_X2),
    "p2_8xlarge_x4": (lambda: topology_preset("p2_8xlarge_x4"), GRID_X4),
    "v100_x2": (lambda: topology_preset("v100_x2"), GRID_X2),
    "v100_x4": (lambda: topology_preset("v100_x4"), GRID_X4),
}


def test_pinned_grids_cover_every_topology_preset():
    assert set(TOPOLOGY_PRESETS) <= set(PINNED_GRIDS)


@pytest.mark.parametrize("name", sorted(PINNED_GRIDS))
def test_default_grid_is_pinned(name):
    build, expected = PINNED_GRIDS[name]
    assert [str(c) for c in tuner_candidates(build())] == expected
