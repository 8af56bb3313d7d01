"""Tests for the execution-backend registry."""

from __future__ import annotations

import pytest

import repro
from repro.errors import ExecutionError
from repro.runtime import (
    Executor,
    available_execution_backends,
    get_execution_backend,
    register_execution_backend,
)
from repro.sim.device import k80_8gpu_machine

EXPECTED_BACKENDS = {
    "tofu-partitioned",
    "single-device",
    "placement",
    "data-parallel",
    "swap",
    "pipeline",
    "hybrid",
}


class TestRegistry:
    def test_all_builtin_backends_registered(self):
        assert EXPECTED_BACKENDS <= set(available_execution_backends())

    def test_every_registered_backend_resolves(self):
        for name in available_execution_backends():
            spec = get_execution_backend(name)
            assert spec.name == name
            assert callable(spec.lower)

    def test_unknown_backend_raises(self):
        with pytest.raises(ExecutionError, match="unknown execution backend"):
            get_execution_backend("no-such-backend")

    def test_duplicate_registration_rejected(self):
        spec = get_execution_backend("swap")
        with pytest.raises(ExecutionError, match="already registered"):
            register_execution_backend(spec)

    def test_replace_allows_override(self):
        spec = get_execution_backend("swap")
        assert register_execution_backend(spec, replace=True) is spec

    def test_unsupported_option_rejected_cleanly(self, mlp_bundle):
        with pytest.raises(ExecutionError, match="does not accept option"):
            Executor().lower(
                mlp_bundle.graph,
                backend="single-device",
                backend_options={"bogus": 1},
            )

    def test_plan_requirement_enforced(self, mlp_bundle):
        with pytest.raises(ExecutionError, match="requires a partition plan"):
            Executor().lower(mlp_bundle.graph, backend="tofu-partitioned")

    def test_placement_backend_matches_placement_strategy(self, mlp_bundle):
        machine = k80_8gpu_machine(4)
        program = Executor().lower(
            mlp_bundle.graph, machine=machine, backend="placement"
        )
        compiled = repro.compile(
            mlp_bundle.graph, "placement", machine, lower_only=True
        ).program
        assert program.task_graph.rows == compiled.task_graph.rows
        assert program.per_device_memory == compiled.per_device_memory

    def test_placement_rejects_a_device_map(self, mlp_bundle):
        with pytest.raises(ExecutionError, match="device_of_node"):
            Executor().lower(
                mlp_bundle.graph,
                backend="placement",
                backend_options={"device_of_node": {}},
            )
