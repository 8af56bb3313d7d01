"""Public-API snapshot: the exported surface of the top-level packages.

Accidentally dropping (or silently adding) a public name is an API break for
downstream users; this test pins the ``__all__`` of ``repro``,
``repro.strategy``, ``repro.planner``, ``repro.runtime``, ``repro.serve``,
``repro.analysis`` and ``repro.tuner`` against a checked-in list so CI fails
on any unreviewed change.  When a change is intentional, update the snapshot here
*and* the README migration notes.

The same surface is also held to a documentation bar: every exported symbol
— and every public method it defines — must carry a non-empty docstring
(``test_public_surface_is_documented``).
"""

import importlib
import inspect

import pytest

REPRO_EXPORTS = [
    "AnalysisError",
    "ClusterSpec",
    "CompiledModel",
    "ExecutionError",
    "Executor",
    "ExecutorConfig",
    "GraphError",
    "LoweredProgram",
    "MachineSpec",
    "NoStrategyError",
    "NonAffineError",
    "OutOfMemoryError",
    "PartitionError",
    "Planner",
    "PlannerConfig",
    "ReproError",
    "ShapeError",
    "SimulationError",
    "SimulationReport",
    "Strategy",
    "StrategyError",
    "TDLError",
    "__version__",
    "available_backends",
    "available_execution_backends",
    "cluster_of",
    "compile",
    "compile_model",
    "default_executor",
    "default_planner",
    "describe_operator",
    "dp",
    "machines",
    "parse_strategy",
    "pipeline",
    "placement",
    "register_backend",
    "register_execution_backend",
    "single",
    "swap",
    "tofu",
    "topology_preset",
]

STRATEGY_EXPORTS = [
    "PIPELINE_SCHEDULES",
    "Strategy",
    "StrategyLowering",
    "combinator_descriptions",
    "combinator_names",
    "dp",
    "lower_strategy",
    "machines",
    "normalize",
    "parse",
    "parse_strategy",
    "pipeline",
    "placement",
    "single",
    "swap",
    "tofu",
    "weight_shards",
]

PLANNER_EXPORTS = [
    "BackendSpec",
    "PlanCache",
    "Planner",
    "PlannerConfig",
    "SearchBackend",
    "SimulationReport",
    "available_backends",
    "candidate_factorizations",
    "default_planner",
    "get_backend",
    "graph_signature",
    "machine_signature",
    "plan_cache_key",
    "register_backend",
    "search_candidates",
    "unregister_backend",
]

RUNTIME_EXPORTS = [
    "ExecutionBackend",
    "ExecutionBackendSpec",
    "Executor",
    "ExecutorConfig",
    "LoweredProgram",
    "ProgramCache",
    "SimulationReport",
    "available_execution_backends",
    "default_executor",
    "default_program_cache",
    "get_execution_backend",
    "lowered_cache_key",
    "program_from_dict",
    "program_to_dict",
    "register_execution_backend",
    "unregister_execution_backend",
]

SERVE_EXPORTS = [
    "CompileClient",
    "CompileRequest",
    "CompileResponse",
    "CompileServer",
    "CompileService",
    "PendingCompile",
    "request_from_wire",
    "request_to_wire",
    "response_from_wire",
    "response_to_wire",
]

ANALYSIS_EXPORTS = [
    "AnalysisError",
    "CheckContext",
    "CheckerSpec",
    "ERROR_CODES",
    "Finding",
    "VERIFY_MODES",
    "VerifyReport",
    "available_checkers",
    "describe_code",
    "get_checker_spec",
    "register_checker",
    "run_verify_pass",
    "unregister_checker",
    "validate_verify_mode",
    "verify_model",
    "verify_program",
]

TUNER_EXPORTS = [
    "CandidateOutcome",
    "Tuner",
    "TunerBudget",
    "TunerResult",
    "aligned_replica_groups",
    "machine_compute_profile",
    "pareto_frontier",
    "tuner_candidates",
]

SNAPSHOTS = {
    "repro": REPRO_EXPORTS,
    "repro.strategy": STRATEGY_EXPORTS,
    "repro.planner": PLANNER_EXPORTS,
    "repro.runtime": RUNTIME_EXPORTS,
    "repro.serve": SERVE_EXPORTS,
    "repro.analysis": ANALYSIS_EXPORTS,
    "repro.tuner": TUNER_EXPORTS,
}


@pytest.mark.parametrize("module_name", sorted(SNAPSHOTS))
def test_exported_surface_matches_snapshot(module_name):
    module = importlib.import_module(module_name)
    exported = sorted(module.__all__)
    expected = sorted(SNAPSHOTS[module_name])
    assert exported == expected, (
        f"{module_name}.__all__ drifted from the checked-in snapshot; "
        f"added={sorted(set(exported) - set(expected))}, "
        f"removed={sorted(set(expected) - set(exported))} — update "
        f"tests/test_public_api.py if this break is intentional"
    )


@pytest.mark.parametrize("module_name", sorted(SNAPSHOTS))
def test_exported_names_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module_name} exports names it does not define: {missing}"


def _public_methods(cls):
    """Methods (and properties) defined *by this class* with public names."""
    for name, member in vars(cls).items():
        if name.startswith("_"):
            continue
        if isinstance(member, (staticmethod, classmethod)):
            member = member.__func__
        elif isinstance(member, property):
            member = member.fget
        if inspect.isfunction(member):
            yield name, member


@pytest.mark.parametrize("module_name", sorted(SNAPSHOTS))
def test_public_surface_is_documented(module_name):
    """Every exported symbol — and every public method a class defines —
    carries a non-empty docstring.  The docs tree links by name into this
    surface, so an undocumented export is a docs regression."""
    module = importlib.import_module(module_name)
    undocumented = []
    for name in module.__all__:
        obj = getattr(module, name)
        if not callable(obj) and not inspect.isclass(obj):
            continue  # plain data like __version__
        if not (getattr(obj, "__doc__", None) or "").strip():
            undocumented.append(f"{module_name}.{name}")
        if inspect.isclass(obj):
            for method_name, method in _public_methods(obj):
                if not (method.__doc__ or "").strip():
                    undocumented.append(f"{module_name}.{name}.{method_name}")
    assert not undocumented, (
        f"public symbols without docstrings: {sorted(undocumented)}"
    )


def test_strategy_combinators_cover_execution_styles():
    """Every built-in execution style is reachable from the strategy algebra
    (the CLI listings enumerate the combinators alongside the backends)."""
    from repro.strategy import combinator_names

    assert set(combinator_names()) == {
        "tofu", "single", "placement", "swap", "dp", "pipeline", "machines",
    }
