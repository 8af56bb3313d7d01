"""Public-API snapshot: the exported surface of the top-level packages.

Accidentally dropping (or silently adding) a public name is an API break for
downstream users; this test pins the ``__all__`` of ``repro``,
``repro.strategy``, ``repro.planner``, ``repro.runtime``,
``repro.analysis`` and ``repro.tuner`` against a checked-in list so CI fails
on any unreviewed change.  When a change is intentional, update the snapshot here
*and* the README migration notes.

The same surface is also held to a documentation bar: every exported symbol
— and every public method it defines — must carry a non-empty docstring
(``test_public_surface_is_documented``).

The knobs a caller can set are pinned the same way
(``test_knob_surface_matches_snapshot``): a new option, config field or
entry-point keyword is an untested configuration axis until something other
than a test sets it, so it must not land unreviewed.
"""

import dataclasses
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
    "PartitionError",
    "Planner",
    "PlannerConfig",
    "ReproError",
    "ShapeError",
    "SimulationError",
    "Strategy",
    "StrategyError",
    "TDLError",
    "__version__",
    "available_backends",
    "available_execution_backends",
    "cluster_of",
    "compile",
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
    "available_execution_backends",
    "default_program_cache",
    "get_execution_backend",
    "lowered_cache_key",
    "register_execution_backend",
    "unregister_execution_backend",
]

ANALYSIS_EXPORTS = [
    "AnalysisError",
    "CheckContext",
    "CheckerSpec",
    "ERROR_CODES",
    "Finding",
    "VerifyReport",
    "available_checkers",
    "describe_code",
    "get_checker_spec",
    "register_checker",
    "unregister_checker",
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


#: Every value a caller can set: each built-in search and execution
#: backend's ``option_names``, the config dataclasses' fields, the
#: ``Tuner`` constructor's parameters and ``repro.compile``'s keyword
#: options (its graph, strategy and machine are its inputs).
KNOB_SNAPSHOT = {
    "search:tofu": ("coarse",),
    "search:joint": ("coarse",),
    "search:icml18": ("coarse",),
    "search:equalchop": ("coarse",),
    "search:spartan": (),
    "search:allrow-greedy": (),
    "execution:tofu-partitioned": (
        "fuse_remote_fetch", "add_control_dependencies", "spread_reduction",
    ),
    "execution:single-device": (),
    "execution:placement": (),
    "execution:data-parallel": (),
    "execution:swap": (),
    "execution:pipeline": ("num_stages", "num_microbatches", "schedule"),
    "execution:hybrid": ("replica_groups", "inner", "inner_options"),
    "PlannerConfig": ("jobs", "expand_jobs", "cache_capacity", "cache_dir"),
    "ExecutorConfig": ("cache_programs", "program_cache_capacity"),
    "TunerBudget": ("max_candidates",),
    "Tuner": ("budget", "jobs"),
    "compile": ("planner", "executor", "lower_only", "tuner"),
}


def _knob_surface():
    from repro import compile as repro_compile
    from repro.planner import PlannerConfig, get_backend
    from repro.runtime import ExecutorConfig, get_execution_backend
    from repro.tuner import Tuner, TunerBudget

    surface = {}
    for key in KNOB_SNAPSHOT:
        kind, _, name = key.partition(":")
        if kind == "search":
            surface[key] = tuple(get_backend(name).option_names)
        elif kind == "execution":
            surface[key] = tuple(get_execution_backend(name).option_names)
    for config in (PlannerConfig, ExecutorConfig, TunerBudget):
        surface[config.__name__] = tuple(
            field.name for field in dataclasses.fields(config)
        )
    surface["Tuner"] = tuple(inspect.signature(Tuner).parameters)
    surface["compile"] = tuple(
        name
        for name, parameter in inspect.signature(repro_compile).parameters.items()
        if parameter.kind is inspect.Parameter.KEYWORD_ONLY
    )
    return surface


def test_knob_surface_matches_snapshot():
    surface = _knob_surface()
    assert surface == KNOB_SNAPSHOT, (
        "the settable knobs drifted from the checked-in snapshot — a new "
        "knob needs a caller outside the tests; update KNOB_SNAPSHOT in "
        "tests/test_public_api.py if this change is intentional"
    )
    assert sum(len(knobs) for knobs in surface.values()) == 26
