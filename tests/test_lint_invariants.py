"""The AST invariant linter stays clean on the tree and keeps catching
seeded violations (layering back-edges, undescribed registry entries,
collector switches, package-metadata discovery, multiprocessing,
concurrent, threading and contextvars imports, machine lookups outside
the topology, baselines lowering execution backends by name, and the tuner
reading a program's tasks)."""

import ast
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import lint_invariants  # noqa: E402


def test_repository_is_invariant_clean():
    violations = lint_invariants.lint()
    assert violations == [], "\n".join(str(v) for v in violations)


def test_layering_catches_back_edge():
    tree = ast.parse("from repro.cli import main\n")
    violations = lint_invariants.check_layering(
        lint_invariants.SRC / "graph" / "graph.py", tree)
    assert violations and violations[0].rule == "layering"


def test_layering_exempts_type_checking_imports():
    tree = ast.parse(
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from repro.cli import main\n"
    )
    assert lint_invariants.check_layering(
        lint_invariants.SRC / "graph" / "graph.py", tree) == []


def test_registry_hygiene_requires_descriptions():
    tree = ast.parse(
        "register_checker(CheckerSpec(name='x', check=f))\n"
        "register_checker(CheckerSpec(name='y', check=f, description=''))\n"
        "register_checker(CheckerSpec(name='z', check=f, description='ok'))\n"
    )
    violations = lint_invariants.check_registry_hygiene(
        lint_invariants.SRC / "analysis" / "verify.py", tree)
    assert len(violations) == 2
    assert all(v.rule == "registry-hygiene" for v in violations)


def test_collector_discipline_catches_switches_outside_the_scope():
    tree = ast.parse(
        "import gc\n"
        "from gc import freeze\n"
        "def search():\n"
        "    gc.disable()\n"
        "    try:\n"
        "        pass\n"
        "    finally:\n"
        "        gc.enable()\n"
        "gc.set_threshold(0)\n"
        "gc.collect()\n"
    )
    violations = lint_invariants.check_collector_discipline(
        lint_invariants.SRC / "planner" / "core.py", tree)
    assert [v.line for v in violations] == [2, 4, 8, 9]
    assert all(v.rule == "collector-discipline" for v in violations)


def test_collector_discipline_allows_only_the_compiler_scope():
    tree = ast.parse(
        "import gc\n"
        "def collector_paused():\n"
        "    gc.disable()\n"
        "    gc.enable()\n"
        "def _resume_collector_in_child():\n"
        "    gc.enable()\n"
        "def compile():\n"
        "    gc.unfreeze()\n"
    )
    compiler = lint_invariants.check_collector_discipline(
        lint_invariants.SRC / "compiler.py", tree)
    assert [v.line for v in compiler] == [6, 8]
    elsewhere = lint_invariants.check_collector_discipline(
        lint_invariants.SRC / "tuner" / "core.py", tree)
    assert [v.line for v in elsewhere] == [3, 4, 6, 8]


def test_in_process_registration_catches_metadata_discovery():
    tree = ast.parse(
        "import importlib.metadata\n"
        "from importlib import metadata\n"
        "from importlib.metadata import version\n"
        "import importlib\n"
        "def load(group):\n"
        "    eps = importlib.metadata.entry_points()\n"
        "    return eps.select(group=group)\n"
        "def load_all(group):\n"
        "    return entry_points(group=group)\n"
        "def register(spec):\n"
        "    return spec\n"
    )
    violations = lint_invariants.check_in_process_registration(
        lint_invariants.SRC / "plugins.py", tree)
    assert sorted({v.line for v in violations}) == [1, 2, 3, 6, 9]
    assert all(v.rule == "in-process-registration" for v in violations)



def test_no_process_pool_catches_multiprocessing_anywhere():
    tree = ast.parse(
        "import multiprocessing\n"
        "from multiprocessing import get_context\n"
        "import multiprocessing.pool as mpp\n"
        "def fan_out(items):\n"
        "    from multiprocessing.pool import Pool\n"
        "    return Pool, items\n"
        "import os.path\n"
    )
    for where in ("tuner/core.py", "planner/parallel.py"):
        violations = lint_invariants.check_banned_imports(
            lint_invariants.SRC / where, tree)
        assert [v.line for v in violations] == [1, 2, 3, 5]
        assert all(v.rule == "banned-import" for v in violations)
        assert all("multiprocessing" in v.message for v in violations)


def test_no_context_var_catches_contextvars_anywhere():
    tree = ast.parse(
        "import contextvars\n"
        "from contextvars import ContextVar\n"
        "def scope():\n"
        "    from contextvars import copy_context\n"
        "    return copy_context\n"
        "import contextlib\n"
    )
    violations = lint_invariants.check_banned_imports(
        lint_invariants.SRC / "caching.py", tree)
    assert [v.line for v in violations] == [1, 2, 4]
    assert all("contextvars" in v.message for v in violations)


def test_banned_imports_catch_a_seeded_import_threading():
    tree = ast.parse(
        "import json\n"
        "import threading\n"
        "def guard():\n"
        "    from threading import Lock\n"
        "    return Lock()\n"
    )
    violations = lint_invariants.check_banned_imports(
        lint_invariants.SRC / "caching.py", tree)
    assert [v.line for v in violations] == [2, 4]
    assert all(v.rule == "banned-import" for v in violations)
    assert all("threading" in v.message for v in violations)


def test_banned_imports_catch_a_thread_pool_import():
    tree = ast.parse(
        "from concurrent.futures import ThreadPoolExecutor\n"
        "import concurrent.futures\n"
    )
    violations = lint_invariants.check_banned_imports(
        lint_invariants.SRC / "tuner" / "core.py", tree)
    assert [v.line for v in violations] == [1, 2]
    assert all("concurrent" in v.message for v in violations)


def test_lint_fails_on_a_tree_with_a_seeded_import_threading(tmp_path):
    (tmp_path / "caching.py").write_text("import threading\n")
    violations = lint_invariants.lint(tmp_path)
    assert [(v.line, v.rule) for v in violations] == [(1, "banned-import")]


def test_machine_locality_catches_a_backend_comparing_machines():
    tree = ast.parse(
        "def hop(topology, device, neighbour):\n"
        "    if topology.machine_of(device) != topology.machine_of(neighbour):\n"
        "        return topology.locate(device)\n"
        "    return topology.link_between(neighbour, device)\n"
    )
    violations = lint_invariants.check_machine_locality(
        lint_invariants.SRC / "runtime" / "backends.py", tree)
    assert [v.line for v in violations] == [2, 2, 3]
    assert all(v.rule == "machine-locality" for v in violations)


def test_machine_locality_allows_the_topology_and_stage_placement():
    tree = ast.parse("devices = topology.devices_of_machine(0)\n")
    for allowed in (("sim", "device.py"), ("runtime", "passes.py")):
        path = lint_invariants.SRC.joinpath(*allowed)
        assert lint_invariants.check_machine_locality(path, tree) == []


def test_strategy_only_baselines_catch_a_backend_lowered_by_name():
    tree = ast.parse(
        "def lower(executor, graph, machine):\n"
        "    return executor.lower(\n"
        "        graph, machine=machine, backend='hybrid',\n"
        "        backend_options={'inner': 'data-parallel'},\n"
        "    )\n"
    )
    violations = lint_invariants.check_strategy_only_baselines(
        lint_invariants.SRC / "baselines" / "evaluation.py", tree)
    assert [v.line for v in violations] == [3, 4]
    assert all(v.rule == "strategy-only-baselines" for v in violations)
    # The same call outside the baselines is an execution backend's business.
    assert lint_invariants.check_strategy_only_baselines(
        lint_invariants.SRC / "runtime" / "executor.py", tree) == []


def test_memory_only_screening_catches_the_tuner_reading_tasks():
    tree = ast.parse(
        "def screen(model, machine):\n"
        "    program = model.program\n"
        "    if len(program.tasks) > 10 ** 6:\n"
        "        return program.task_graph.rows\n"
        "    return program.dense_form(machine), program.per_device_memory\n"
    )
    violations = lint_invariants.check_memory_only_screening(
        lint_invariants.SRC / "tuner" / "core.py", tree)
    assert [v.line for v in violations] == [3, 4, 5]
    assert all(v.rule == "memory-only-screening" for v in violations)
    # Reading tasks is the simulator's and the verifier's business.
    assert lint_invariants.check_memory_only_screening(
        lint_invariants.SRC / "runtime" / "core.py", tree) == []
