"""The AST invariant linter stays clean on the tree and keeps catching
seeded violations (layering back-edges, unlocked guarded state, undescribed
registry entries, collector switches, stray pricing setters)."""

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
    tree = ast.parse("from repro.serve.service import CompileService\n")
    violations = lint_invariants.check_layering(
        lint_invariants.SRC / "graph" / "graph.py", tree)
    assert violations and violations[0].rule == "layering"


def test_layering_exempts_type_checking_imports():
    tree = ast.parse(
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from repro.serve.service import CompileService\n"
    )
    assert lint_invariants.check_layering(
        lint_invariants.SRC / "graph" / "graph.py", tree) == []


def test_lock_discipline_catches_unlocked_read():
    tree = ast.parse(
        "import threading\n"
        "class C:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self.count = 0\n"
        "    def bump(self):\n"
        "        with self._lock:\n"
        "            self.count += 1\n"
        "    def peek(self):\n"
        "        return self.count\n"
    )
    violations = lint_invariants.check_lock_discipline(
        lint_invariants.SRC / "caching.py", tree)
    assert violations and violations[0].rule == "lock-discipline"
    assert "peek" in violations[0].message


def test_lock_discipline_allows_lock_safe_helpers():
    tree = ast.parse(
        "import threading\n"
        "class C:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self.count = 0\n"
        "    def bump(self):\n"
        "        with self._lock:\n"
        "            self._bump_locked()\n"
        "    def _bump_locked(self):\n"
        "        self.count += 1\n"
    )
    assert lint_invariants.check_lock_discipline(
        lint_invariants.SRC / "caching.py", tree) == []


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
    assert [v.line for v in compiler] == [8]
    elsewhere = lint_invariants.check_collector_discipline(
        lint_invariants.SRC / "tuner" / "core.py", tree)
    assert [v.line for v in elsewhere] == [3, 4, 6, 8]


def test_pricing_scope_catches_references_and_setters_outside_the_scope():
    tree = ast.parse(
        "from repro.sim.costmodel import _ACTIVE_COST_MODEL\n"
        "import repro.sim.costmodel as sc\n"
        "def lower(model):\n"
        "    token = sc._ACTIVE_COST_MODEL.set(model)\n"
        "    sc._ACTIVE_COST_MODEL.reset(token)\n"
    )
    elsewhere = lint_invariants.check_pricing_scope(
        lint_invariants.SRC / "runtime" / "core.py", tree)
    assert [v.line for v in elsewhere] == [1, 4, 5]
    assert all(v.rule == "pricing-scope" for v in elsewhere)
    # The defining module may read the variable but not set it.
    home = lint_invariants.check_pricing_scope(
        lint_invariants.SRC / "sim" / "costmodel.py", tree)
    assert [v.line for v in home] == [4, 5]


def test_pricing_scope_allows_only_use_cost_model():
    tree = ast.parse(
        "from repro.sim.costmodel import _ACTIVE_COST_MODEL\n"
        "def use_cost_model(model):\n"
        "    token = _ACTIVE_COST_MODEL.set(model)\n"
        "    _ACTIVE_COST_MODEL.reset(token)\n"
        "def current():\n"
        "    return _ACTIVE_COST_MODEL.get()\n"
        "def pin(model):\n"
        "    _ACTIVE_COST_MODEL.set(model)\n"
    )
    violations = lint_invariants.check_pricing_scope(
        lint_invariants.SRC / "costmodel" / "base.py", tree)
    assert [v.line for v in violations] == [8]
