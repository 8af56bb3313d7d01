"""The AST invariant linter stays clean on the tree and keeps catching
seeded violations (layering back-edges, unlocked guarded state, undescribed
registry entries, collector switches, package-metadata discovery,
multiprocessing imports)."""

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
        "import concurrent.futures\n"
    )
    for where in ("tuner/core.py", "planner/parallel.py"):
        violations = lint_invariants.check_no_process_pool(
            lint_invariants.SRC / where, tree)
        assert [v.line for v in violations] == [1, 2, 3, 5]
        assert all(v.rule == "no-process-pool" for v in violations)
