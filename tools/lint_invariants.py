#!/usr/bin/env python
"""AST invariant linter: layering, lock discipline, registry hygiene,
collector discipline, in-process registration, no process pool.

Six structural invariants the test suite cannot cheaply express are
checked here over the source tree with nothing but ``ast`` (no imports of
the code under analysis, no third-party dependencies):

1. **Layering** — ``src/repro`` is a DAG of layers with a total order
   (``errors`` at the bottom, ``cli`` at the top).  A module may import
   module-level only from its own layer or lower ones; higher-layer imports
   must move inside a function or an ``if TYPE_CHECKING:`` block.  The
   package root ``repro/__init__.py`` is exempt (it *is* the re-export
   surface), as are function-scope imports — laziness is the sanctioned
   escape hatch.  Note ``partition`` sits *above* ``runtime``:
   ``partition.apply`` prices memory with ``runtime.passes`` helpers, so
   the plan-application layer is a client of the lowering toolkit.

2. **Lock discipline** — in ``serve/`` and ``caching.py``, any class that
   creates a ``self._lock`` (``threading.Lock``/``RLock``) must touch its
   lock-guarded attributes only under ``with self._lock``.  An attribute
   counts as guarded when any method outside ``__init__`` writes it inside
   a ``with self._lock`` block.  Private helpers whose every call site is
   itself lock-held (transitively) are lock-safe and may touch guarded
   state without re-acquiring.

3. **Registry hygiene** — every module-scope ``register_*(...Spec(...))``
   call (search backends, execution backends, analysis checkers) must
   pass a non-empty ``description=``: the CLI listings and the docs render
   those strings, so a blank one is a docs regression.

4. **Collector discipline** — in ``src/repro`` the process-wide switches of
   CPython's cyclic collector (``gc.disable``, ``gc.enable``,
   ``gc.freeze``, ``gc.unfreeze``, ``gc.set_threshold``) appear only inside
   ``compiler.collector_paused``.  That scope is
   reference-counted across threads; a stray switch anywhere else would
   re-enable the collector under a running compile, or leave it off after
   the last one.

5. **In-process registration** — ``src/repro`` never references
   ``importlib.metadata`` or ``entry_points``.  The three registries are
   filled only by in-process ``register_*`` calls; package-metadata
   discovery would bring back a second registration path.

6. **No process pool** — ``src/repro`` never imports ``multiprocessing``
   (at any scope, in any file).  The planner's factor-order search, the
   autotuner and everything else run in the calling process.

Run from the repository root::

    python tools/lint_invariants.py

Exits 0 when clean, 1 with one ``path:line: RULE: message`` per violation.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"

# Bottom-up total order of the package's layers.  A module may import
# module-level from its own layer or any earlier one.
LAYERS = [
    "errors",
    "perf",
    "plugins",
    "tdl",
    "ops",
    "interval",
    "graph",
    "models",
    "sim",
    "caching",
    "strategy",
    "runtime",
    "partition",
    "baselines",
    "planner",
    "analysis",
    "compiler",
    "tuner",
    "serve",
    "cli",
]
RANK = {name: index for index, name in enumerate(LAYERS)}

# Files whose lock discipline is checked (threaded shared state lives here).
LOCKED_FILES = ["caching.py", "serve/service.py", "serve/server.py",
                "serve/protocol.py"]


class Violation:
    def __init__(self, path: Path, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        try:
            rel = self.path.relative_to(REPO_ROOT)
        except ValueError:  # linting a tree outside the repo
            rel = self.path
        return f"{rel}:{self.line}: {self.rule}: {self.message}"


# ---------------------------------------------------------------------------
# Rule 1: layering
# ---------------------------------------------------------------------------
def _is_type_checking(test: ast.expr) -> bool:
    """True for ``if TYPE_CHECKING:`` / ``if typing.TYPE_CHECKING:``."""
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


def _module_level_imports(tree: ast.Module):
    """Yield module-level import nodes, skipping TYPE_CHECKING blocks.

    Walks top-level statements plus ``if``/``try`` bodies (conditional
    imports are still import-time imports) but never descends into
    functions or classes — those imports are lazy by construction.
    """
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, ast.If):
            if not _is_type_checking(node.test):
                stack.extend(node.body)
            stack.extend(node.orelse)
        elif isinstance(node, ast.Try):
            stack.extend(node.body)
            stack.extend(node.orelse)
            stack.extend(node.finalbody)
            for handler in node.handlers:
                stack.extend(handler.body)


def _imported_layers(node, module_layer: str) -> List[Tuple[str, int]]:
    """``(layer, line)`` pairs a repro import reaches."""
    out: List[Tuple[str, int]] = []
    if isinstance(node, ast.Import):
        for alias in node.names:
            parts = alias.name.split(".")
            if parts[0] != "repro":
                continue
            if len(parts) == 1:
                out.append(("__root__", node.lineno))
            else:
                out.append((parts[1], node.lineno))
    elif isinstance(node, ast.ImportFrom):
        if node.level:
            # Relative import: resolve against this module's own layer.
            out.append((module_layer, node.lineno))
            return out
        parts = (node.module or "").split(".")
        if parts[0] != "repro":
            return out
        if len(parts) > 1:
            out.append((parts[1], node.lineno))
        else:
            # ``from repro import X``: each name is a submodule (importing
            # a symbol here would drag in the whole root surface).
            for alias in node.names:
                out.append((alias.name, node.lineno))
    return out


def check_layering(path: Path, tree: ast.Module,
                   root: Path = SRC) -> List[Violation]:
    rel = path.relative_to(root)
    if rel.as_posix() == "__init__.py":
        return []  # the package root is the re-export surface
    layer = rel.parts[0].removesuffix(".py")
    if layer not in RANK:
        return [Violation(path, 1, "layering",
                          f"module is in no known layer (add {layer!r} to "
                          f"LAYERS in tools/lint_invariants.py)")]
    violations: List[Violation] = []
    for node in _module_level_imports(tree):
        for target, line in _imported_layers(node, layer):
            if target == "__root__" or target not in RANK:
                violations.append(Violation(
                    path, line, "layering",
                    f"import of repro.{target} is not layerable "
                    f"(import a concrete submodule instead)"
                    if target != "__root__"
                    else "module-level `import repro` drags in the whole "
                         "root surface; import a concrete submodule"))
            elif RANK[target] > RANK[layer]:
                violations.append(Violation(
                    path, line, "layering",
                    f"layer {layer!r} (rank {RANK[layer]}) imports "
                    f"higher layer {target!r} (rank {RANK[target]}) at "
                    f"module level; move the import into the function "
                    f"that needs it"))
    return violations


# ---------------------------------------------------------------------------
# Rule 2: lock discipline
# ---------------------------------------------------------------------------
def _creates_threading_lock(node: ast.AST) -> bool:
    """True for ``threading.Lock()`` / ``threading.RLock()`` (or bare)."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(
        func, "id", None)
    return name in ("Lock", "RLock")


def _self_attr(node: ast.AST) -> Optional[str]:
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return node.attr
    return None


def _is_lock_with(item: ast.withitem) -> bool:
    return _self_attr(item.context_expr) == "_lock"


class _MethodScan(ast.NodeVisitor):
    """Per-method sweep: self-attribute touches and self-method calls,
    each tagged with whether the site sits inside ``with self._lock``."""

    def __init__(self):
        self.attr_reads: List[Tuple[str, int, bool]] = []
        self.attr_writes: List[Tuple[str, int, bool]] = []
        self.calls: List[Tuple[str, bool]] = []
        self._lock_depth = 0

    def visit_With(self, node: ast.With) -> None:
        locked = any(_is_lock_with(item) for item in node.items)
        if locked:
            self._lock_depth += 1
        self.generic_visit(node)
        if locked:
            self._lock_depth -= 1

    def visit_Attribute(self, node: ast.Attribute) -> None:
        attr = _self_attr(node)
        if attr is not None and attr != "_lock":
            held = self._lock_depth > 0
            if isinstance(node.ctx, (ast.Store, ast.Del)):
                self.attr_writes.append((attr, node.lineno, held))
            else:
                self.attr_reads.append((attr, node.lineno, held))
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        method = _self_attr(node.func)
        if method is not None:
            self.calls.append((method, self._lock_depth > 0))
        self.generic_visit(node)


def check_lock_discipline(path: Path, tree: ast.Module) -> List[Violation]:
    violations: List[Violation] = []
    for cls in [n for n in tree.body if isinstance(n, ast.ClassDef)]:
        methods = {n.name: n for n in cls.body
                   if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))}
        init = methods.get("__init__")
        has_lock = init is not None and any(
            _self_attr(target) == "_lock" and _creates_threading_lock(n.value)
            for n in ast.walk(init) if isinstance(n, ast.Assign)
            for target in n.targets)
        if not has_lock:
            continue

        scans: Dict[str, _MethodScan] = {}
        for name, method in methods.items():
            scan = _MethodScan()
            for stmt in method.body:
                scan.visit(stmt)
            scans[name] = scan

        # Guarded attributes: written under the lock outside __init__.
        # Mutations via method calls (self._memory.pop(...) under the lock)
        # surface as reads; counting locked reads of private attrs too
        # would over-guard, so guarding keys off writes — the discipline we
        # can enforce soundly without alias analysis.
        guarded: Set[str] = set()
        for name, scan in scans.items():
            if name == "__init__":
                continue
            guarded.update(a for a, _, held in scan.attr_writes if held)

        # Lock-safe helpers: private methods whose every call site is
        # lock-held or inside another lock-safe method (fixed point).
        called = {m for scan in scans.values() for m, _ in scan.calls}
        lock_safe = {m for m in called
                     if m in scans and m.startswith("_")}
        changed = True
        while changed:
            changed = False
            for name in list(lock_safe):
                sites = [(caller, held)
                         for caller, scan in scans.items()
                         for m, held in scan.calls if m == name]
                if not all(held or caller in lock_safe
                           for caller, held in sites):
                    lock_safe.discard(name)
                    changed = True

        for name, scan in scans.items():
            if name == "__init__" or name in lock_safe:
                continue
            for attr, line, held in scan.attr_writes + scan.attr_reads:
                if attr in guarded and not held:
                    violations.append(Violation(
                        path, line, "lock-discipline",
                        f"{cls.name}.{name} touches lock-guarded attribute "
                        f"self.{attr} outside `with self._lock`"))
    return violations


# ---------------------------------------------------------------------------
# Rule 3: registry hygiene
# ---------------------------------------------------------------------------
def _module_level_calls(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            yield node.value


def check_registry_hygiene(path: Path, tree: ast.Module) -> List[Violation]:
    violations: List[Violation] = []
    for call in _module_level_calls(tree):
        func_name = (call.func.attr if isinstance(call.func, ast.Attribute)
                     else getattr(call.func, "id", ""))
        if not func_name.startswith("register_"):
            continue
        spec_calls = [a for a in call.args
                      if isinstance(a, ast.Call)
                      and (a.func.attr if isinstance(a.func, ast.Attribute)
                           else getattr(a.func, "id", "")).endswith("Spec")]
        for spec in spec_calls:
            description = next(
                (kw.value for kw in spec.keywords if kw.arg == "description"),
                None)
            if description is None:
                violations.append(Violation(
                    path, spec.lineno, "registry-hygiene",
                    f"{func_name}(...) registers a spec without a "
                    f"description= (the CLI listings render it)"))
            elif (isinstance(description, ast.Constant)
                  and not str(description.value or "").strip()):
                violations.append(Violation(
                    path, description.lineno, "registry-hygiene",
                    f"{func_name}(...) registers a spec with an empty "
                    f"description"))
    return violations


# ---------------------------------------------------------------------------
# Rule 4: collector discipline
# ---------------------------------------------------------------------------
COLLECTOR_SWITCHES = {"disable", "enable", "freeze", "unfreeze", "set_threshold"}
# The one scope allowed to flip them: file (relative to src/repro) and its
# functions.
COLLECTOR_SCOPE = ("compiler.py", {"collector_paused"})


def check_collector_discipline(path: Path, tree: ast.Module,
                               root: Path = SRC) -> List[Violation]:
    rel = path.relative_to(root).as_posix()
    scope_file, scope_functions = COLLECTOR_SCOPE
    violations: List[Violation] = []

    def visit(node: ast.AST, allowed: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            allowed = allowed or (rel == scope_file
                                  and node.name in scope_functions)
        name = None
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "gc"
                and node.attr in COLLECTOR_SWITCHES):
            name = node.attr
        elif isinstance(node, ast.ImportFrom) and node.module == "gc":
            name = next((a.name for a in node.names
                         if a.name in COLLECTOR_SWITCHES or a.name == "*"),
                        None)
        if name is not None and not allowed:
            violations.append(Violation(
                path, node.lineno, "collector-discipline",
                f"gc.{name} outside compiler.collector_paused (the "
                f"reference-counted collector scope); run the work inside "
                f"that scope instead"))
        for child in ast.iter_child_nodes(node):
            visit(child, allowed)

    visit(tree, False)
    return violations


# ---------------------------------------------------------------------------
# Rule 5: in-process registration
# ---------------------------------------------------------------------------
def _discovery_reference(node: ast.AST) -> Optional[str]:
    """The package-metadata discovery name ``node`` references, if any."""
    if isinstance(node, ast.Import):
        for alias in node.names:
            if alias.name.startswith("importlib.metadata"):
                return "importlib.metadata"
    elif isinstance(node, ast.ImportFrom):
        module = node.module or ""
        if module.startswith("importlib.metadata"):
            return "importlib.metadata"
        for alias in node.names:
            if module == "importlib" and alias.name == "metadata":
                return "importlib.metadata"
            if alias.name == "entry_points":
                return "entry_points"
    elif (isinstance(node, ast.Attribute) and node.attr == "metadata"
          and isinstance(node.value, ast.Name)
          and node.value.id == "importlib"):
        return "importlib.metadata"
    elif ((isinstance(node, ast.Name) and node.id == "entry_points")
          or (isinstance(node, ast.Attribute)
              and node.attr == "entry_points")):
        return "entry_points"
    return None


def check_in_process_registration(path: Path,
                                  tree: ast.Module) -> List[Violation]:
    violations: List[Violation] = []
    for node in ast.walk(tree):
        name = _discovery_reference(node)
        if name is not None:
            violations.append(Violation(
                path, node.lineno, "in-process-registration",
                f"{name} referenced; registries are filled only by "
                f"in-process register_* calls"))
    return violations


# ---------------------------------------------------------------------------
# Rule 6: no process pool
# ---------------------------------------------------------------------------
def _imports_multiprocessing(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "multiprocessing"
                   for alias in node.names)
    return (isinstance(node, ast.ImportFrom) and node.level == 0
            and (node.module or "").split(".")[0] == "multiprocessing")


def check_no_process_pool(path: Path, tree: ast.Module) -> List[Violation]:
    return [
        Violation(path, node.lineno, "no-process-pool",
                  "multiprocessing imported; everything runs in the calling "
                  "process")
        for node in ast.walk(tree) if _imports_multiprocessing(node)
    ]


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------
def lint(root: Path = SRC) -> List[Violation]:
    """Run every rule over the tree; return the violations found."""
    violations: List[Violation] = []
    locked = {(root / name).resolve() for name in LOCKED_FILES}
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        violations.extend(check_layering(path, tree, root))
        violations.extend(check_registry_hygiene(path, tree))
        violations.extend(check_collector_discipline(path, tree, root))
        violations.extend(check_in_process_registration(path, tree))
        violations.extend(check_no_process_pool(path, tree))
        if path.resolve() in locked:
            violations.extend(check_lock_discipline(path, tree))
    return violations


def main() -> int:
    violations = lint()
    for violation in violations:
        print(violation)
    if violations:
        print(f"{len(violations)} invariant violation(s)", file=sys.stderr)
        return 1
    print("invariants clean: layering, lock discipline, registry hygiene, "
          "collector discipline, in-process registration, no process pool")
    return 0


if __name__ == "__main__":
    sys.exit(main())
