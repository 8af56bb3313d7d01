#!/usr/bin/env python
"""AST invariant linter: layering, registry hygiene, collector discipline,
in-process registration, banned imports, machine locality, strategy-only
baselines, memory-only screening.

Eight structural invariants the test suite cannot cheaply express are
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

2. **Registry hygiene** — every module-scope ``register_*(...Spec(...))``
   call (search backends, execution backends, analysis checkers) must
   pass a non-empty ``description=``: the CLI listings and the docs render
   those strings, so a blank one is a docs regression.

3. **Collector discipline** — in ``src/repro`` the process-wide switches of
   CPython's cyclic collector (``gc.disable``, ``gc.enable``,
   ``gc.freeze``, ``gc.unfreeze``, ``gc.set_threshold``) appear only inside
   ``compiler.collector_paused``.  That scope is reference-counted across
   nested compiles; a stray switch anywhere else would re-enable the
   collector under a running compile, or leave it off after the last one.

4. **In-process registration** — ``src/repro`` never references
   ``importlib.metadata`` or ``entry_points``.  The three registries are
   filled only by in-process ``register_*`` calls; package-metadata
   discovery would bring back a second registration path.

5. **Banned imports** — ``src/repro`` never imports a module of
   :data:`BANNED_IMPORTS` (``multiprocessing``, ``concurrent``,
   ``threading``, ``contextvars``), at any scope, in any file.  The
   planner's factor-order search, the autotuner and everything else run in
   the calling process and thread, and no state hides in an ambient
   context: what a result depends on is an argument or lives on its object
   (a graph carries its own signature).  The one process-wide store a
   compile reads, the compile memo (``repro.graph.memo``), caches only pure
   functions of frozen inputs, so no result depends on whether it is open.

6. **Machine locality** — ``machine_of``, ``devices_of_machine`` and
   ``locate`` (which machine holds a device) are referenced only in
   ``sim/device.py``, where links are resolved, and ``runtime/passes.py``,
   where pipeline stages are placed across machines.  Lowering names a
   transfer's endpoints and the topology prices the link between them
   (``link_between``); a backend comparing machines itself would hard-code
   one topology's hierarchy.

7. **Strategy-only baselines** — no call under ``src/repro/baselines``
   passes ``backend=`` or ``backend_options=``.  A Sec 7 system is a
   strategy expression that ``repro.compile`` compiles, never an
   execution backend lowered by name.

8. **Memory-only screening** — no code under ``src/repro/tuner`` reads
   ``.tasks``, ``.task_graph`` or ``.dense_form``.  A lowering emits its
   task rows only when something first reads them, so a screen must decide
   from the memory report; a read here would bring back full lowering of
   every candidate the tuner rejects.

Run from the repository root::

    python tools/lint_invariants.py

Exits 0 when clean, 1 with one ``path:line: RULE: message`` per violation.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import List, Optional, Tuple

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
    "cli",
]
RANK = {name: index for index, name in enumerate(LAYERS)}


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
# Rule 2: registry hygiene
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
# Rule 3: collector discipline
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
# Rule 4: in-process registration
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
# Rule 5: banned imports
# ---------------------------------------------------------------------------
#: Top-level modules ``src/repro`` never imports, and why.
BANNED_IMPORTS = {
    "multiprocessing": "everything runs in the calling process",
    "concurrent": "everything runs in the calling thread",
    "threading": "repro objects are used from one thread",
    "contextvars": "pass state as an argument or keep it on the object it "
                   "describes",
}


def _imported_modules(node: ast.AST) -> List[str]:
    """The top-level modules an absolute import statement names."""
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [(node.module or "").split(".")[0]]
    return []


def check_banned_imports(path: Path, tree: ast.Module) -> List[Violation]:
    return [
        Violation(path, node.lineno, "banned-import",
                  f"{module} imported; {BANNED_IMPORTS[module]}")
        for node in ast.walk(tree)
        for module in _imported_modules(node)
        if module in BANNED_IMPORTS
    ]


# ---------------------------------------------------------------------------
# Rule 6: machine locality
# ---------------------------------------------------------------------------
#: Topology methods that map a device to its machine.
MACHINE_LOOKUPS = {"machine_of", "devices_of_machine", "locate"}
#: The files (relative to src/repro) allowed to reference them.
MACHINE_LOOKUP_FILES = {"sim/device.py", "runtime/passes.py"}


def check_machine_locality(path: Path, tree: ast.Module,
                           root: Path = SRC) -> List[Violation]:
    if path.relative_to(root).as_posix() in MACHINE_LOOKUP_FILES:
        return []
    return [
        Violation(path, node.lineno, "machine-locality",
                  f"{node.attr} referenced; name the transfer's endpoints "
                  f"and let the topology resolve the link (link_between)")
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in MACHINE_LOOKUPS
    ]


# ---------------------------------------------------------------------------
# Rule 7: strategy-only baselines
# ---------------------------------------------------------------------------
#: Keywords that lower an execution backend by name.
BACKEND_KEYWORDS = {"backend", "backend_options"}
#: The package (relative to src/repro) whose calls may not pass them.
STRATEGY_ONLY_PACKAGE = "baselines"


def check_strategy_only_baselines(path: Path, tree: ast.Module,
                                  root: Path = SRC) -> List[Violation]:
    if path.relative_to(root).parts[0] != STRATEGY_ONLY_PACKAGE:
        return []
    return [
        Violation(path, keyword.value.lineno, "strategy-only-baselines",
                  f"{keyword.arg}= passed; evaluate the system as a "
                  f"strategy expression (evaluate_strategy) instead of "
                  f"lowering an execution backend by name")
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        for keyword in node.keywords
        if keyword.arg in BACKEND_KEYWORDS
    ]


# ---------------------------------------------------------------------------
# Rule 8: memory-only screening
# ---------------------------------------------------------------------------
#: Program attributes that force a lowering to emit its task rows.
TASK_READS = {"tasks", "task_graph", "dense_form"}
#: The package (relative to src/repro) that may not read them.
SCREENING_PACKAGE = "tuner"


def check_memory_only_screening(path: Path, tree: ast.Module,
                                root: Path = SRC) -> List[Violation]:
    if path.relative_to(root).parts[0] != SCREENING_PACKAGE:
        return []
    return [
        Violation(path, node.lineno, "memory-only-screening",
                  f".{node.attr} read; decide a candidate from its memory "
                  f"report, so a rejected one never emits its task rows")
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in TASK_READS
    ]


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------
def lint(root: Path = SRC) -> List[Violation]:
    """Run every rule over the tree; return the violations found."""
    violations: List[Violation] = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        violations.extend(check_layering(path, tree, root))
        violations.extend(check_registry_hygiene(path, tree))
        violations.extend(check_collector_discipline(path, tree, root))
        violations.extend(check_in_process_registration(path, tree))
        violations.extend(check_banned_imports(path, tree))
        violations.extend(check_machine_locality(path, tree, root))
        violations.extend(check_strategy_only_baselines(path, tree, root))
        violations.extend(check_memory_only_screening(path, tree, root))
    return violations


def main() -> int:
    violations = lint()
    for violation in violations:
        print(violation)
    if violations:
        print(f"{len(violations)} invariant violation(s)", file=sys.stderr)
        return 1
    print("invariants clean: layering, registry hygiene, collector "
          "discipline, in-process registration, banned imports, machine "
          "locality, strategy-only baselines, memory-only screening")
    return 0


if __name__ == "__main__":
    sys.exit(main())
