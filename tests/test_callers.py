"""Regrowth guards: every top-level function and class in src/thuecc,
every method other than a dunder, and every dataclass field has a reader
outside the tests; every function the benchmark tracer wraps exists; the
package's __init__.py is its docstring alone, so no name is re-exported;
polyutil is the only module that imports sympy, and every sympy name it
imports is read somewhere in src/thuecc.

A definition counts as reached when its name is read (as a name or an
attribute) somewhere in src/thuecc other than __init__.py and its own
body, or anywhere in perfbench/*.py, where the tracer also reaches
functions by their names as strings.  A method's own class counts as
somewhere else, so a helper method that a sibling method calls is
reached.

A dataclass field counts as read when an attribute of its name is loaded
anywhere in src/thuecc or perfbench/*.py, its own class's methods (such
as to_dict) included.  A keyword in a constructor call or in
dataclasses.replace is a write, not a read.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "thuecc"
PERFBENCH = ROOT / "perfbench"
DEFINITION = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names_read(node: ast.AST, strings: bool = False, skip: ast.AST | None = None) -> set[str]:
    """Names and attributes read under node, outside the subtree skip."""
    out = set()
    stack = [node]
    while stack:
        sub = stack.pop()
        if sub is skip:
            continue
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.add(sub.value)
        stack.extend(ast.iter_child_nodes(sub))
    return out


def _definitions(tree: ast.Module):
    """(qualified name, node) of every top-level def or class and of every
    method of a top-level class whose name is not a dunder."""
    for node in tree.body:
        if not isinstance(node, DEFINITION):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, DEFINITION) and not (
                    sub.name.startswith("__") and sub.name.endswith("__")
                ):
                    yield f"{node.name}.{sub.name}", sub


def unreached_definitions(src: Path = SRC, perfbench: Path = PERFBENCH) -> list[str]:
    """module.name of every top-level def or class, and module.Class.name
    of every non-dunder method, that nothing reaches."""
    modules = {
        path.stem: ast.parse(path.read_text())
        for path in sorted(src.glob("*.py"))
        if path.name != "__init__.py"
    }
    bench_names: set[str] = set()
    for path in sorted(perfbench.glob("*.py")):
        bench_names |= _names_read(ast.parse(path.read_text()), strings=True)
    unreached = []
    for mod, tree in modules.items():
        outside = set(bench_names)
        for other, other_tree in modules.items():
            if other != mod:
                outside |= _names_read(other_tree)
        for qualname, node in _definitions(tree):
            if node.name not in outside | _names_read(tree, skip=node):
                unreached.append(f"{mod}.{qualname}")
    return unreached


def test_every_definition_has_a_caller_outside_the_tests():
    assert unreached_definitions() == []


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def unread_fields(src: Path = SRC, perfbench: Path = PERFBENCH) -> list[str]:
    """module.Class.field of every dataclass field that no attribute load
    in src/thuecc or perfbench/*.py reads."""
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    bench = [ast.parse(path.read_text()) for path in sorted(perfbench.glob("*.py"))]
    loaded = {
        node.attr
        for tree in [*modules.values(), *bench]
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = []
    for mod, tree in modules.items():
        for node in tree.body:
            if not (isinstance(node, ast.ClassDef) and _is_dataclass(node)):
                continue
            for stmt in node.body:
                if (
                    isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                    and stmt.target.id not in loaded
                ):
                    unread.append(f"{mod}.{node.name}.{stmt.target.id}")
    return unread


def test_every_dataclass_field_is_read_outside_the_tests():
    assert unread_fields() == []


def tracer_targets(perfbench: Path = PERFBENCH) -> list[tuple[str, str]]:
    """(layer, function) of every entry of TARGETS in perfbench/tracing.py,
    read from the file without importing it."""
    tree = ast.parse((perfbench / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return [(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts]
    raise AssertionError("perfbench/tracing.py defines no TARGETS")


# the tracer wraps this classmethod on its class, not a module function
TRACER_CLASS_TARGETS = {("forms", "build"): "ThueInstance"}


def test_every_tracer_target_resolves():
    targets = tracer_targets()
    assert targets
    missing = []
    for layer, fn in targets:
        owner = importlib.import_module(f"thuecc.{layer}")
        if (layer, fn) in TRACER_CLASS_TARGETS:
            owner = getattr(owner, TRACER_CLASS_TARGETS[layer, fn])
        if not hasattr(owner, fn):
            missing.append(f"{layer}.{fn}")
    assert missing == []


def sympy_importers(src: Path = SRC) -> list[str]:
    """The modules of src/thuecc with an import of sympy or a submodule."""
    out = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "sympy" for name in names):
                out.append(path.stem)
                break
    return out


def test_only_polyutil_imports_sympy():
    assert sympy_importers() == ["polyutil"]


def unread_sympy_imports(src: Path = SRC) -> list[str]:
    """The names polyutil imports from sympy that no module of src/thuecc
    reads, as a name in polyutil or as polyutil.<name> elsewhere; its
    noqa re-export line would otherwise keep a dead name."""
    trees = [ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))]
    read = set().union(*(_names_read(tree) for tree in trees))
    polyutil = ast.parse((src / "polyutil.py").read_text())
    imported = [
        alias.asname or alias.name
        for node in polyutil.body
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "sympy"
        for alias in node.names
    ]
    return [name for name in imported if name not in read]


def test_every_sympy_import_is_read():
    assert unread_sympy_imports() == []


def test_package_reexports_nothing():
    body = ast.parse((SRC / "__init__.py").read_text()).body
    assert len(body) == 1
    assert isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
