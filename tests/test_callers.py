"""Regrowth guard: every top-level function and class in src/thuecc, and
every method other than a dunder, has a caller outside the tests.

A definition counts as reached when its name is read (as a name or an
attribute) somewhere in src/thuecc other than __init__.py and its own
body, or anywhere in perfbench/*.py, where the tracer also reaches
functions by their names as strings.  A method's own class counts as
somewhere else, so a helper method that a sibling method calls is
reached.
"""

from __future__ import annotations

import ast
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
