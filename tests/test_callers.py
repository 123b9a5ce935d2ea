"""Regrowth guard: every top-level function and class in src/thuecc has a
caller outside the tests.

A definition counts as reached when its name is read (as a name or an
attribute) somewhere in src/thuecc other than __init__.py and its own
body, or anywhere in perfbench/*.py, where the tracer also reaches
functions by their names as strings.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "thuecc"
PERFBENCH = ROOT / "perfbench"


def _names_read(node: ast.AST, strings: bool = False) -> set[str]:
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.add(sub.value)
    return out


def unreached_definitions(src: Path = SRC, perfbench: Path = PERFBENCH) -> list[str]:
    """module.name of every top-level def or class that nothing reaches."""
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
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            seen = set(bench_names)
            for other, other_tree in modules.items():
                if other != mod:
                    seen |= _names_read(other_tree)
            for stmt in tree.body:
                if stmt is not node:
                    seen |= _names_read(stmt)
            if node.name not in seen:
                unreached.append(f"{mod}.{node.name}")
    return unreached


def test_every_definition_has_a_caller_outside_the_tests():
    assert unreached_definitions() == []
