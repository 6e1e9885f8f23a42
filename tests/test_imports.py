"""Every imported name is used: a stdlib-only scan of the package and tests.

An import's name counts as used when its scope reads it: the module for a
top-level import, the function for an import inside one (nested functions
included). A name listed in ``__all__`` counts as used, and an import whose
line carries ``# noqa: F401`` is skipped, as are ``__future__`` imports.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted([*(ROOT / "src" / "helenos").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def _imports(node: ast.AST, scope: ast.AST):
    """Each import statement under ``node`` with its innermost function or module."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield scope, child
        inner = child if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
        yield from _imports(child, inner)


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name that its scope never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    exported = {
        elt.value
        for node in tree.body if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for elt in node.value.elts if isinstance(elt, ast.Constant)
    }
    read: dict[ast.AST, set[str]] = {}
    unused = []
    for scope, stmt in _imports(tree, tree):
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if "# noqa: F401" in lines[stmt.lineno - 1]:
            continue
        if scope not in read:
            read[scope] = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
            if scope is tree:
                read[scope] |= exported
        for alias in stmt.names:
            name = alias.asname or alias.name.partition(".")[0]
            if name not in read[scope]:
                unused.append((stmt.lineno, name))
    return unused


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_finds_what_it_should():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from json import dumps  # noqa: F401\n"
        "from re import compile as rx\n"
        "__all__ = ['rx']\n"
        "def f():\n"
        "    import math\n"
        "    return sys.argv\n"
        "def g():\n"
        "    from pathlib import Path\n"
        "    def h():\n"
        "        return Path\n"
        "    return h\n"
    )
    assert unused_imports(source) == [(2, "os"), (7, "math")]
