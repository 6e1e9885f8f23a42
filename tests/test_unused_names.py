"""The package keeps only what it runs: a stdlib-only scan of ``src/helenos``.

Every top-level function, class and assignment, and every method, must be
read somewhere in the package outside its own definition: a top-level name
as a name, a method as an attribute. Dunder names are called by Python
itself and are not scanned. ``ALLOWED`` names the few definitions that are
kept for readers outside the package, each with its reason.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "helenos"

ALLOWED = {
    "transport.TcpNodeServer.stop": "library API for an embedded node; tests stop servers with it",
    "wire.decode_header": "perfbench/tracing.py wraps it on the node's codec path",
    "wire.storage_ok_body": "perfbench/tracing.py wraps it on the node's codec path",
    "config.dump_config": "README promises that a scenario file round-trips exactly",
}


def _reads(node: ast.AST) -> Counter:
    """How often each name is read, as a name or as an attribute, under ``node``."""
    reads: Counter = Counter()
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            reads[child.id] += 1
        elif isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
            reads[child.attr] += 1
    return reads


def _definitions(module: str, tree: ast.Module):
    """(qualified name, bare name, defining node) of each scanned definition."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield f"{module}.{stmt.name}", stmt.name, stmt
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store):
                        yield f"{module}.{name.id}", name.id, stmt
        if isinstance(stmt, ast.ClassDef):
            for item in stmt.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{module}.{stmt.name}.{item.name}", item.name, item


def unused_definitions(sources: dict[str, str]) -> list[str]:
    """Qualified names of the definitions in ``sources`` (module name to
    source) that nothing outside their own definition reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads: Counter = Counter()
    for tree in trees.values():
        reads += _reads(tree)
    unused = []
    for module, tree in trees.items():
        for qualified, name, node in _definitions(module, tree):
            if name.startswith("__") and name.endswith("__"):
                continue
            if reads[name] - _reads(node)[name] <= 0:
                unused.append(qualified)
    return sorted(unused)


def test_package_reads_everything_it_defines():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unused_definitions(sources) == sorted(ALLOWED)


def test_scan_flags_an_unused_definition():
    sources = {
        "a": (
            "LIMIT = 3\n"
            "SPARE = 4\n"
            "def used():\n"
            "    return LIMIT\n"
            "def recursive(n):\n"
            "    return recursive(n - 1) if n else 0\n"
            "class Box:\n"
            "    def __init__(self):\n"
            "        self.n = used()\n"
            "    def get(self):\n"
            "        return self.n\n"
            "    def spare(self):\n"
            "        return 0\n"
        ),
        "b": "from a import Box\nprint(Box().get())\n",
    }
    assert unused_definitions(sources) == ["a.Box.spare", "a.SPARE", "a.recursive"]
