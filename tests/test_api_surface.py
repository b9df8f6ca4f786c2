"""The package exports only what the engine itself or the benchmark uses."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "modinv"


def _references(tree: ast.AST) -> set[str]:
    """Names read and attributes taken anywhere in ``tree``."""
    out: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def _top_level_skipping(tree: ast.Module, name: str) -> set[str]:
    """References in a module, not counting the body of the top-level
    definition of ``name`` (its own recursion is not a use)."""
    out: set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and stmt.name == name:
            continue
        out |= _references(stmt)
    return out


def test_every_export_is_used_by_the_engine_or_the_benchmark():
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = [
        alias.asname or alias.name
        for stmt in init.body
        if isinstance(stmt, ast.ImportFrom)
        for alias in stmt.names
    ]
    modules = [ast.parse(path.read_text()) for path in PACKAGE.glob("*.py") if path.name != "__init__.py"]
    bench = set()
    for path in (ROOT / "perfbench").glob("*.py"):
        bench |= _references(ast.parse(path.read_text()))
    unused = [
        name
        for name in exported
        if name not in bench and not any(name in _top_level_skipping(tree, name) for tree in modules)
    ]
    assert exported and unused == []
