"""Every public export and every function the benchmark tracer wraps exists.

The traced benchmark run (perfbench/spans.py) looks functions up by module
and name; a rename or deletion here would silently drop a span from it.
Every name a source module imports is also used there, since no linter
runs on the package.
"""

import ast
import importlib
from pathlib import Path

import pytest

import drgcayley

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
SOURCES = sorted((ROOT / "src" / "drgcayley").glob("*.py"))


def _traced_targets():
    """TARGETS from perfbench/spans.py, read as a literal without running it."""
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py defines no TARGETS")


def test_traced_functions_resolve():
    targets = _traced_targets()
    assert targets
    for module, function, _ in targets:
        mod = importlib.import_module(f"drgcayley.{module}")
        assert callable(getattr(mod, function, None)), f"{module}.{function}"


def test_public_exports_resolve():
    missing = [name for name in drgcayley.__all__ if not hasattr(drgcayley, name)]
    assert missing == []


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _unused_imports(tree):
    """Names bound by import statements that the module never reads.

    A name counts as read when it appears as a ``Name`` node (``__all__``
    re-exports included) or inside a quoted annotation.
    """
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    reads = [tree]
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                reads.append(ast.parse(node.value, mode="eval"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            reads.extend(ast.parse(name, mode="eval") for name in ast.literal_eval(node.value))
    used = {n.id for r in reads for n in ast.walk(r) if isinstance(n, ast.Name)}
    return sorted(f"line {line}: {name}" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text())) == []
