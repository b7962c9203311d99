"""Every public export and every function the benchmark tracer wraps exists.

The traced benchmark run (perfbench/spans.py) looks functions up by module
and name; a rename or deletion here would silently drop a span from it.
"""

import ast
import importlib
from pathlib import Path

import drgcayley

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
