"""Every function the benchmark's tracer wraps must still exist in bcpp.

The tracer skips a missing name silently, so a renamed or moved function
would quietly read 0 in the per-layer metrics instead of failing here.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _traced() -> dict[str, tuple[str, ...]]:
    """The tracer's ``TRACED`` table, read from its source without importing it."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED table in {TRACER}")


def test_every_traced_function_exists():
    traced = _traced()
    assert traced
    missing = [f"bcpp.{mod}.{func}"
               for mod, funcs in traced.items()
               for func in funcs
               if not callable(getattr(importlib.import_module(f"bcpp.{mod}"),
                                       func, None))]
    assert missing == []
