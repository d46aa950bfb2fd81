"""perfbench/tracer.py wraps ballratio functions by name: every name it
lists must resolve, or the benchmark's --trace 1 crashes."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced() -> tuple[tuple[str, str], ...]:
    """TRACED from the tracer's source, read without importing it."""
    for node in ast.parse(TRACER.read_text()).body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        if any(isinstance(t, ast.Name) and t.id == "TRACED" for t in targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED in {TRACER}")


def test_every_traced_name_resolves():
    traced = _traced()
    assert traced
    for mod, qual in traced:
        obj = importlib.import_module(f"ballratio.{mod}")
        for part in qual.split("."):
            assert hasattr(obj, part), f"ballratio.{mod}.{qual}"
            obj = getattr(obj, part)
        assert callable(obj), f"ballratio.{mod}.{qual}"
