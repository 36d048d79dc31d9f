"""Every name the benchmark's traced run wraps still resolves where bench/spans.py looks for it."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"

# wrapped by name outside TRACED: the final-state readout that marks a branch used
UNLISTED = [("protocol", "_final_state")]


def _traced() -> dict[str, tuple[str, ...]]:
    """The TRACED table of bench/spans.py, read from its source without importing it."""
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{SPANS} defines no TRACED table")


@pytest.mark.parametrize("layer, name", [(layer, name) for layer, names in _traced().items()
                                         for name in names] + UNLISTED)
def test_traced_name_resolves(layer, name):
    # spans.py reads "Class.method" as a method and a bare name as a module attribute
    target = importlib.import_module(f"bcabe.{layer}")
    for part in name.split("."):
        assert hasattr(target, part), f"bcabe.{layer} has no {name}; the traced run cannot bind it"
        target = getattr(target, part)
    assert callable(target)
