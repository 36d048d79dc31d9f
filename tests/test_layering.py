"""The package's module graph runs one way, and no module imports a name it never uses."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "bcabe"

# the cut-set bound (cuts) and its achievability (protocol) meet only in certify
LAYERS = {
    "tensor": 0,
    "simplex": 0,
    "states": 1,
    "cuts": 2,
    "protocol": 3,
    "certify": 4,
    "cli": 5,
}

MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


def _package_imports(source: str) -> list[tuple[int, str]]:
    """(line, module) for every import of a bcabe module, nested imports included."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                parts = (node.module or "").split(".")
            elif node.module and node.module.split(".")[0] == "bcabe":
                parts = node.module.split(".")[1:]
            else:
                continue
            if parts and parts[0]:
                out.append((node.lineno, parts[0]))
            else:  # from . import simplex
                out += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            out += [(node.lineno, alias.name.split(".")[1]) for alias in node.names
                    if alias.name.startswith("bcabe.")]
    return out


def test_every_module_has_a_layer():
    assert MODULES == sorted(LAYERS)


@pytest.mark.parametrize("module", MODULES)
def test_imports_only_lower_layers(module):
    upward = [f"line {line}: imports {target}"
              for line, target in _package_imports((SRC / f"{module}.py").read_text())
              if LAYERS.get(target, len(LAYERS)) >= LAYERS[module]]
    assert upward == [], f"{module} (layer {LAYERS[module]}) imports upward or sideways"


def test_parser_sees_nested_and_bare_relative_imports():
    source = ("from . import simplex\n"
              "def f():\n"
              "    from .protocol import prepare_bcabe\n"
              "import bcabe.cli\n")
    assert sorted(_package_imports(source)) == [(1, "simplex"), (3, "protocol"), (4, "cli")]


def _unused_imports(source: str) -> list[str]:
    """'line N: name' for every name the source imports and never references."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((alias.asname or alias.name, node.lineno) for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name.split(".")[0], node.lineno)
                            for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items()) if name not in used]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert _unused_imports((SRC / f"{module}.py").read_text()) == []


def test_unused_import_finder():
    source = ("from __future__ import annotations\n"
              "import numpy as np\n"
              "import os.path\n"
              "from .tensor import DensityMatrix, embed_operator\n"
              "def f(m: DensityMatrix):\n"
              "    return np.trace(m.entries)\n")
    assert _unused_imports(source) == ["line 4: embed_operator", "line 3: os"]
