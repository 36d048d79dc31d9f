"""The package's module graph runs one way, and no module imports a name it never uses."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import test_bench_spans

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


def _definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """Each top-level function, class and constant name, with the statement defining it."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update((name.id, node) for target in targets for name in ast.walk(target)
                           if isinstance(name, ast.Name))
    return defined


def _unreached(sources: dict[str, str], traced: dict[str, tuple[str, ...]]) -> list[str]:
    """'module.name' for every top-level name of a module that nothing reaches.

    A name is reached when another module imports it from its module, when its
    own module refers to it outside the statement defining it, or when traced
    lists it (a "Class.method" entry reaches Class) under its module.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    imported = {(node.module, alias.name) for tree in trees.values() for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names}
    out = []
    for module, tree in trees.items():
        for name, definition in _definitions(tree).items():
            inside = {id(node) for node in ast.walk(definition)}
            own = any(isinstance(node, ast.Name) and node.id == name and id(node) not in inside
                      for node in ast.walk(tree))
            listed = name in {entry.split(".")[0] for entry in traced.get(module, ())}
            if not (own or listed or (module, name) in imported):
                out.append(f"{module}.{name}")
    return out


def test_every_top_level_name_is_reached():
    # __init__'s re-exports reach nothing: a name only the package root exports is dead
    traced = test_bench_spans._traced()
    assert _unreached({m: (SRC / f"{m}.py").read_text() for m in MODULES}, traced) == []


def test_unreached_name_finder():
    sources = {
        "tensor": ("LIMIT = 3\n"
                   "A, B = 1, 2\n"
                   "def helper(x):\n"
                   "    return helper(x - 1) if x else LIMIT\n"
                   "def used():\n"
                   "    return A\n"
                   "class Traced:\n"
                   "    def method(self):\n"
                   "        return Traced\n"),
        "cli": ("from .tensor import used\n"
                "def main():\n"
                "    return used()\n"),
    }
    traced = {"tensor": ("Traced.method",), "cli": ("main",)}
    assert _unreached(sources, traced) == ["tensor.B", "tensor.helper"]
