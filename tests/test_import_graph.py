"""The engine's modules import without cycles and without lazy loaders.

Each module below is imported alone in a fresh interpreter: an import cycle
shows up as an ``ImportError`` for whichever module enters it first, so
every entry point is tried on its own.  ``repro.engine.shapes`` is the one
shape analysis every engine layer imports, which holds only while it
imports nothing but the language layers and the standard library.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

ENTRY_POINTS = (
    "repro.engine.incremental.view",
    "repro.engine.incremental.delta",
    "repro.api.catalog",
    "repro.workloads.databases",
    "repro.engine.router",
    "repro.engine.shapes",
    "repro.service.server",
)


@pytest.mark.parametrize("module", ENTRY_POINTS)
def test_module_imports_alone_in_a_fresh_interpreter(module):
    out = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr


def _imported_modules(path: Path) -> set[str]:
    """Absolute names of every module ``path`` imports from."""
    package = "repro.engine"
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package.rsplit(".", node.level - 1)[0]
                names.add(f"{base}.{node.module}" if node.module else base)
            else:
                names.add(node.module)
    return names


def test_shapes_imports_only_the_language_layers_and_the_stdlib():
    imported = _imported_modules(SRC / "repro" / "engine" / "shapes.py")
    assert imported, "the parse found no imports at all"
    for name in imported:
        top = name.partition(".")[0]
        allowed = (
            name.startswith(("repro.nra", "repro.objects"))
            or (top != "repro" and top in sys.stdlib_module_names)
        )
        assert allowed, f"shapes.py imports {name}"


def test_incremental_package_loads_its_modules_eagerly():
    tree = ast.parse((SRC / "repro" / "engine" / "incremental" / "__init__.py").read_text())
    defined = {
        node.name for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    assert "__getattr__" not in defined


def test_interning_imports_only_the_object_layer_and_the_stdlib():
    imported = _imported_modules(SRC / "repro" / "engine" / "interning.py")
    assert imported, "the parse found no imports at all"
    for name in imported:
        top = name.partition(".")[0]
        allowed = (
            name.startswith("repro.objects")
            or (top != "repro" and top in sys.stdlib_module_names)
        )
        assert allowed, f"interning.py imports {name}"
