"""The package's modules form strict layers: each imports only modules to
its left in `ORDER`, so every rule lives in the lowest module whose data it
reads. No module imports the package facade (`armrc/__init__.py`), which
sits above them all."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "armrc"
ORDER = ("core", "profiles", "readout", "tasks", "surrogate", "config",
         "sweeps", "runio", "cli")


def _imports(module: str) -> set:
    """The armrc modules ``module`` imports, anywhere in its file; a bare
    ``import armrc`` is the facade, ``__init__``."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            found.update([node.module.split(".")[0]] if node.module
                         else (alias.name for alias in node.names))
        elif isinstance(node, ast.ImportFrom) and node.module:
            parts = node.module.split(".")
            if parts[0] == "armrc":
                found.update(parts[1:2] or (alias.name for alias in node.names))
        elif isinstance(node, ast.Import):
            found.update((parts[1:2] or ["__init__"])[0] for parts in
                         (alias.name.split(".") for alias in node.names)
                         if parts[0] == "armrc")
    return found


def test_every_module_has_a_layer():
    assert {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"} == set(ORDER)


@pytest.mark.parametrize("module", ORDER)
def test_a_module_imports_only_lower_layers(module):
    lower = set(ORDER[:ORDER.index(module)])
    assert _imports(module) - lower == set()
