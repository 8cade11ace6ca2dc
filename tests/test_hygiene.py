"""Source hygiene of the package modules: no import that nothing uses, no
private top-level function that nothing calls, and no eager import of
``scipy.spatial``."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "nrreg"
# __init__.py imports only to re-export
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def read_names(tree):
    """Every bare name the module reads, the roots of attribute chains
    (``np`` in ``np.zeros``) included."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def imported_names(tree):
    """The names the module's imports bind, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def test_modules_found():
    assert {p.stem for p in MODULES} >= {"correspondence", "operators", "solver"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_used(path):
    tree = parse(path)
    unused = sorted(set(imported_names(tree)) - read_names(tree))
    assert unused == [], f"{path.name} imports {unused} and never uses them"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_private_function_referenced(path):
    tree = parse(path)
    private = {node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and node.name.startswith("_") and not node.name.endswith("__")}
    unused = sorted(private - read_names(tree))
    assert unused == [], f"{path.name} defines {unused} and never uses them"


def test_import_leaves_scipy_spatial_unloaded():
    # the kd-tree module is imported where a tree is built: loading it with
    # the package would add about a fifth to every fresh interpreter's import
    code = "import sys, nrreg, nrreg.cli; print('scipy.spatial' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
