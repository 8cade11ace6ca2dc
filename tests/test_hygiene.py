"""Source hygiene of the package modules: no import that nothing uses, no
private top-level function that nothing calls, and no eager import of
scipy: a process loads it at its first registration, not with the package."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nrreg import SolverConfig, register, synth_deformation
from nrreg.synthesis import DeformationSpec, make_strip

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


def run_python(code, *args):
    """Standard output of ``code`` run in a fresh interpreter on ``src/``."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    return subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          env=env, check=True, capture_output=True,
                          text=True).stdout


SCIPY_LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def test_import_leaves_scipy_unloaded():
    # scipy is imported where a matrix is built, factorized or a tree
    # searched: loading it with the package would take about two thirds of
    # every fresh interpreter's import
    code = f"import sys, nrreg, nrreg.cli; print({SCIPY_LOADED})"
    assert run_python(code).strip() == "[]"


def test_cli_pipeline_leaves_scipy_unloaded(tmp_path):
    # synthesize, corrupt, evaluate and fit residuals: no command of the
    # pipeline but register factorizes, so none of them loads scipy
    code = f"""if True:
        import sys
        from nrreg.cli import main
        out = sys.argv[1]
        codes = [
            main(["synth", "--nx", "12", "--ny", "4", "--out", out + "/s"]),
            main(["perturb", "--input", out + "/s/target.ply", "--kind",
                  "outliers", "--fraction", "0.1", "--out", out + "/p"]),
            main(["evaluate", "--template", out + "/s/template.ply",
                  "--ground-truth", out + "/p/corrupted.ply", "--transforms",
                  out + "/s/gt_transforms.txt", "--out", out + "/e"]),
            main(["fit-residuals", "--template", out + "/s/template.ply",
                  "--target", out + "/p/corrupted.ply", "--corr",
                  out + "/s/landmarks.txt", "--transforms",
                  out + "/s/gt_transforms.txt", "--out", out + "/f"]),
        ]
        print(codes, {SCIPY_LOADED})
    """
    assert run_python(code, tmp_path).strip() == "[0, 0, 0, 0] []"
    assert (tmp_path / "e" / "error_report.json").is_file()
    assert (tmp_path / "f" / "residual_fit.json").is_file()


def test_registration_from_scipy_free_process_bit_identical(tmp_path):
    # the first SystemStructure of a process imports scipy; its registration
    # is the same, bit for bit, as one in a process that had scipy loaded
    code = f"""if True:
        import sys
        import numpy as np
        from nrreg import SolverConfig, register, synth_deformation
        from nrreg.synthesis import DeformationSpec, make_strip
        before = {SCIPY_LOADED}
        template = make_strip(12, 4, 0.1, relief=0.5)
        target = synth_deformation(template, DeformationSpec(kind="bend"))[0]
        res = register(template, target, None, SolverConfig(outer_iters=3))
        np.save(sys.argv[1], res.transforms.blocks)
        print(before, "scipy" in sys.modules)
    """
    path = tmp_path / "blocks.npy"
    assert run_python(code, path).strip() == "[] True"
    template = make_strip(12, 4, 0.1, relief=0.5)
    target = synth_deformation(template, DeformationSpec(kind="bend"))[0]
    res = register(template, target, None, SolverConfig(outer_iters=3))
    assert np.array_equal(np.load(path), res.transforms.blocks)
