"""The benchmark's three registrations at seed 1, on the inputs
``nrbench/workloads.py`` builds: a change meant only to make the solver
faster must leave their iteration counts as they are and their errors
within 1e-6 relative of the values recorded in CHANGES.md."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

import nrreg.cli
from nrreg.metrics import mean_distance_error
from nrreg.solver import register

ROOT = Path(__file__).resolve().parents[1]

# workload: (outer iterations, inner iterations, error_rel)
EXPECTED = {
    "bend-outliers-800": (13, 229, 1.9334793435641937e-05),
    "l2-noise-6400": (6, 6, 1.839793939845223e-04),
    "cli-cloud-600": (10, 182, 1.394874538430353e-05),
}


@pytest.fixture(scope="module")
def workloads():
    # loaded from its file, under a name of its own (its dataclasses look
    # their module up in sys.modules)
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "nrbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


@pytest.mark.parametrize("name", list(EXPECTED))
def test_bench_registration_unchanged(name, workloads, tmp_path):
    w = workloads.WORKLOADS[name]
    inp = workloads.make_inputs(w, 1, str(tmp_path))
    if w.cli:
        # as the benchmark runs it: nrreg.cli.main on the written files
        f, out = inp.files, tmp_path / "run"
        assert nrreg.cli.main([
            "register", "--template", f["template"], "--target", f["target"],
            "--corr", f["landmarks"], "--ground-truth", f["ground_truth"],
            "--out", str(out)]) == 0
        iterations = json.loads((out / "iterations.json").read_text())
        report = json.loads((out / "error_report.json").read_text())
        converged, log = iterations["converged"], iterations["outer"]
        error = report["mean_distance"] / inp.diag
    else:
        res = register(inp.template, inp.target, inp.landmarks, inp.config)
        converged, log = res.converged, res.log
        error = mean_distance_error(res.transforms, inp.template,
                                    inp.ground_truth) / inp.diag
    outer, inner, error_rel = EXPECTED[name]
    assert converged
    assert (len(log), sum(e["inner"] for e in log)) == (outer, inner)
    assert error == pytest.approx(error_rel, rel=1e-6)
