"""End-to-end command-line behavior: artifacts, exit codes, manifests."""

import json
import os

import numpy as np
import pytest

from nrreg import TransformStack, load_shape
from nrreg.cli import CliError, load_transforms, main, save_transforms


def run(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def instance(tmp_path_factory):
    """Small synthetic bend pair generated through the CLI itself."""
    root = tmp_path_factory.mktemp("cli")
    out = root / "inst"
    assert run("synth", "--nx", "16", "--ny", "6", "--out", str(out)) == 0
    return out


class TestTransformFile:
    def test_roundtrip(self, tmp_path):
        blocks = np.random.default_rng(0).standard_normal((5, 3, 4))
        path = tmp_path / "t.txt"
        save_transforms(path, TransformStack(blocks))
        back = load_transforms(path)
        assert np.array_equal(back.blocks, blocks)
        header = path.read_text().splitlines()[0]
        assert header == "nonrigid-transforms v1 N=5"

    def test_bad_header(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("something else\n")
        with pytest.raises(CliError, match="header"):
            load_transforms(path)

    def test_wrong_row_count(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("nonrigid-transforms v1 N=2\n1 0 0 0\n")
        with pytest.raises(CliError, match="expected 6 data lines"):
            load_transforms(path)


class TestRegisterCommand:
    def test_identical_shapes_exit_zero(self, instance, tmp_path):
        out = tmp_path / "reg"
        code = run("register", "--template", str(instance / "template.ply"),
                   "--target", str(instance / "template.ply"),
                   "--corr", str(instance / "landmarks.txt"),
                   "--out", str(out))
        assert code == 0
        deformed = load_shape(out / "deformed.ply")
        template = load_shape(instance / "template.ply")
        assert np.abs(deformed.vertices - template.vertices).max() < 1e-6
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "register"
        assert set(manifest["inputs"])  # input hashes recorded

    def test_missing_template_exit_one(self, tmp_path, capsys):
        code = run("register", "--template", str(tmp_path / "nope.ply"),
                   "--target", str(tmp_path / "nope.ply"),
                   "--out", str(tmp_path / "o"))
        assert code == 1
        assert "nope.ply" in capsys.readouterr().err

    def test_nonconvergence_exit_two_still_writes(self, instance, tmp_path):
        out = tmp_path / "reg"
        code = run("register", "--template", str(instance / "template.ply"),
                   "--target", str(instance / "target.ply"),
                   "--corr", str(instance / "landmarks.txt"),
                   "--outer-iters", "1", "--max-dist-factor", "1.5",
                   "--out", str(out))
        assert code == 2
        assert (out / "transforms.txt").exists()
        assert (out / "manifest.json").exists()

    def test_variant_pair_comparable_reports(self, instance, tmp_path):
        pert = tmp_path / "pert"
        assert run("perturb", "--input", str(instance / "target.ply"),
                   "--kind", "outliers", "--fraction", "0.05",
                   "--sigma", "3.0", "--seed", "13", "--out", str(pert)) == 0
        reports = {}
        for variant in ("dual_sparse", "l2"):
            out = tmp_path / variant
            code = run("register", "--template", str(instance / "template.ply"),
                       "--target", str(pert / "corrupted.ply"),
                       "--corr", str(instance / "landmarks.txt"),
                       "--ground-truth", str(instance / "target.ply"),
                       "--variant", variant, "--max-dist-factor", "1.5",
                       "--out", str(out))
            assert code in (0, 2)
            assert (out / "manifest.json").exists()
            reports[variant] = json.loads(
                (out / "error_report.json").read_text())
        assert reports["dual_sparse"]["mean_distance"] <= \
            reports["l2"]["mean_distance"]

    def test_config_file_with_flag_override(self, instance, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"alpha": 2.0, "outer_iters": 2}))
        out = tmp_path / "reg"
        code = run("register", "--template", str(instance / "template.ply"),
                   "--target", str(instance / "template.ply"),
                   "--corr", str(instance / "landmarks.txt"),
                   "--config", str(cfg_path), "--alpha", "3.0",
                   "--out", str(out))
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["alpha"] == 3.0       # flag wins
        assert manifest["config"]["outer_iters"] == 2   # file value kept

    def test_l2_without_smoothness_rejected(self, instance, tmp_path, capsys):
        code = run("register", "--template", str(instance / "template.ply"),
                   "--target", str(instance / "template.ply"),
                   "--variant", "l2", "--alpha", "0", "--out", str(tmp_path / "o"))
        assert code == 1
        err = capsys.readouterr().err
        assert "alpha" in err and "singular" not in err

    def test_unknown_config_key_rejected(self, instance, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"alphas": 2.0}))
        code = run("register", "--template", str(instance / "template.ply"),
                   "--target", str(instance / "template.ply"),
                   "--config", str(cfg_path), "--out", str(tmp_path / "o"))
        assert code == 1
        assert "alphas" in capsys.readouterr().err


class TestPerturbCommand:
    def test_noise_preserves_vertex_count(self, instance, tmp_path):
        out = tmp_path / "p"
        assert run("perturb", "--input", str(instance / "target.ply"),
                   "--kind", "noise", "--sigma", "0.3",
                   "--out", str(out)) == 0
        original = load_shape(instance / "target.ply")
        corrupted = load_shape(out / "corrupted.ply")
        assert corrupted.n_vertices == original.n_vertices

    def test_outlier_index_count(self, instance, tmp_path):
        out = tmp_path / "p"
        assert run("perturb", "--input", str(instance / "target.ply"),
                   "--kind", "outliers", "--fraction", "0.05",
                   "--out", str(out)) == 0
        n = load_shape(instance / "target.ply").n_vertices
        lines = (out / "outliers.txt").read_text().split()
        assert len(lines) == int(np.floor(0.05 * n))

    def test_same_seed_byte_identical(self, instance, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run("perturb", "--input", str(instance / "target.ply"),
                       "--kind", "noise", "--sigma", "0.5", "--seed", "7",
                       "--out", str(out)) == 0
            outs.append((out / "corrupted.ply").read_bytes())
        assert outs[0] == outs[1]


class TestEvaluateCommand:
    def test_ground_truth_transforms_zero_error(self, instance, tmp_path):
        out = tmp_path / "ev"
        code = run("evaluate", "--template", str(instance / "template.ply"),
                   "--ground-truth", str(instance / "target.ply"),
                   "--transforms", str(instance / "gt_transforms.txt"),
                   "--out", str(out))
        assert code == 0
        report = json.loads((out / "error_report.json").read_text())
        assert report["mean"] == pytest.approx(0.0, abs=1e-12)


class TestFitResidualsCommand:
    def test_snr_residuals_prefer_laplace(self, instance, tmp_path):
        reg = tmp_path / "reg"
        code = run("register", "--template", str(instance / "template.ply"),
                   "--target", str(instance / "target.ply"),
                   "--corr", str(instance / "landmarks.txt"),
                   "--variant", "snr", "--max-dist-factor", "1.5",
                   "--out", str(reg))
        assert code in (0, 2)
        out = tmp_path / "fit"
        code = run("fit-residuals", "--template", str(instance / "template.ply"),
                   "--target", str(instance / "target.ply"),
                   "--corr", str(instance / "landmarks.txt"),
                   "--transforms", str(reg / "transforms.txt"),
                   "--out", str(out))
        assert code == 0
        fit = json.loads((out / "residual_fit.json").read_text())
        for mode in ("per_axis_l1", "euclidean"):
            assert {"laplace", "gauss"} <= set(fit[mode])


class TestCompareCommand:
    def test_csv_three_rows_per_variant(self, instance, tmp_path):
        out = tmp_path / "cmp"
        code = run("compare", "--template", str(instance / "template.ply"),
                   "--target", str(instance / "target.ply"),
                   "--ground-truth", str(instance / "target.ply"),
                   "--corr", str(instance / "landmarks.txt"),
                   "--variants", "dual_sparse,l2",
                   "--sigmas", "0.3,0.7,1.0",
                   "--max-dist-factor", "1.5", "--out", str(out))
        assert code == 0
        lines = (out / "comparison.csv").read_text().strip().splitlines()
        assert lines[0] == "variant,sigma,alpha,mean_error"
        assert len(lines) == 1 + 6
        assert sum(ln.startswith("dual_sparse,") for ln in lines[1:]) == 3
        assert sum(ln.startswith("l2,") for ln in lines[1:]) == 3

    def test_invalid_grid_point_exit_one(self, instance, tmp_path, capsys):
        code = run("compare", "--template", str(instance / "template.ply"),
                   "--target", str(instance / "target.ply"),
                   "--ground-truth", str(instance / "target.ply"),
                   "--variants", "l2", "--alphas", "1,0",
                   "--out", str(tmp_path / "cmp"))
        assert code == 1
        assert "alpha" in capsys.readouterr().err


def subcommand_argv(command, inst, out):
    """Cheap arguments for each subcommand on the shared instance."""
    t, g = str(inst / "template.ply"), str(inst / "target.ply")
    lm, gt = str(inst / "landmarks.txt"), str(inst / "gt_transforms.txt")
    return {
        "register": ["--template", t, "--target", t, "--corr", lm],
        "perturb": ["--input", g, "--kind", "noise"],
        "evaluate": ["--template", t, "--ground-truth", g, "--transforms", gt],
        "fit-residuals": ["--template", t, "--target", g, "--corr", lm,
                          "--transforms", gt],
        "compare": ["--template", t, "--target", g, "--ground-truth", g,
                    "--corr", lm, "--variants", "l2", "--outer-iters", "1"],
        "synth": ["--nx", "4", "--ny", "3"],
    }[command] + ["--out", str(out)]


class TestManifest:
    @pytest.mark.parametrize("command", ["register", "perturb", "evaluate",
                                         "fit-residuals", "compare", "synth"])
    def test_phase_timings_recorded(self, command, instance, tmp_path):
        out = tmp_path / command
        assert run(command, *subcommand_argv(command, instance, out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        timings = manifest["timings"]
        assert set(timings) == {"load", "solve", "write"}
        assert all(isinstance(v, float) and v >= 0 for v in timings.values())

    def test_register_records_no_seed(self, instance, tmp_path):
        out = tmp_path / "reg"
        assert run("register", *subcommand_argv("register", instance, out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] is None
        assert "rng_seed" not in manifest["config"]


class TestReplay:
    def test_register_replay_byte_identical(self, instance, tmp_path):
        out = tmp_path / "reg"
        code = run("register", "--template", str(instance / "template.ply"),
                   "--target", str(instance / "target.ply"),
                   "--corr", str(instance / "landmarks.txt"),
                   "--ground-truth", str(instance / "target.ply"),
                   "--max-dist-factor", "1.5", "--out", str(out))
        assert code in (0, 2)
        replayed = tmp_path / "reg2"
        assert run("replay", "--manifest", str(out / "manifest.json"),
                   "--out", str(replayed)) == code
        for name in ("deformed.ply", "transforms.txt", "iterations.json",
                     "error_report.json", "error_colored.ply"):
            assert (out / name).read_bytes() == (replayed / name).read_bytes()

    def test_synth_replay_byte_identical(self, instance, tmp_path):
        replayed = tmp_path / "inst2"
        assert run("replay", "--manifest", str(instance / "manifest.json"),
                   "--out", str(replayed)) == 0
        for name in ("template.ply", "target.ply", "landmarks.txt",
                     "gt_transforms.txt"):
            assert (instance / name).read_bytes() == \
                (replayed / name).read_bytes()


class TestUsageErrors:
    def test_unknown_subcommand_exit_one(self, capsys):
        assert run("frobnicate") == 1

    def test_missing_required_flag_exit_one(self, capsys):
        assert run("register", "--template", "x.ply") == 1
