"""End-to-end command-line behavior: artifacts, exit codes, manifests."""

import hashlib
import json
import logging
import os
import struct
from dataclasses import replace

import numpy as np
import pytest

from nrreg import Shape, TransformStack, load_shape, save_shape
from nrreg.cli import CliError, load_config, load_transforms, main, save_transforms
from nrreg.correspondence import save_correspondences

from conftest import (
    DUPLICATE_SUSPECTS,
    OBJ_FAULTS,
    PLY_FAULTS,
    duplicated_strip,
    two_strips,
)


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

    @pytest.mark.parametrize("body, message", [
        ("1 0 0 0\n0 1 0\n0 0 1 0\n", "data row 2 holds 3"),
        ("1 0 0\n0 1 0\n0 0 1\n", "data row 1 holds 3"),
        ("1 0 0 0\n0 1 0 0\n0 0 1 0 7\n", "data row 3 holds 5"),
    ])
    def test_row_width_names_first_bad_row(self, tmp_path, body, message):
        path = tmp_path / "t.txt"
        path.write_text("nonrigid-transforms v1 N=1\n" + body)
        with pytest.raises(CliError, match=f"t.txt: rows must hold 4 reals; {message}$"):
            load_transforms(path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("nonrigid-transforms v1 N=two\n")
        with pytest.raises(CliError,
                           match="t.txt: malformed header 'nonrigid-transforms v1 N=two'"):
            load_transforms(path)

    def test_non_numeric_value(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("nonrigid-transforms v1 N=1\n1 0 0 0\n0 1 0 y\n0 0 1 0\n")
        with pytest.raises(CliError, match="t.txt: could not convert string to float: 'y'"):
            load_transforms(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_rejected(self, tmp_path, value):
        path = tmp_path / "t.txt"
        path.write_text(f"nonrigid-transforms v1 N=1\n1 0 0 0\n0 1 0 {value}\n0 0 1 0\n")
        with pytest.raises(CliError, match="t.txt: transform values must be finite"):
            load_transforms(path)


def test_invalid_json_config(tmp_path):
    path = tmp_path / "c.json"
    path.write_text('{"alpha": 1.0,}')
    with pytest.raises(CliError, match="c.json: invalid JSON config"):
        load_config(path, {})


def write_identity_transforms(path, n):
    save_transforms(path, TransformStack.identity(n))
    return str(path)


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

    @pytest.mark.parametrize("variant", ["dual_sparse", "l2"])
    def test_iterations_log_records_residuals_once(self, variant, instance,
                                                   tmp_path):
        out = tmp_path / "reg"
        run("register", "--template", str(instance / "template.ply"),
            "--target", str(instance / "target.ply"),
            "--corr", str(instance / "landmarks.txt"), "--variant", variant,
            "--outer-iters", "3", "--out", str(out))
        outer = json.loads((out / "iterations.json").read_text())["outer"]
        assert outer and all("residuals" not in e for e in outer)
        assert [len(e["residual_history"]) for e in outer] == \
            [0 if variant == "l2" else e["inner"] for e in outer]

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

    @pytest.mark.parametrize("command", ["register", "compare"])
    def test_every_setting_is_a_flag(self, command):
        # one flag per SolverConfig field, parsed to the field's type, and
        # None when not given so that a --config value or the default stands
        from dataclasses import fields

        from nrreg.cli import build_parser
        from nrreg.solver import SolverConfig
        given = {"alpha": (["--alpha", "1"], 1.0), "beta": (["--beta", "0"], 0.0),
                 "eps_data": (["--eps-data", "0.5"], 0.5),
                 "eps_smooth": (["--eps-smooth", "2"], 2.0),
                 "outer_iters": (["--outer-iters", "3"], 3),
                 "inner_iters": (["--inner-iters", "7"], 7),
                 "variant": (["--variant", "snr"], "snr"),
                 "reweight": (["--no-reweight"], False),
                 "max_dist_factor": (["--max-dist-factor", "inf"], float("inf")),
                 "knn_k": (["--knn-k", "4"], 4)}
        kinds = {f.name: type(f.default) for f in fields(SolverConfig)}
        assert set(given) == set(kinds)
        argv = [command, "--template", "t", "--target", "g",
                "--ground-truth", "g", "--out", "o"]
        parse = build_parser().parse_args
        assert all(getattr(parse(argv), name) is None for name in kinds)
        args = parse(argv + [a for flag, _ in given.values() for a in flag])
        for name, (_, value) in given.items():
            parsed = getattr(args, name)
            assert parsed == value and type(parsed) is kinds[name], name

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

    @pytest.mark.parametrize("flags, config, field", [
        (["--max-dist-factor", "nan"], {}, "max_dist_factor must not be NaN"),
        (["--beta", "nan"], {}, "beta must not be NaN"),
        (["--alpha", "nan"], {}, "alpha must not be NaN"),
        ([], {"eps_smooth": 0}, "reweighting floors must be positive"),
        ([], {"knn_k": 0}, "knn_k must be >= 1"),
    ])
    def test_bad_solver_setting_exit_one_before_solve(
            self, instance, tmp_path, capsys, monkeypatch, flags, config, field):
        # a NaN or out-of-range setting fails at load time, before any
        # solve, and the message names the field
        import nrreg.cli
        monkeypatch.setattr(nrreg.cli, "register",
                            lambda *args: pytest.fail("registration ran"))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        code = run("register", "--template", str(instance / "template.ply"),
                   "--target", str(instance / "target.ply"),
                   "--config", str(cfg_path), *flags, "--out", str(tmp_path / "o"))
        assert code == 1
        assert f"invalid configuration: {field}" in capsys.readouterr().err

    @pytest.mark.parametrize("config", [
        {"outer_iters": 2.5}, {"inner_iters": 3.0}, {"reweight": "no"},
        {"outer_iters": True}])
    def test_wrong_type_config_exit_one_before_solve(
            self, instance, tmp_path, capsys, monkeypatch, config):
        import nrreg.cli
        monkeypatch.setattr(nrreg.cli, "register",
                            lambda *args: pytest.fail("registration ran"))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        code = run("register", "--template", str(instance / "template.ply"),
                   "--target", str(instance / "target.ply"),
                   "--config", str(cfg_path), "--out", str(tmp_path / "o"))
        assert code == 1
        (field,) = config
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: invalid configuration: {field} must be")

    def test_unknown_config_key_rejected(self, instance, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"alphas": 2.0}))
        code = run("register", "--template", str(instance / "template.ply"),
                   "--target", str(instance / "template.ply"),
                   "--config", str(cfg_path), "--out", str(tmp_path / "o"))
        assert code == 1
        assert "alphas" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["register", "compare"])
    def test_ground_truth_size_checked_before_solve(self, command, instance,
                                                    tmp_path, capsys, monkeypatch):
        # a ground truth of the wrong size fails at load time: no solve and
        # none of the outputs (deformed.ply, transforms.txt, iterations.json,
        # the reports, the manifest)
        import nrreg.cli
        monkeypatch.setattr(nrreg.cli, "register",
                            lambda *args: pytest.fail("registration ran"))
        save_shape(Shape(vertices=np.eye(3)), tmp_path / "small.ply")
        out = tmp_path / "o"
        extra = ["--variants", "l2"] if command == "compare" else []
        code = run(command, "--template", str(instance / "template.ply"),
                   "--target", str(instance / "target.ply"),
                   "--corr", str(instance / "landmarks.txt"),
                   "--ground-truth", str(tmp_path / "small.ply"),
                   *extra, "--out", str(out))
        assert code == 1
        assert "ground truth must be (96, 3), got (3, 3)" in capsys.readouterr().err
        assert list(out.iterdir()) == []


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

    def test_negative_sigma_rejected(self, instance, tmp_path, capsys):
        code = run("perturb", "--input", str(instance / "target.ply"),
                   "--kind", "noise", "--sigma", "-1", "--out", str(tmp_path / "p"))
        assert code == 1
        assert "sigma must be nonnegative" in capsys.readouterr().err

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

    def test_binary_template_with_extra_properties(self, instance, tmp_path):
        # an int16 vertex property and a scalar face property are read and
        # ignored: the report matches the one for the plain template
        shape = load_shape(instance / "template.ply")
        header = ("ply\nformat binary_little_endian 1.0\n"
                  f"element vertex {shape.n_vertices}\nproperty double x\n"
                  "property double y\nproperty double z\nproperty int16 q\n"
                  f"element face {len(shape.faces)}\nproperty uchar flags\n"
                  "property list uchar int vertex_indices\nend_header\n")
        body = b"".join(struct.pack("<3dh", *v, -i) for i, v in enumerate(shape.vertices))
        body += b"".join(struct.pack("<BB3i", 1, 3, *f) for f in shape.faces)
        (tmp_path / "extra.ply").write_bytes(header.encode("ascii") + body)
        reports = []
        for template in (instance / "template.ply", tmp_path / "extra.ply"):
            out = tmp_path / template.stem
            assert run("evaluate", "--template", str(template),
                       "--ground-truth", str(instance / "target.ply"),
                       "--transforms", str(instance / "gt_transforms.txt"),
                       "--out", str(out)) == 0
            reports.append((out / "error_report.json").read_text())
        assert reports[0] == reports[1]


    def test_crlf_template_exit_zero(self, instance, tmp_path):
        # a PLY written with CR-LF line ends evaluates as its LF original
        crlf = tmp_path / "crlf.ply"
        lf = (instance / "template.ply").read_bytes()
        crlf.write_bytes(lf.replace(b"\n", b"\r\n"))
        reports = []
        for template in (instance / "template.ply", crlf):
            out = tmp_path / template.stem
            assert run("evaluate", "--template", str(template),
                       "--ground-truth", str(instance / "target.ply"),
                       "--transforms", str(instance / "gt_transforms.txt"),
                       "--out", str(out)) == 0
            reports.append((out / "error_report.json").read_text())
        assert reports[0] == reports[1]

    def test_short_transform_file_exit_one(self, instance, tmp_path, capsys):
        # one transform is not broadcast over every template vertex
        n = load_shape(instance / "template.ply").n_vertices
        out = tmp_path / "ev"
        code = run("evaluate", "--template", str(instance / "template.ply"),
                   "--ground-truth", str(instance / "target.ply"),
                   "--transforms", write_identity_transforms(tmp_path / "one.txt", 1),
                   "--out", str(out))
        assert code == 1
        assert f"one.txt: 1 transforms for {n} template vertices" in capsys.readouterr().err
        assert not (out / "error_report.json").exists()


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

    def test_short_transform_file_exit_one(self, instance, tmp_path, capsys):
        n = load_shape(instance / "template.ply").n_vertices
        out = tmp_path / "fit"
        code = run("fit-residuals", "--template", str(instance / "template.ply"),
                   "--target", str(instance / "target.ply"),
                   "--corr", str(instance / "landmarks.txt"),
                   "--transforms", write_identity_transforms(tmp_path / "one.txt", 1),
                   "--out", str(out))
        assert code == 1
        assert f"one.txt: 1 transforms for {n} template vertices" in capsys.readouterr().err
        assert not (out / "residual_fit.json").exists()


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

    @pytest.mark.parametrize("flag, values, message", [
        ("--sigmas", "-0.5,nan", "--sigmas values must be finite and nonnegative, "
                                 "got [-0.5, nan]"),
        ("--sigmas", "0.3,inf", "--sigmas values must be finite and nonnegative, "
                                "got [inf]"),
        ("--alphas", "1,nan", "--alphas values must be finite, got [nan]"),
        ("--alphas", "-inf", "--alphas values must be finite, got [-inf]"),
    ])
    def test_non_finite_grid_exit_one_before_solve(
            self, instance, tmp_path, capsys, monkeypatch, flag, values, message):
        import nrreg.cli
        monkeypatch.setattr(nrreg.cli, "register",
                            lambda *args: pytest.fail("registration ran"))
        out = tmp_path / "cmp"
        code = run("compare", "--template", str(instance / "template.ply"),
                   "--target", str(instance / "target.ply"),
                   "--ground-truth", str(instance / "target.ply"),
                   f"{flag}={values}", "--out", str(out))
        assert code == 1
        assert message in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_invalid_grid_point_exit_one(self, instance, tmp_path, capsys):
        code = run("compare", "--template", str(instance / "template.ply"),
                   "--target", str(instance / "target.ply"),
                   "--ground-truth", str(instance / "target.ply"),
                   "--variants", "l2", "--alphas", "1,0",
                   "--out", str(tmp_path / "cmp"))
        assert code == 1
        assert "alpha" in capsys.readouterr().err


SUBCOMMANDS = ["register", "perturb", "evaluate", "fit-residuals", "compare",
               "synth"]


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
    @pytest.mark.parametrize("command", SUBCOMMANDS)
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

    def test_inputs_hashed_before_the_run(self, instance, tmp_path):
        # perturb writes corrupted.ply over an input of that name in --out
        data = (instance / "target.ply").read_bytes()
        src = tmp_path / "corrupted.ply"
        src.write_bytes(data)
        assert run("perturb", "--input", str(src), "--kind", "noise",
                   "--sigma", "0.5", "--out", str(tmp_path)) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert src.read_bytes() != data
        assert manifest["inputs"] == {str(src): hashlib.sha256(data).hexdigest()}


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

    @pytest.mark.parametrize("change", ["overwritten", "deleted"])
    def test_changed_input_refused(self, change, instance, tmp_path, capsys):
        src = tmp_path / "target.ply"
        src.write_bytes((instance / "target.ply").read_bytes())
        out = tmp_path / "p"
        assert run("perturb", "--input", str(src), "--kind", "noise",
                   "--out", str(out)) == 0
        if change == "overwritten":
            src.write_bytes((out / "corrupted.ply").read_bytes())
        else:
            src.unlink()
        capsys.readouterr()
        assert run("replay", "--manifest", str(out / "manifest.json"),
                   "--out", str(tmp_path / "again")) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {src}: ") and len(err.splitlines()) == 1
        assert not (tmp_path / "again").exists()

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_every_subcommand_replays(self, command, instance, tmp_path):
        out = tmp_path / "run"
        code = run(command, *subcommand_argv(command, instance, out))
        listing = sorted(os.listdir(out))
        replayed = tmp_path / "replayed"
        assert run("replay", "--manifest", str(out / "manifest.json"),
                   "--out", str(replayed)) == code
        original = json.loads((out / "manifest.json").read_text())
        again = json.loads((replayed / "manifest.json").read_text())
        for path in original["outputs"]:
            name = os.path.basename(path)
            assert (out / name).read_bytes() == (replayed / name).read_bytes()
        # a recorded config is replayed from a snapshot in the replay's own
        # output directory; every other argument is replayed as recorded
        assert again["args"].pop("out") == str(replayed)
        if original["config"] is not None:
            assert again["args"].pop("config") == \
                str(replayed / "replay_config.json")
            original["args"].pop("config")
        original["args"].pop("out")
        assert again["args"] == original["args"]
        assert again["config"] == original["config"]
        assert sorted(os.listdir(out)) == listing


def error_case_argv(case, inst, tmp):
    """Arguments for one bad-input run on the shared instance, writing any
    malformed input file it needs into ``tmp``."""
    t, g = str(inst / "template.ply"), str(inst / "target.ply")
    gt, out = str(inst / "gt_transforms.txt"), str(tmp / "out")
    if case == "duplicate-corr":
        (tmp / "dup.txt").write_text("0 0\n0 1\n")
        return ["register", "--template", t, "--target", g,
                "--corr", str(tmp / "dup.txt"), "--out", out]
    if case == "nan-sigma":
        return ["perturb", "--input", g, "--kind", "noise", "--sigma", "nan",
                "--out", out]
    if case == "outlier-fraction":
        return ["perturb", "--input", g, "--kind", "outliers",
                "--fraction", "2", "--out", out]
    if case == "zero-band":
        return ["synth", "--nx", "4", "--ny", "3", "--band", "0", "--out", out]
    if case == "non-numeric-sigmas":
        return ["compare", "--template", t, "--target", g, "--ground-truth", g,
                "--sigmas", "abc", "--out", out]
    if case == "ground-truth-size":
        save_shape(Shape(vertices=np.eye(3)), tmp / "small.ply")
        return ["evaluate", "--template", t, "--ground-truth",
                str(tmp / "small.ply"), "--transforms", gt, "--out", out]
    if case == "few-matches":
        (tmp / "two.txt").write_text("0 0\n1 1\n")
        return ["fit-residuals", "--template", t, "--target", g,
                "--corr", str(tmp / "two.txt"), "--transforms", gt, "--out", out]
    if case == "nan-vertex":
        (tmp / "nan.ply").write_text(
            "ply\nformat ascii 1.0\nelement vertex 3\nproperty double x\n"
            "property double y\nproperty double z\nend_header\n"
            "0 0 0\n1 nan 0\n0 1 0\n")
        return ["register", "--template", str(tmp / "nan.ply"), "--target", g,
                "--out", out]
    if case == "one-vertex-strip":
        return ["synth", "--nx", "1", "--ny", "1", "--out", out]
    if case.startswith("synth-"):
        return ["synth", "--nx", "4", "--ny", "3", *SYNTH_FAULTS[case[6:]][0],
                "--out", out]
    if case == "landmark-fraction":
        return ["synth", "--nx", "4", "--ny", "3", "--landmark-fraction", "2",
                "--out", out]
    if case.startswith("ply-"):
        (tmp / "bad.ply").write_bytes(PLY_FAULTS[case[4:]][0])
        return ["evaluate", "--template", str(tmp / "bad.ply"), "--ground-truth",
                g, "--transforms", gt, "--out", out]
    if case.startswith("obj-"):
        (tmp / "bad.obj").write_text(OBJ_FAULTS[case[4:]][0])
        return ["evaluate", "--template", str(tmp / "bad.obj"), "--ground-truth",
                g, "--transforms", gt, "--out", out]
    if case.startswith("transforms-"):
        (tmp / "bad.txt").write_text(TRANSFORM_FAULTS[case[11:]])
        return ["evaluate", "--template", t, "--ground-truth", g,
                "--transforms", str(tmp / "bad.txt"), "--out", out]
    if case.startswith("corr-"):
        (tmp / "bad.txt").write_text(CORR_FAULTS[case[5:]])
        return ["register", "--template", t, "--target", g,
                "--corr", str(tmp / "bad.txt"), "--out", out]
    if case == "config-invalid-json":
        (tmp / "bad.json").write_text('{"alpha": 1.0,}')
        return ["register", "--template", t, "--target", g,
                "--config", str(tmp / "bad.json"), "--out", out]
    if case == "replay-removed-key":
        # a manifest whose config snapshot names a setting that is now a
        # solver constant
        (tmp / "manifest.json").write_text(json.dumps({
            "command": "register", "inputs": {}, "config": {"outer_tol": 1e-7},
            "args": {"template": t, "target": g, "out": out}}))
        return ["replay", "--manifest", str(tmp / "manifest.json")]
    if case == "replay-no-args":
        (tmp / "manifest.json").write_text(json.dumps({"command": "register"}))
        return ["replay", "--manifest", str(tmp / "manifest.json")]
    raise AssertionError(case)


# bad transform and correspondence files of the error cases, on the
# instance's 96 template vertices
TRANSFORM_FAULTS = {
    "header": "nonrigid-transforms v1 N=\n",
    "ragged": "nonrigid-transforms v1 N=96\n" + "1 0 0 0\n0 1 0\n0 0 1 0\n" * 96,
    "width": "nonrigid-transforms v1 N=96\n" + "1 0 0\n" * 288,
    "word": "nonrigid-transforms v1 N=96\n" + "1 0 0 zero\n" * 288,
}
CORR_FAULTS = {"triple": "0 0\n1 1 1\n", "word": "0 first\n", "range": "96 0\n"}
# strip geometry flags of synth, each with the cause its error line names
SYNTH_FAULTS = {
    "zero-spacing": (["--spacing", "0"], "spacing must be finite and positive, got 0.0"),
    "negative-spacing": (["--spacing", "-0.1"],
                         "spacing must be finite and positive, got -0.1"),
    "nan-spacing": (["--spacing", "nan"], "spacing must be finite and positive, got nan"),
    "nan-relief": (["--relief", "nan"], "relief must be finite, got nan"),
}


# the cause each bad-input case must name on its error line
ERROR_CAUSES = {
    "duplicate-corr": "duplicate template index 0",
    "nan-sigma": "sigma must be nonnegative",
    "outlier-fraction": "outlier_fraction must be in [0, 1]",
    "zero-band": "band_end must exceed band_start",
    "non-numeric-sigmas": "'abc'",
    "ground-truth-size": "ground truth must be (96, 3)",
    "few-matches": "need at least 10 samples",
    "nan-vertex": "non-finite coordinates in 1 of 3 vertices (indices 1)",
    "one-vertex-strip": "a strip needs nx >= 2 and ny >= 2",
    **{f"synth-{k}": v[1] for k, v in SYNTH_FAULTS.items()},
    "landmark-fraction": "landmark fraction must be in (0, 1]",
    "replay-no-args": "not a run manifest",
    "replay-removed-key": "replay_config.json: unknown config keys ['outer_tol']",
    "ply-unknown-type": "bad.ply:" + PLY_FAULTS["unknown-type"][1],
    "ply-element-count-word": "bad.ply:" + PLY_FAULTS["element-count-word"][1],
    "ply-polyline-list": "bad.ply:" + PLY_FAULTS["polyline-list"][1],
    "ply-binary-color-out-of-range":
        "bad.ply:" + PLY_FAULTS["binary-color-out-of-range"][1],
    **{f"obj-{k}": "bad.obj:" + v[1] for k, v in OBJ_FAULTS.items()},
    "transforms-header": "bad.txt: malformed header 'nonrigid-transforms v1 N='",
    "transforms-ragged": "bad.txt: rows must hold 4 reals; data row 2 holds 3",
    "transforms-width": "bad.txt: rows must hold 4 reals; data row 1 holds 3",
    "transforms-word": "bad.txt: could not convert string to float: 'zero'",
    "corr-triple": "bad.txt:2: expected 'i j' pair",
    "corr-word": "bad.txt:1: non-integer index",
    "corr-range": "bad.txt:1: template index 96 out of range [0, 96)",
    "config-invalid-json": "bad.json: invalid JSON config",
}


class TestErrorBoundary:
    @pytest.mark.parametrize("case", ERROR_CAUSES)
    def test_bad_input_one_error_line(self, case, instance, tmp_path, capsys):
        assert run(*error_case_argv(case, instance, tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and ERROR_CAUSES[case] in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    def test_traceback_logged_at_debug(self, instance, tmp_path, caplog):
        caplog.set_level(logging.DEBUG, logger="nrreg")
        assert run(*error_case_argv("zero-band", instance, tmp_path)) == 1
        logged = [r for r in caplog.records if r.exc_info]
        assert len(logged) == 1 and logged[0].levelno == logging.DEBUG
        assert "band_end" in str(logged[0].exc_info[1])


class TestSolverFaults:
    @pytest.mark.parametrize("variant", ["dual_sparse", "l2"])
    def test_unanchored_component_exit_one(self, variant, tmp_path, capsys):
        template, target, landmarks = two_strips()
        save_shape(template, tmp_path / "template.ply")
        save_shape(target, tmp_path / "target.ply")
        save_correspondences(landmarks, tmp_path / "landmarks.txt")
        assert run("register", "--template", str(tmp_path / "template.ply"),
                   "--target", str(tmp_path / "target.ply"),
                   "--corr", str(tmp_path / "landmarks.txt"),
                   "--variant", variant, "--out", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: solver failure: singular system: ")
        assert f"suspect vertex blocks {list(range(24, 48))}" in err

    @pytest.mark.parametrize("variant, reason", [
        ("dual_sparse", "zero pivot"), ("l2", "Factor is exactly singular")])
    def test_singular_reason_text(self, variant, reason, tmp_path, capsys):
        # the reason reads as the full 4N x 4N factorization gave it: under
        # l2 the flat second strip's linear parts have an exactly zero
        # direction, which an LU factorization reports as an exactly singular
        # factor
        template, target, landmarks = two_strips()
        save_shape(template, tmp_path / "template.ply")
        save_shape(target, tmp_path / "target.ply")
        save_correspondences(landmarks, tmp_path / "landmarks.txt")
        run("register", "--template", str(tmp_path / "template.ply"),
            "--target", str(tmp_path / "target.ply"),
            "--corr", str(tmp_path / "landmarks.txt"),
            "--variant", variant, "--out", str(tmp_path / "out"))
        assert capsys.readouterr().err == (
            f"error: solver failure: singular system: {reason}; "
            f"suspect vertex blocks {list(range(24, 48))}\n")

    def test_duplicate_template_vertices(self, tmp_path, capsys):
        # dual_sparse registers; l2 fails on one error line
        template, target = duplicated_strip()
        save_shape(template, tmp_path / "template.ply")
        save_shape(target, tmp_path / "target.ply")
        argv = ("register", "--template", str(tmp_path / "template.ply"),
                "--target", str(tmp_path / "target.ply"))
        assert run(*argv, "--out", str(tmp_path / "dual")) == 0
        capsys.readouterr()
        assert run(*argv, "--variant", "l2", "--out", str(tmp_path / "l2")) == 1
        assert capsys.readouterr().err == (
            "error: solver failure: singular system: zero pivot; "
            f"suspect vertex blocks {DUPLICATE_SUSPECTS}\n")

    def test_far_target_exit_one(self, instance, tmp_path, capsys):
        target = load_shape(instance / "target.ply")
        far = replace(target, vertices=target.vertices + [100.0, 0.0, 0.0])
        save_shape(far, tmp_path / "far.ply")
        assert run("register", "--template", str(instance / "template.ply"),
                   "--target", str(tmp_path / "far.ply"),
                   "--out", str(tmp_path / "out")) == 1
        assert capsys.readouterr().err == \
            "error: solver failure: no correspondences at outer iteration 1\n"


class TestUsageErrors:
    def test_unknown_subcommand_exit_one(self, capsys):
        assert run("frobnicate") == 1

    def test_missing_required_flag_exit_one(self, capsys):
        assert run("register", "--template", "x.ply") == 1
