"""Command-line surface: registration runs, corruption protocols, error
reports, residual analysis, variant comparisons and synthetic instance
generation, each emitting a replayable run manifest."""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, fields, replace

import numpy as np

from .correspondence import CorrespondenceMap, load_correspondences, save_correspondences
from .geometry import MeshParseError, Shape, load_shape, save_shape
from .metrics import fit_residual_distributions, fitting_error, residuals_for_analysis
from .operators import SingularSystemError, TransformStack, assemble_system
from .solver import VARIANTS, SolverConfig, register
from .synthesis import (
    DeformationSpec,
    landmark_subset,
    make_strip,
    perturb_noise,
    perturb_outliers,
    synth_deformation,
)

log = logging.getLogger("nrreg")

TRANSFORM_HEADER = "nonrigid-transforms v1"


class CliError(Exception):
    """User-facing failure; message printed to stderr, exit code 1."""


@contextmanager
def _timed(timings, phase):
    """Record the wall seconds of the block as ``timings[phase]``."""
    t0 = time.perf_counter()
    yield
    timings[phase] = time.perf_counter() - t0


def save_transforms(path, stack):
    """Text format: header line, then per vertex 3 lines of 4 reals
    (row-major 3x4 block). Reals use shortest round-trip repr."""
    lines = [f"{TRANSFORM_HEADER} N={stack.n}"]
    for block in stack.blocks:
        for row in block:
            lines.append(" ".join(repr(float(v)) for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_transforms(path):
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or not lines[0].startswith(TRANSFORM_HEADER):
        raise CliError(f"{path}: not a transform file (bad header)")
    try:
        n = int(lines[0].split("N=")[1])
    except (IndexError, ValueError):
        raise CliError(f"{path}: malformed header {lines[0]!r}")
    if len(lines) != 1 + 3 * n:
        raise CliError(f"{path}: expected {3 * n} data lines, got {len(lines) - 1}")
    try:
        vals = np.array([[float(v) for v in ln.split()] for ln in lines[1:]])
    except ValueError as exc:
        raise CliError(f"{path}: {exc}")
    if vals.shape != (3 * n, 4):
        raise CliError(f"{path}: rows must hold 4 reals")
    return TransformStack(vals.reshape(n, 3, 4))


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not serializable: {type(obj)}")


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def write_manifest(out_dir, command, args_dict, config, input_paths, seed,
                   outputs, timings):
    """One manifest per run; self-contained for replay (records the resolved
    argument values, not the raw argv)."""
    manifest = {
        "command": command,
        "args": args_dict,
        "config": asdict(config) if config is not None else None,
        "inputs": {p: _sha256(p) for p in input_paths},
        "seed": seed,
        "outputs": sorted(outputs),
        "timings": timings,
    }
    path = os.path.join(out_dir, "manifest.json")
    _write_json(path, manifest)
    return path


def load_config(path, overrides):
    """Flat JSON mirroring SolverConfig fields; explicit CLI flags win."""
    values = {}
    if path is not None:
        with open(path) as fh:
            try:
                values = json.load(fh)
            except json.JSONDecodeError as exc:
                raise CliError(f"{path}: invalid JSON config ({exc})")
        known = {f.name for f in fields(SolverConfig)}
        unknown = set(values) - known
        if unknown:
            raise CliError(f"{path}: unknown config keys {sorted(unknown)}")
    values.update({k: v for k, v in overrides.items() if v is not None})
    try:
        return SolverConfig(**values).validate()
    except (TypeError, ValueError) as exc:
        raise CliError(f"invalid configuration: {exc}")


def _load_shape_checked(path):
    if not os.path.exists(path):
        raise CliError(f"no such file: {path}")
    try:
        return load_shape(path)
    except MeshParseError as exc:
        raise CliError(str(exc))


def _config_overrides(args):
    names = [f.name for f in fields(SolverConfig)]
    return {n: getattr(args, n) for n in names if hasattr(args, n)}


def _add_config_flags(parser):
    parser.add_argument("--config", help="flat JSON config file")
    parser.add_argument("--variant", choices=VARIANTS)
    parser.add_argument("--alpha", type=float)
    parser.add_argument("--beta", type=float)
    parser.add_argument("--eps-data", dest="eps_data", type=float)
    parser.add_argument("--eps-smooth", dest="eps_smooth", type=float)
    parser.add_argument("--outer-iters", dest="outer_iters", type=int)
    parser.add_argument("--inner-iters", dest="inner_iters", type=int)
    parser.add_argument("--max-dist-factor", dest="max_dist_factor", type=float)
    parser.add_argument("--knn-k", dest="knn_k", type=int)
    parser.add_argument("--no-reweight", dest="reweight", action="store_false",
                        default=None)


def _ext_of(path):
    ext = os.path.splitext(path)[1].lower()
    return ext if ext in (".obj", ".ply") else ".ply"


def _error_report_payload(report):
    edges, counts = report.histogram
    return {
        "mean": report.mean,
        "median": report.median,
        "max": report.max,
        "mean_distance": report.summary()["mean_distance"],
        "histogram": {"bin_edges": edges.tolist(), "counts": counts.tolist()},
    }


def cmd_register(args):
    os.makedirs(args.out, exist_ok=True)
    timings = {"load": 0.0, "solve": 0.0, "write": 0.0}
    with _timed(timings, "load"):
        template = _load_shape_checked(args.template)
        target = _load_shape_checked(args.target)
        corr = None
        inputs = [args.template, args.target]
        if args.corr:
            corr = load_correspondences(args.corr, template.n_vertices,
                                        target.n_vertices)
            inputs.append(args.corr)
        if args.config:
            inputs.append(args.config)
        cfg = load_config(args.config, _config_overrides(args))

    with _timed(timings, "solve"):
        try:
            result = register(template, target, corr, cfg)
        except (SingularSystemError, RuntimeError) as exc:
            raise CliError(f"solver failure: {exc}")

    with _timed(timings, "write"):
        ext = _ext_of(args.template)
        deformed_path = os.path.join(args.out, "deformed" + ext)
        save_shape(result.deformed, deformed_path)
        transforms_path = os.path.join(args.out, "transforms.txt")
        save_transforms(transforms_path, result.transforms)
        log_path = os.path.join(args.out, "iterations.json")
        _write_json(log_path, {"converged": result.converged, "outer": result.log})
        outputs = [deformed_path, transforms_path, log_path]
        if args.ground_truth:
            gt = _load_shape_checked(args.ground_truth)
            inputs.append(args.ground_truth)
            report = fitting_error(result.transforms, template, gt.vertices)
            report_path = os.path.join(args.out, "error_report.json")
            _write_json(report_path, _error_report_payload(report))
            colored_path = os.path.join(args.out, "error_colored.ply")
            save_shape(report.colored_mesh, colored_path)
            outputs += [report_path, colored_path]

    write_manifest(args.out, "register",
                   {"template": args.template, "target": args.target,
                    "corr": args.corr, "ground_truth": args.ground_truth,
                    "config": args.config, "out": args.out},
                   cfg, inputs, None, outputs, timings)
    log.info("register: converged=%s after %d outer iterations",
             result.converged, len(result.log))
    return 0 if result.converged else 2


def cmd_perturb(args):
    os.makedirs(args.out, exist_ok=True)
    timings = {"load": 0.0, "solve": 0.0, "write": 0.0}
    with _timed(timings, "load"):
        shape = _load_shape_checked(args.input)
    with _timed(timings, "solve"):
        if args.kind == "noise":
            out_shape = perturb_noise(shape, args.sigma, args.seed)
            idx = np.array([], dtype=np.int64)
        else:
            out_shape, idx = perturb_outliers(shape, args.fraction, args.sigma,
                                              args.seed)
    with _timed(timings, "write"):
        out_path = os.path.join(args.out, "corrupted" + _ext_of(args.input))
        save_shape(out_shape, out_path)
        idx_path = os.path.join(args.out, "outliers.txt")
        with open(idx_path, "w") as fh:
            fh.write("\n".join(str(i) for i in idx) + ("\n" if len(idx) else ""))
    write_manifest(args.out, "perturb",
                   {"input": args.input, "kind": args.kind, "sigma": args.sigma,
                    "fraction": args.fraction, "seed": args.seed,
                    "out": args.out},
                   None, [args.input], args.seed, [out_path, idx_path], timings)
    return 0


def cmd_evaluate(args):
    os.makedirs(args.out, exist_ok=True)
    timings = {"load": 0.0, "solve": 0.0, "write": 0.0}
    with _timed(timings, "load"):
        template = _load_shape_checked(args.template)
        gt = _load_shape_checked(args.ground_truth)
        stack = load_transforms(args.transforms)
    with _timed(timings, "solve"):
        report = fitting_error(stack, template, gt.vertices)
    with _timed(timings, "write"):
        report_path = os.path.join(args.out, "error_report.json")
        _write_json(report_path, _error_report_payload(report))
        colored_path = os.path.join(args.out, "error_colored.ply")
        save_shape(report.colored_mesh, colored_path)
    write_manifest(args.out, "evaluate",
                   {"template": args.template, "ground_truth": args.ground_truth,
                    "transforms": args.transforms, "out": args.out},
                   None, [args.template, args.ground_truth, args.transforms],
                   None, [report_path, colored_path], timings)
    return 0


def cmd_fit_residuals(args):
    os.makedirs(args.out, exist_ok=True)
    timings = {"load": 0.0, "solve": 0.0, "write": 0.0}
    with _timed(timings, "load"):
        template = _load_shape_checked(args.template)
        target = _load_shape_checked(args.target)
        corr = load_correspondences(args.corr, template.n_vertices,
                                    target.n_vertices)
        stack = load_transforms(args.transforms)
    with _timed(timings, "solve"):
        edges = np.empty((0, 2), dtype=np.int64)
        sys_ = assemble_system(template, edges, corr, target.vertices)
        payload = {}
        for mode in ("per_axis_l1", "euclidean"):
            fit = fit_residual_distributions(
                residuals_for_analysis(stack, sys_, mode))
            payload[mode] = {
                "laplace": {"location": fit.laplace[0], "scale": fit.laplace[1],
                            "loglik": fit.loglik_laplace},
                "gauss": {"mean": fit.gauss[0], "std": fit.gauss[1],
                          "loglik": fit.loglik_gauss},
            }
    with _timed(timings, "write"):
        fit_path = os.path.join(args.out, "residual_fit.json")
        _write_json(fit_path, payload)
    write_manifest(args.out, "fit-residuals",
                   {"template": args.template, "target": args.target,
                    "corr": args.corr, "transforms": args.transforms,
                    "out": args.out},
                   None, [args.template, args.target, args.corr,
                          args.transforms],
                   None, [fit_path], timings)
    return 0


def cmd_compare(args):
    os.makedirs(args.out, exist_ok=True)
    timings = {"load": 0.0, "solve": 0.0, "write": 0.0}
    with _timed(timings, "load"):
        template = _load_shape_checked(args.template)
        target = _load_shape_checked(args.target)
        gt = _load_shape_checked(args.ground_truth)
        corr = None
        inputs = [args.template, args.target, args.ground_truth]
        if args.corr:
            corr = load_correspondences(args.corr, template.n_vertices,
                                        target.n_vertices)
            inputs.append(args.corr)
        if args.config:
            inputs.append(args.config)
        base_cfg = load_config(args.config, _config_overrides(args))
        variants = args.variants.split(",")
        sigmas = ([float(s) for s in args.sigmas.split(",")] if args.sigmas
                  else [0.0])
        alphas = ([float(a) for a in args.alphas.split(",")] if args.alphas
                  else [base_cfg.alpha])

    with _timed(timings, "solve"):
        rows = []
        for variant in variants:
            for sigma in sigmas:
                corrupted = (perturb_noise(target, sigma, args.seed)
                             if sigma > 0 else target)
                best = None
                for alpha in alphas:
                    cfg = replace(base_cfg, variant=variant, alpha=alpha)
                    try:
                        result = register(template, corrupted, corr, cfg)
                    except (SingularSystemError, RuntimeError, ValueError) as exc:
                        raise CliError(f"{variant}, alpha={alpha}: {exc}")
                    err = fitting_error(result.transforms, template, gt.vertices)
                    entry = (err.summary()["mean_distance"], alpha)
                    if best is None or entry < best:
                        best = entry
                rows.append({"variant": variant, "sigma": sigma,
                             "alpha": best[1], "mean_error": best[0]})

    with _timed(timings, "write"):
        csv_path = os.path.join(args.out, "comparison.csv")
        with open(csv_path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=["variant", "sigma", "alpha",
                                                    "mean_error"])
            writer.writeheader()
            for row in rows:
                writer.writerow({k: repr(v) if isinstance(v, float) else v
                                 for k, v in row.items()})
    write_manifest(args.out, "compare",
                   {"template": args.template, "target": args.target,
                    "ground_truth": args.ground_truth, "corr": args.corr,
                    "config": args.config, "variants": args.variants,
                    "sigmas": args.sigmas, "alphas": args.alphas,
                    "seed": args.seed, "out": args.out},
                   base_cfg, inputs, args.seed, [csv_path], timings)
    return 0


def cmd_synth(args):
    os.makedirs(args.out, exist_ok=True)
    timings = {"load": 0.0, "solve": 0.0, "write": 0.0}
    with _timed(timings, "solve"):
        strip = make_strip(args.nx, args.ny, args.spacing, args.relief)
        pivot = (args.nx - 1) * args.spacing / 2.0
        spec = DeformationSpec(kind=args.deform, angle_deg=args.angle,
                               axis=(0.0, 1.0, 0.0), axis_point=(pivot, 0.0, 0.0),
                               blend_direction=(1.0, 0.0, 0.0),
                               band_start=pivot - args.band / 2.0,
                               band_end=pivot + args.band / 2.0)
        target, _, gt_stack = synth_deformation(strip, spec)
        landmarks = landmark_subset(strip.n_vertices, args.landmark_fraction,
                                    args.seed)
    with _timed(timings, "write"):
        paths = {
            "template": os.path.join(args.out, "template.ply"),
            "target": os.path.join(args.out, "target.ply"),
            "landmarks": os.path.join(args.out, "landmarks.txt"),
            "gt_transforms": os.path.join(args.out, "gt_transforms.txt"),
        }
        save_shape(strip, paths["template"])
        save_shape(target, paths["target"])
        save_correspondences(landmarks, paths["landmarks"])
        save_transforms(paths["gt_transforms"], gt_stack)
    write_manifest(args.out, "synth",
                   {"nx": args.nx, "ny": args.ny, "spacing": args.spacing,
                    "relief": args.relief, "deform": args.deform,
                    "angle": args.angle, "band": args.band,
                    "landmark_fraction": args.landmark_fraction,
                    "seed": args.seed, "out": args.out},
                   None, [], args.seed, sorted(paths.values()), timings)
    return 0


def cmd_replay(args):
    """Re-run the command recorded in a manifest, optionally into a fresh
    output directory; numeric outputs are byte-identical to the original."""
    with open(args.manifest) as fh:
        manifest = json.load(fh)
    recorded = dict(manifest["args"])
    if args.out:
        recorded["out"] = args.out
    argv = [manifest["command"]]
    for key, value in recorded.items():
        if value is None:
            continue
        flag = "--" + key.replace("_", "-")
        if key == "reweight":
            if value is False:
                argv.append("--no-reweight")
            continue
        argv += [flag, str(value)]
    # register/compare runs carry their full config; replay it exactly
    if manifest.get("config"):
        cfg_path = os.path.join(os.path.dirname(args.manifest) or ".",
                                "replay_config.json")
        _write_json(cfg_path, manifest["config"])
        idx = argv.index("--config") if "--config" in argv else None
        if idx is not None:
            argv[idx + 1] = cfg_path
        else:
            argv += ["--config", cfg_path]
    return main(argv)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse exits 2 by default; 2 is reserved for non-convergence
        self.print_usage(sys.stderr)
        raise CliError(message)


def build_parser():
    parser = _Parser(prog="nrreg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("register", help="fit per-vertex affine transforms")
    p.add_argument("--template", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--corr", help="fixed correspondence file")
    p.add_argument("--ground-truth", dest="ground_truth")
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_register)

    p = sub.add_parser("perturb", help="corrupt a shape with noise or outliers")
    p.add_argument("--input", required=True)
    p.add_argument("--kind", choices=("noise", "outliers"), required=True)
    p.add_argument("--sigma", type=float, default=0.3,
                   help="noise std or outlier magnitude, in mean edge lengths")
    p.add_argument("--fraction", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_perturb)

    p = sub.add_parser("evaluate", help="error report against ground truth")
    p.add_argument("--template", required=True)
    p.add_argument("--ground-truth", dest="ground_truth", required=True)
    p.add_argument("--transforms", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("fit-residuals",
                       help="Laplace vs Gauss fit of positional residuals")
    p.add_argument("--template", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--corr", required=True)
    p.add_argument("--transforms", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit_residuals)

    p = sub.add_parser("compare", help="variant sweep summary table")
    p.add_argument("--template", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--ground-truth", dest="ground_truth", required=True)
    p.add_argument("--corr")
    p.add_argument("--variants", default="dual_sparse,l2")
    p.add_argument("--sigmas", help="comma list of noise levels")
    p.add_argument("--alphas", help="comma list for the alpha grid")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("synth", help="generate a synthetic bend instance")
    p.add_argument("--nx", type=int, default=25)
    p.add_argument("--ny", type=int, default=8)
    p.add_argument("--spacing", type=float, default=0.1)
    p.add_argument("--relief", type=float, default=0.5)
    p.add_argument("--deform", choices=("bend", "rigid"), default="bend")
    p.add_argument("--angle", type=float, default=45.0)
    p.add_argument("--band", type=float, default=0.1)
    p.add_argument("--landmark-fraction", dest="landmark_fraction",
                   type=float, default=0.2)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("replay", help="re-run a recorded manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", help="override the recorded output directory")
    p.set_defaults(func=cmd_replay)
    return parser


def main(argv=None):
    logging.basicConfig(
        level=os.environ.get("NRREG_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
