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

from .correspondence import load_correspondences, save_correspondences
from .geometry import load_shape, save_shape
from .metrics import (
    check_ground_truth,
    fit_residual_distributions,
    fitting_error,
    mean_distance_error,
    residuals_for_analysis,
)
from .operators import TransformStack
from .solver import VARIANTS, SolverConfig, register
from .synthesis import (
    CorruptionSpec,
    DeformationSpec,
    apply_corruption,
    landmark_subset,
    make_strip,
    perturb_noise,
    synth_deformation,
)

log = logging.getLogger("nrreg")

TRANSFORM_HEADER = "nonrigid-transforms v1"

# arguments whose values are input files; the manifest records their hashes
INPUT_ARGS = ("template", "target", "corr", "ground_truth", "config", "input",
              "transforms")
# parsed attributes the manifest leaves out of its args: the dispatch fields,
# and the solver flags, which its config snapshot already holds
UNRECORDED_ARGS = frozenset({"command", "func",
                             *(f.name for f in fields(SolverConfig))})


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
    lines += (" ".join(map(repr, row)) for row in stack.blocks.reshape(-1, 4).tolist())
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_transforms(path, n_vertices=None):
    """The transform file at ``path``; with ``n_vertices``, one per vertex."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or not lines[0].startswith(TRANSFORM_HEADER):
        raise CliError(f"{path}: not a transform file (bad header)")
    try:
        n = int(lines[0].split("N=")[1])
    except (IndexError, ValueError):
        raise CliError(f"{path}: malformed header {lines[0]!r}")
    if n_vertices is not None and n != n_vertices:
        raise CliError(f"{path}: {n} transforms for {n_vertices} template vertices")
    if len(lines) != 1 + 3 * n:
        raise CliError(f"{path}: expected {3 * n} data lines, got {len(lines) - 1}")
    rows = [ln.split() for ln in lines[1:]]
    for k, row in enumerate(rows, 1):
        if len(row) != 4:
            raise CliError(f"{path}: rows must hold 4 reals; "
                           f"data row {k} holds {len(row)}")
    try:
        vals = np.array([[float(v) for v in row] for row in rows])
    except ValueError as exc:
        raise CliError(f"{path}: {exc}")
    if not np.all(np.isfinite(vals)):
        raise CliError(f"{path}: transform values must be finite")
    return TransformStack(vals.reshape(n, 3, 4))


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_manifest(out_dir, command, args_dict, config, inputs, seed,
                   outputs, timings):
    """One manifest per run; self-contained for replay (records the resolved
    argument values, not the raw argv, and ``inputs``, the sha256 of each
    input file by path)."""
    manifest = {
        "command": command,
        "args": args_dict,
        "config": asdict(config) if config is not None else None,
        "inputs": inputs,
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


def _config_overrides(args):
    return {f.name: getattr(args, f.name) for f in fields(SolverConfig)}


def _add_config_flags(parser):
    """One flag per SolverConfig field, of the field's type; None when not
    given, so that a ``--config`` value or the default stands."""
    parser.add_argument("--config", help="flat JSON config file")
    for f in fields(SolverConfig):
        flag = f.name.replace("_", "-")
        if isinstance(f.default, bool):
            # a setting that is on by default: the flag turns it off
            parser.add_argument("--no-" + flag, dest=f.name,
                                action="store_false", default=None)
        else:
            parser.add_argument("--" + flag, type=type(f.default),
                                choices=VARIANTS if f.name == "variant" else None)


def _ext_of(path):
    ext = os.path.splitext(path)[1].lower()
    return ext if ext in (".obj", ".ply") else ".ply"


def _write_error_report(out_dir, report):
    """Write the error summary and the error-colored mesh; returns both paths."""
    edges, counts = report.histogram
    report_path = os.path.join(out_dir, "error_report.json")
    _write_json(report_path, {
        "mean": report.mean,
        "median": report.median,
        "max": report.max,
        "mean_distance": float(np.mean(np.sqrt(report.per_vertex))),
        "histogram": {"bin_edges": edges.tolist(), "counts": counts.tolist()},
    })
    colored_path = os.path.join(out_dir, "error_colored.ply")
    save_shape(report.colored_mesh, colored_path)
    return [report_path, colored_path]


# Each cmd_* runs the load/solve/write phases of one subcommand, timing them
# into ``timings``, and returns (exit code, SolverConfig or None, output
# paths); run_command does the rest.

def cmd_register(args, timings):
    with _timed(timings, "load"):
        template = load_shape(args.template)
        target = load_shape(args.target)
        corr = (load_correspondences(args.corr, template.n_vertices,
                                     target.n_vertices) if args.corr else None)
        cfg = load_config(args.config, _config_overrides(args))
        gt = (check_ground_truth(template, load_shape(args.ground_truth).vertices)
              if args.ground_truth else None)

    with _timed(timings, "solve"):
        try:
            result = register(template, target, corr, cfg)
        except RuntimeError as exc:
            raise CliError(f"solver failure: {exc}")

    with _timed(timings, "write"):
        deformed_path = os.path.join(args.out, "deformed" + _ext_of(args.template))
        save_shape(result.deformed, deformed_path)
        transforms_path = os.path.join(args.out, "transforms.txt")
        save_transforms(transforms_path, result.transforms)
        log_path = os.path.join(args.out, "iterations.json")
        _write_json(log_path, {"converged": result.converged, "outer": result.log})
        outputs = [deformed_path, transforms_path, log_path]
        if gt is not None:
            outputs += _write_error_report(
                args.out, fitting_error(result.transforms, template, gt))
    log.info("register: converged=%s after %d outer iterations",
             result.converged, len(result.log))
    return (0 if result.converged else 2), cfg, outputs


def cmd_perturb(args, timings):
    with _timed(timings, "load"):
        shape = load_shape(args.input)
    with _timed(timings, "solve"):
        spec = CorruptionSpec(args.kind, args.sigma, args.fraction, args.seed)
        out_shape, idx = apply_corruption(shape, spec)
    with _timed(timings, "write"):
        out_path = os.path.join(args.out, "corrupted" + _ext_of(args.input))
        save_shape(out_shape, out_path)
        idx_path = os.path.join(args.out, "outliers.txt")
        with open(idx_path, "w") as fh:
            fh.write("\n".join(str(i) for i in idx) + ("\n" if len(idx) else ""))
    return 0, None, [out_path, idx_path]


def cmd_evaluate(args, timings):
    with _timed(timings, "load"):
        template = load_shape(args.template)
        gt = check_ground_truth(template, load_shape(args.ground_truth).vertices)
        stack = load_transforms(args.transforms, template.n_vertices)
    with _timed(timings, "solve"):
        report = fitting_error(stack, template, gt)
    with _timed(timings, "write"):
        outputs = _write_error_report(args.out, report)
    return 0, None, outputs


def cmd_fit_residuals(args, timings):
    with _timed(timings, "load"):
        template = load_shape(args.template)
        target = load_shape(args.target)
        corr = load_correspondences(args.corr, template.n_vertices,
                                    target.n_vertices)
        stack = load_transforms(args.transforms, template.n_vertices)
    with _timed(timings, "solve"):
        m = corr.matched
        offsets = (stack.apply(template.vertices)[m]
                   - target.vertices[corr.target_indices[m]])
        payload = {}
        for mode in ("per_axis_l1", "euclidean"):
            fit = fit_residual_distributions(residuals_for_analysis(offsets, mode))
            payload[mode] = {
                "laplace": {"location": fit.laplace[0], "scale": fit.laplace[1],
                            "loglik": fit.loglik_laplace},
                "gauss": {"mean": fit.gauss[0], "std": fit.gauss[1],
                          "loglik": fit.loglik_gauss},
            }
    with _timed(timings, "write"):
        fit_path = os.path.join(args.out, "residual_fit.json")
        _write_json(fit_path, payload)
    return 0, None, [fit_path]


def _float_list(text, flag, nonnegative=False):
    """The comma-separated reals of ``flag``; CliError unless each is finite
    (and, with ``nonnegative``, at least 0)."""
    values = [float(v) for v in text.split(",")]
    bad = [v for v in values if not np.isfinite(v) or (nonnegative and v < 0)]
    if bad:
        kind = "finite and nonnegative" if nonnegative else "finite"
        raise CliError(f"{flag} values must be {kind}, got {bad}")
    return values


def cmd_compare(args, timings):
    with _timed(timings, "load"):
        template = load_shape(args.template)
        target = load_shape(args.target)
        gt = check_ground_truth(template, load_shape(args.ground_truth).vertices)
        corr = (load_correspondences(args.corr, template.n_vertices,
                                     target.n_vertices) if args.corr else None)
        base_cfg = load_config(args.config, _config_overrides(args))
        variants = args.variants.split(",")
        sigmas = (_float_list(args.sigmas, "--sigmas", nonnegative=True)
                  if args.sigmas else [0.0])
        alphas = (_float_list(args.alphas, "--alphas") if args.alphas
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
                    except (RuntimeError, ValueError) as exc:
                        raise CliError(f"{variant}, alpha={alpha}: {exc}")
                    entry = (mean_distance_error(result.transforms, template, gt),
                             alpha)
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
    return 0, base_cfg, [csv_path]


def cmd_synth(args, timings):
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
    return 0, None, list(paths.values())


def run_command(args, config_snapshot=None):
    """Run one parsed subcommand in its output directory and write its
    manifest: the parsed non-config flags as ``args``, the hashes of the
    given input files as they were before the run (a subcommand may
    overwrite its own input), the subcommand's seed (if it has one) and the
    phase timings. A replayed run passes the recorded ``config_snapshot``,
    which is written to ``args.config`` before the subcommand loads it."""
    os.makedirs(args.out, exist_ok=True)
    if config_snapshot:
        _write_json(args.config, config_snapshot)
    inputs = {path: _sha256(path) for path in
              (getattr(args, name, None) for name in INPUT_ARGS) if path}
    timings = {"load": 0.0, "solve": 0.0, "write": 0.0}
    code, config, outputs = args.func(args, timings)
    recorded = {k: v for k, v in vars(args).items() if k not in UNRECORDED_ARGS}
    write_manifest(args.out, args.command, recorded, config, inputs,
                   getattr(args, "seed", None), outputs, timings)
    return code


def cmd_replay(args):
    """Re-run the command recorded in a manifest, optionally into a fresh
    output directory; numeric outputs are byte-identical to the original.
    An input file that is missing or whose hash differs from the recorded
    one is an error. A recorded config snapshot is replayed from
    ``replay_config.json`` in the replay's own output directory."""
    with open(args.manifest) as fh:
        manifest = json.load(fh)
    if not (isinstance(manifest, dict) and isinstance(manifest.get("command"), str)
            and isinstance(manifest.get("args"), dict)
            and isinstance(manifest.get("inputs"), dict)):
        raise CliError(f"{args.manifest}: not a run manifest (needs a "
                       "'command' string and 'args' and 'inputs' objects)")
    recorded = dict(manifest["args"])
    for path, digest in manifest["inputs"].items():
        # the recorded config is not read: the snapshot replaces it
        if path != recorded.get("config") and \
                not (os.path.isfile(path) and _sha256(path) == digest):
            raise CliError(f"{path}: input missing or changed since the recorded run")
    if args.out:
        recorded["out"] = args.out
    if manifest.get("config"):
        recorded["config"] = os.path.join(recorded["out"], "replay_config.json")
    argv = [manifest["command"]]
    for key, value in recorded.items():
        if value is not None:
            argv += ["--" + key.replace("_", "-"), str(value)]
    return run_command(build_parser().parse_args(argv), manifest.get("config"))


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
    return parser


def main(argv=None):
    logging.basicConfig(
        level=os.environ.get("NRREG_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s")
    try:
        args = build_parser().parse_args(argv)
        if args.command == "replay":
            return cmd_replay(args)
        return run_command(args)
    except (CliError, OSError, ValueError) as exc:
        # bad input, not a bug: one line for the user, the traceback at DEBUG
        log.debug("traceback of the error below", exc_info=True)
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
