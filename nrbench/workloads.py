"""Workload inputs, built from a seed through nrreg's public synthesis
functions only.

Every workload is the 45 degree strip bend of ``nrreg synth`` (pivot at the
strip midpoint, 0.1 blend band, relief 0.5). Its corruption draw and 20 %
landmark subset use fixed seeds, so every benchmark seed asks the solver for
the same work; the benchmark seed moves the whole instance (template, target
and ground truth) by a seeded rigid translation. See README.md for why.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

import nrreg.synthesis as synthesis
from nrreg.correspondence import save_correspondences
from nrreg.geometry import Shape, save_shape
from nrreg.solver import SolverConfig

SPACING = 0.1
NY = 8
CORRUPTION_SEED = 1
LANDMARK_SEED = 1
LANDMARK_FRACTION = 0.2
JITTER_SEED = 1
JITTER_SIGMA = 0.05          # template jitter of the CLI cloud, in mean edge lengths


@dataclass(frozen=True)
class Workload:
    name: str
    nx: int
    corruption: str          # "outliers" (5 %, 3 sigma) or "noise" (0.3 sigma)
    variant: str
    cli: bool                # write PLY files and run nrreg.cli.main
    error_ceiling: float     # error_rel above this fails the run


WORKLOADS = {w.name: w for w in [
    Workload("bend-outliers-800", 100, "outliers", "dual_sparse", False, 2e-4),
    Workload("l2-noise-6400", 800, "noise", "l2", False, 2e-3),
    Workload("cli-cloud-600", 75, "outliers", "dual_sparse", True, 2e-4),
]}


@dataclass
class Inputs:
    template: Shape
    target: Shape
    ground_truth: np.ndarray      # (N, 3) true positions of the template
    landmarks: object             # CorrespondenceMap
    config: SolverConfig
    diag: float                   # bbox diagonal of the ground truth
    files: dict | None = None     # CLI workload: paths of the written inputs


def _move(shape, motion):
    moved, _, _ = synthesis.synth_deformation(shape, motion)
    return moved


def make_inputs(workload, seed, out_dir, nx=None):
    """Synthesize one instance; the CLI workload also writes it as
    vertex-only PLY files plus a landmark file under ``out_dir``.

    ``nx`` overrides the strip length (the smoke test uses a tiny strip).
    """
    w = workload
    nx = nx or w.nx
    strip = synthesis.make_strip(nx, NY, SPACING, relief=0.5)
    if w.cli:
        # on the exact grid, k-NN distances tie and the edge graph (and with
        # it the factorization fill) hangs on last-bit rounding; a fixed
        # normal jitter breaks the ties
        strip = replace(synthesis.perturb_noise(strip, JITTER_SIGMA,
                                                seed=JITTER_SEED), normals=None)
    pivot = (nx - 1) * SPACING / 2.0
    spec = synthesis.DeformationSpec(
        kind="bend", angle_deg=45.0, axis=(0.0, 1.0, 0.0),
        axis_point=(pivot, 0.0, 0.0), blend_direction=(1.0, 0.0, 0.0),
        band_start=pivot - 0.05, band_end=pivot + 0.05)
    target, gt, _ = synthesis.synth_deformation(strip, spec)
    if w.corruption == "outliers":
        target, _ = synthesis.perturb_outliers(target, 0.05, 3.0,
                                               seed=CORRUPTION_SEED)
    else:
        target = synthesis.perturb_noise(target, 0.3, seed=CORRUPTION_SEED)
    landmarks = synthesis.landmark_subset(strip.n_vertices, LANDMARK_FRACTION,
                                          seed=LANDMARK_SEED)
    offset = synthesis.rng_from_seed(seed).uniform(-10.0, 10.0, size=3)
    motion = synthesis.DeformationSpec(kind="rigid", angle_deg=0.0,
                                       translation=tuple(offset))
    template = _move(strip, motion)
    target = _move(target, motion)
    _, gt, _ = synthesis.synth_deformation(Shape(vertices=gt), motion)
    inputs = Inputs(template=template, target=target, ground_truth=gt,
                    landmarks=landmarks, config=SolverConfig(variant=w.variant),
                    diag=float(np.linalg.norm(gt.max(0) - gt.min(0))))
    if w.cli:
        files = {k: os.path.join(out_dir, f"{k}.ply")
                 for k in ("template", "target", "ground_truth")}
        save_shape(Shape(vertices=template.vertices), files["template"])
        save_shape(Shape(vertices=target.vertices), files["target"])
        save_shape(Shape(vertices=gt), files["ground_truth"])
        files["landmarks"] = os.path.join(out_dir, "landmarks.txt")
        save_correspondences(landmarks, files["landmarks"])
        inputs.files = files
    return inputs
