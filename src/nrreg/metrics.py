"""Registration error reports and residual-distribution analysis."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .geometry import Shape


@dataclass(frozen=True)
class ErrorReport:
    per_vertex: np.ndarray        # squared Euclidean errors, length N
    mean: float
    median: float
    max: float
    histogram: tuple              # (bin_edges, counts)
    colored_mesh: Shape


@dataclass(frozen=True)
class DistributionFit:
    laplace: tuple                # (location, scale)
    gauss: tuple                  # (mean, std)
    loglik_laplace: float
    loglik_gauss: float


def error_colors(values, clamp_percentile=95.0):
    """Blue-to-red linear ramp, clamped at the given percentile."""
    v = np.asarray(values, dtype=np.float64)
    hi = np.percentile(v, clamp_percentile)
    t = np.clip(v / hi, 0.0, 1.0) if hi > 0 else np.zeros_like(v)
    colors = np.empty((len(v), 3), dtype=np.uint8)
    colors[:, 0] = np.round(255 * t)
    colors[:, 1] = 0
    colors[:, 2] = np.round(255 * (1 - t))
    return colors


def _fd_histogram(values):
    """Freedman-Diaconis binned counts, at most ceil(sqrt(n)) bins (an IQR
    of rounding noise asks for billions); falls back to 10 bins for tiny or
    zero-IQR samples."""
    v = np.asarray(values, dtype=np.float64)
    q75, q25 = np.percentile(v, [75, 25])
    iqr = q75 - q25
    if iqr > 0 and len(v) > 2:
        width = 2 * iqr / np.cbrt(len(v))
        nbins = max(1, int(np.ceil((v.max() - v.min()) / width))) if width > 0 else 10
        nbins = min(nbins, int(np.ceil(np.sqrt(len(v)))))
    else:
        nbins = 10
    counts, edges = np.histogram(v, bins=nbins)
    return edges, counts


def check_ground_truth(template, ground_truth):
    """``ground_truth`` as a float array; ValueError unless it holds one
    position per template vertex."""
    gt = np.asarray(ground_truth, dtype=np.float64)
    if gt.shape != (template.n_vertices, 3):
        raise ValueError(f"ground truth must be ({template.n_vertices}, 3), "
                         f"got {gt.shape}")
    return gt


def fitting_error(X, template, ground_truth):
    """Per-vertex squared distance between transformed template vertices and
    their ground-truth positions, with summary stats and a color-coded mesh."""
    gt = check_ground_truth(template, ground_truth)
    moved = X.apply(template.vertices)
    per_vertex = np.sum((moved - gt) ** 2, axis=1)
    edges, counts = _fd_histogram(per_vertex)
    colored = replace(Shape(vertices=moved, faces=template.faces),
                      colors=error_colors(per_vertex))
    return ErrorReport(per_vertex=per_vertex,
                       mean=float(per_vertex.mean()),
                       median=float(np.median(per_vertex)),
                       max=float(per_vertex.max()),
                       histogram=(edges, counts),
                       colored_mesh=colored)


def mean_distance_error(X, template, ground_truth):
    """Mean Euclidean (not squared) distance to ground truth."""
    moved = X.apply(template.vertices)
    return float(np.mean(np.linalg.norm(moved - np.asarray(ground_truth), axis=1)))


def fit_residual_distributions(residuals):
    """Maximum-likelihood Laplace and Gaussian fits with log-likelihoods.

    Laplace: location = median, scale = mean absolute deviation about the
    median. Gaussian: sample mean, population std.
    """
    x = np.asarray(residuals, dtype=np.float64).ravel()
    if len(x) < 10:
        raise ValueError("need at least 10 samples")
    loc = float(np.median(x))
    b = float(np.mean(np.abs(x - loc)))
    mean = float(np.mean(x))
    std = float(np.std(x))
    if b <= 0 or std <= 0:
        raise ValueError("samples have zero spread")
    n = len(x)
    ll_lap = -n * np.log(2 * b) - np.sum(np.abs(x - loc)) / b
    ll_gau = -n / 2 * np.log(2 * np.pi * std ** 2) \
        - np.sum((x - mean) ** 2) / (2 * std ** 2)
    return DistributionFit(laplace=(loc, b), gauss=(mean, std),
                           loglik_laplace=float(ll_lap),
                           loglik_gauss=float(ll_gau))


def residuals_for_analysis(offsets, mode="per_axis_l1"):
    """Positional residual samples from the (M, 3) offsets of the M matched
    vertices, moved position minus matched target.

    ``per_axis_l1``: the 3 signed coordinate residuals per matched vertex;
    ``euclidean``: one distance per matched vertex.
    """
    res = np.asarray(offsets, dtype=np.float64)
    if not len(res):
        raise ValueError("no matched vertices")
    if mode == "per_axis_l1":
        return res.ravel()
    if mode == "euclidean":
        return np.linalg.norm(res, axis=1)
    raise ValueError(f"unknown mode {mode!r}")
