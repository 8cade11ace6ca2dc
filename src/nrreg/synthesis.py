"""Ground-truth deformation generators and corruption protocols (dense
normal-direction noise and sparse outliers)."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from numpy.random import Generator, Philox

from .geometry import Shape, mean_edge_length, with_normals
from .operators import TransformStack


def rng_from_seed(seed):
    """Counter-based 64-bit generator (Philox); seed-reproducible across
    platforms."""
    return Generator(Philox(seed))


def _displace_along_normals(target, fraction, sigma, seed):
    """Draw g ~ N(0, 1) per vertex from the seeded generator, then a uniform
    floor(fraction * M) subset (every vertex at fraction 1, with no draw),
    and move that subset along its normals by g * sigma * l_bar. Returns
    (shape without normals, sorted indices)."""
    if not 0 <= sigma < np.inf:
        raise ValueError(f"sigma must be nonnegative and finite, got {sigma}")
    shape = with_normals(target)
    if shape.normals is None:
        raise ValueError("vertex normals require faces")
    m = shape.n_vertices
    rng = rng_from_seed(seed)
    g = rng.standard_normal(m)
    idx = np.arange(m) if fraction >= 1 else \
        np.sort(rng.permutation(m)[:int(np.floor(fraction * m))])
    moved = shape.vertices.copy()
    moved[idx] += (g[idx] * sigma * mean_edge_length(shape))[:, None] * shape.normals[idx]
    return replace(shape, vertices=moved, normals=None), idx


def perturb_noise(target, sigma, seed=0):
    """Displace every vertex along its normal by g * sigma * l_bar with
    g ~ N(0, 1) from the seeded generator. Faces are unchanged; the result
    has no normals, since the target's no longer fit the moved surface."""
    return _displace_along_normals(target, 1.0, sigma, seed)[0]


def perturb_outliers(target, fraction, magnitude_sigma=3.0, seed=0):
    """Displace a uniform floor(fraction * M) subset of vertices along their
    normals; with fraction = 1 this is perturb_noise for the same seed.
    Returns (shape, sorted outlier indices); as with perturb_noise, the
    shape has no normals."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    return _displace_along_normals(target, fraction, magnitude_sigma, seed)


@dataclass(frozen=True)
class DeformationSpec:
    """Piecewise-rigid ground-truth deformation.

    kind "rigid": one rotation (angle about axis through axis_point) plus
    translation. kind "bend": vertices below band_start (projection onto
    blend_direction) stay fixed, vertices above band_end get the full
    rotation, and the transition band blends the two affine transforms
    linearly (so band positions are convex combinations of the two rigid
    predictions). kind "regions": hard per-region rotations.
    """

    kind: str = "bend"
    angle_deg: float = 45.0
    axis: tuple = (0.0, 0.0, 1.0)
    axis_point: tuple = (0.0, 0.0, 0.0)
    translation: tuple = (0.0, 0.0, 0.0)
    blend_direction: tuple = (1.0, 0.0, 0.0)
    band_start: float = 0.0
    band_end: float = 1.0
    regions: tuple = ()   # tuple of (index tuple, angle_deg, axis, axis_point)

    def __post_init__(self):
        if self.kind not in ("rigid", "bend", "regions"):
            raise ValueError(f"unknown deformation kind {self.kind!r}")
        for name in ("angle_deg", "band_start", "band_end", "axis", "axis_point",
                     "translation", "blend_direction"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.kind == "bend" and not self.band_end > self.band_start:
            raise ValueError("band_end must exceed band_start")


def rotation_about_axis(axis, angle_deg):
    """Rodrigues rotation matrix for an angle about a (non-zero) axis."""
    axis = np.asarray(axis, dtype=np.float64)
    norm = np.linalg.norm(axis)
    if norm == 0:
        raise ValueError("axis must be nonzero")
    k = axis / norm
    t = np.deg2rad(angle_deg)
    kx = np.array([[0, -k[2], k[1]], [k[2], 0, -k[0]], [-k[1], k[0], 0]])
    return np.eye(3) + np.sin(t) * kx + (1 - np.cos(t)) * (kx @ kx)


def _rigid_block(rot, axis_point, translation=(0.0, 0.0, 0.0)):
    p = np.asarray(axis_point, dtype=np.float64)
    block = np.zeros((3, 4))
    block[:, :3] = rot
    block[:, 3] = p - rot @ p + np.asarray(translation, dtype=np.float64)
    return block


def synth_deformation(template, spec):
    """Apply a piecewise-rigid deformation with known per-vertex transforms.

    Returns (target shape, ground-truth positions (N, 3), TransformStack).
    The ground-truth correspondence is the identity index map.
    """
    v = template.vertices
    n = len(v)
    blocks = np.zeros((n, 3, 4))
    if spec.kind == "rigid":
        rot = rotation_about_axis(spec.axis, spec.angle_deg)
        blocks[:] = _rigid_block(rot, spec.axis_point, spec.translation)
    elif spec.kind == "bend":
        rot = rotation_about_axis(spec.axis, spec.angle_deg)
        fixed = np.zeros((3, 4))
        fixed[:, :3] = np.eye(3)
        bent = _rigid_block(rot, spec.axis_point)
        d = np.asarray(spec.blend_direction, dtype=np.float64)
        d = d / np.linalg.norm(d)
        t = (v @ d - spec.band_start) / (spec.band_end - spec.band_start)
        t = np.clip(t, 0.0, 1.0)
        blocks[:] = (1 - t)[:, None, None] * fixed + t[:, None, None] * bent
    else:
        if not spec.regions:
            raise ValueError("regions deformation needs at least one region")
        assigned = np.zeros(n, dtype=bool)
        blocks[:, :, :3] = np.eye(3)
        for idx, angle_deg, axis, axis_point in spec.regions:
            idx = np.asarray(idx, dtype=np.int64)
            if idx.size == 0:
                raise ValueError("empty region")
            rot = rotation_about_axis(axis, angle_deg)
            blocks[idx] = _rigid_block(rot, axis_point)
            assigned[idx] = True
    gt = TransformStack(blocks)
    positions = gt.apply(v)
    target = Shape(vertices=positions, faces=template.faces,
                   edges=template.edges if len(template.edges) else None)
    return target, positions, gt


def make_strip(nx=20, ny=4, spacing=0.1, relief=0.0):
    """Regular triangulated strip; handy test geometry.

    ``relief`` adds a sinusoidal height field (amplitude in units of
    ``spacing``) so closest-point matching has geometric features to lock
    onto; 0 gives a flat strip. Diagonals alternate per quad and corner quads
    are oriented so every corner vertex has three neighbors (a two-neighbor
    corner makes per-vertex affine systems structurally singular).
    """
    if nx < 2 or ny < 2:
        raise ValueError(f"a strip needs nx >= 2 and ny >= 2, got nx={nx}, ny={ny}")
    if not 0 < spacing < np.inf:
        raise ValueError(f"spacing must be finite and positive, got {spacing}")
    if not np.isfinite(relief):
        raise ValueError(f"relief must be finite, got {relief}")
    xs = np.arange(nx) * spacing
    ys = np.arange(ny) * spacing
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    # phases keep the height nonzero on every grid line; a flat grid line
    # makes neighboring vertex positions coplanar and the affine systems
    # of the quadratic baseline singular
    z = relief * spacing * np.sin(2 * np.pi * gx / (3.1 * spacing) + 0.8) \
        * np.cos(2 * np.pi * gy / (2.3 * spacing) + 0.3) if relief else np.zeros_like(gx)
    verts = np.column_stack([gx.ravel(), gy.ravel(), z.ravel()])
    # quads (i, j), corners a, a+1, b, b+1, and their two faces in row-major
    # order, which fixes the summation order of vertex normals
    i, j = np.meshgrid(np.arange(nx - 1), np.arange(ny - 1), indexing="ij")
    a, b = i * ny + j, (i + 1) * ny + j
    diag_a = (i + j) % 2 == 0    # diagonal through a .. b+1
    # corner quads keep the diagonal that touches the mesh corner; set in
    # reverse so (0, 0) wins where one quad holds several corners
    diag_a[-1, -1], diag_a[0, -1], diag_a[-1, 0], diag_a[0, 0] = True, False, False, True
    faces = np.where(diag_a[..., None], np.stack([a, b, b + 1, a, b + 1, a + 1], -1),
                     np.stack([a, b, a + 1, b, b + 1, a + 1], -1))
    return Shape(vertices=verts, faces=faces.reshape(-1, 3))


def landmark_subset(n, fraction=0.1, seed=0):
    """Uniformly sampled identity landmarks i -> i covering the given
    fraction of template vertices."""
    from .correspondence import CorrespondenceMap
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"landmark fraction must be in (0, 1], got {fraction}")
    count = max(1, int(round(fraction * n)))
    idx = np.sort(rng_from_seed(seed).permutation(n)[:count])
    mapping = np.zeros(n, dtype=np.int64)
    mapping[idx] = idx + 1
    return CorrespondenceMap(mapping)
