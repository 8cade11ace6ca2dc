"""Template-to-target correspondence maps and closest-point search."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import nearest_neighbors


@dataclass(frozen=True)
class CorrespondenceMap:
    """Index map from template to target vertices.

    ``mapping[i]`` is 1-based: 0 means vertex i has no match, m > 0 means it
    matches target vertex m - 1. Binary weights follow from the mapping.
    """

    mapping: np.ndarray  # (N,) int64

    def __post_init__(self):
        m = np.ascontiguousarray(self.mapping, dtype=np.int64)
        if m.ndim != 1:
            raise ValueError("mapping must be 1-D")
        if m.size and m.min() < 0:
            raise ValueError("mapping entries must be >= 0")
        m.setflags(write=False)
        object.__setattr__(self, "mapping", m)

    @property
    def n(self):
        return self.mapping.shape[0]

    @property
    def weights(self):
        """Binary per-vertex weights: 1 iff matched."""
        return (self.mapping != 0).astype(np.float64)

    @property
    def matched(self):
        """Boolean mask of matched template vertices."""
        return self.mapping != 0

    @property
    def target_indices(self):
        """0-based target index per vertex; -1 where unmatched."""
        return self.mapping - 1

    def n_matched(self):
        return int(np.count_nonzero(self.mapping))

    @classmethod
    def empty(cls, n):
        return cls(np.zeros(n, dtype=np.int64))


def load_correspondences(path, n_template, n_target):
    """Read whitespace-separated 0-based ``i j`` pairs into a map.

    Duplicate template indices and out-of-range indices are errors.
    """
    mapping = np.zeros(n_template, dtype=np.int64)
    with open(path) as fh:
        for line_no, line in enumerate(fh, 1):
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            if len(parts) != 2:
                raise ValueError(f"{path}:{line_no}: expected 'i j' pair")
            try:
                i, j = int(parts[0]), int(parts[1])
            except ValueError:
                raise ValueError(f"{path}:{line_no}: non-integer index") from None
            if not 0 <= i < n_template:
                raise ValueError(f"{path}:{line_no}: template index {i} out of range "
                                 f"[0, {n_template})")
            if not 0 <= j < n_target:
                raise ValueError(f"{path}:{line_no}: target index {j} out of range "
                                 f"[0, {n_target})")
            if mapping[i] != 0:
                raise ValueError(f"{path}:{line_no}: duplicate template index {i}")
            mapping[i] = j + 1
    return CorrespondenceMap(mapping)


def save_correspondences(corr, path):
    with open(path, "w") as fh:
        for i in np.flatnonzero(corr.mapping):
            fh.write(f"{i} {corr.mapping[i] - 1}\n")


def closest_point_refresh(deformed, target, gate=np.inf, max_normal_angle=60.0,
                          tree=None):
    """ICP-style closest-point correspondences with distance and normal gates.

    Matches farther than ``gate``, an absolute distance, are rejected, and
    the search looks no further; a gate of 0 accepts exact hits only.
    Matches whose normals disagree by more than ``max_normal_angle`` degrees
    are rejected too (skipped if either shape lacks normals). Exact kd-tree
    search (``geometry.nearest_neighbors``); ties go to the lowest target
    index. ``tree`` (a ``cKDTree`` over the target's vertices) is built here
    unless given: a caller refreshing against one target many times passes
    it in.
    """
    if not gate >= 0 or max_normal_angle <= 0:
        raise ValueError("gate must be nonnegative and max_normal_angle positive")
    nearest, d2 = nearest_neighbors(target.vertices, 1, deformed.vertices,
                                    tree, gate)
    nearest = nearest[:, 0]
    # a query with no target within the gate has index n and distance inf
    accept = np.sqrt(d2[:, 0]) <= gate
    if deformed.normals is not None and target.normals is not None:
        cos_thresh = np.cos(np.deg2rad(max_normal_angle))
        rows = np.flatnonzero(accept)
        cosang = np.sum(deformed.normals[rows] * target.normals[nearest[rows]],
                        axis=1)
        accept[rows] = cosang >= cos_thresh
    mapping = np.where(accept, nearest + 1, 0)
    return CorrespondenceMap(mapping)


def merge(fixed, refreshed):
    """Combine landmark and refreshed maps; landmark entries win."""
    if fixed.n != refreshed.n:
        raise ValueError(f"length mismatch: {fixed.n} vs {refreshed.n}")
    mapping = np.where(fixed.mapping != 0, fixed.mapping, refreshed.mapping)
    return CorrespondenceMap(mapping)
