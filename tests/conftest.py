"""Shared fixtures: small meshes, random instances and the bend benchmark."""

import numpy as np
import pytest
import scipy.sparse as sp

from nrreg import (
    CorrespondenceMap,
    Shape,
    SolverConfig,
    build_S_terms,
    synth_deformation,
)
from nrreg.synthesis import DeformationSpec, landmark_subset, make_strip


@pytest.fixture
def triangle_obj(tmp_path):
    path = tmp_path / "tri.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
    return path


@pytest.fixture
def square_shape():
    """Unit square in the z=0 plane, two triangles."""
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]])
    faces = np.array([[0, 1, 2], [0, 2, 3]])
    return Shape(vertices=verts, faces=faces)


def random_cloud(n, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return rng.uniform(-scale, scale, size=(n, 3))


def brute_force_knn(vertices, k):
    """Reference k-NN edges: all-pairs distances, self excluded, ties to the
    lowest index (stable sort)."""
    v = np.asarray(vertices, dtype=np.float64)
    d2 = np.sum((v[:, None, :] - v[None, :, :]) ** 2, axis=2)
    np.fill_diagonal(d2, np.inf)
    nbrs = np.argsort(d2, axis=1, kind="stable")[:, :k]
    return np.column_stack([np.repeat(np.arange(len(v)), k), nbrs.reshape(-1)])


def brute_force_closest(queries, points):
    """Reference closest points: (index, distance) per query over all points,
    ties to the lowest index (first occurrence of the minimum)."""
    d2 = np.sum((queries[:, None, :] - points[None, :, :]) ** 2, axis=2)
    idx = np.argmin(d2, axis=1)
    return idx, np.sqrt(d2[np.arange(len(queries)), idx])


def sparse_product_system_matrix(mu1, mu2, beta, sys):
    """Reference transform-update matrix from scipy sparse products, in
    canonical CSC form: mu1 (W_D V)^T (W_D V) + mu2 (W_S B)^T (W_S B) + beta S.
    Sparse arithmetic drops entries that come out exactly zero."""
    WV = sp.diags(sys.w_data) @ sys.V
    WB = sp.diags(sys.w_smooth) @ sys.B
    a = mu1 * (WV.T @ WV) + mu2 * (WB.T @ WB)
    if beta != 0.0:
        a = a + beta * build_S_terms(sys.n)
    a = a.tocsc()
    a.sum_duplicates()
    return a


def unique_rows_undirected(edges):
    """Reference distinct undirected edges: sorted rows, np.unique(axis=0)."""
    return np.unique(np.sort(np.asarray(edges, dtype=np.int64), axis=1), axis=0)


def edges_from_faces_row_unique(faces):
    """Reference mesh half-edges: the face edges' distinct sorted rows by
    np.unique(axis=0), both orientations, lexicographically ordered."""
    f = np.asarray(faces, dtype=np.int64)
    und = np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]])
    und = unique_rows_undirected(und)
    both = np.concatenate([und, und[:, ::-1]])
    return both[np.lexsort((both[:, 1], both[:, 0]))]


def tie_rich_clouds():
    """Point sets whose neighbor distances tie exactly: a flat grid, a cubic
    grid, repeated points, and coordinates rounded to a coarse lattice."""
    cube = np.stack(np.meshgrid(*[np.arange(6.0)] * 3, indexing="ij"), -1)
    return {
        "flat-grid": make_strip(30, 8).vertices,
        "cubic-grid": cube.reshape(-1, 3),
        "duplicates": np.repeat(random_cloud(40, seed=5), 3, axis=0),
        "coarse-lattice": np.round(random_cloud(300, seed=6), 1),
    }


@pytest.fixture(scope="session")
def bend_instance():
    """The strip-bend benchmark used across solver and acceptance tests."""
    template = make_strip(25, 8, 0.1, relief=0.5)
    spec = DeformationSpec(kind="bend", angle_deg=45.0, axis=(0, 1, 0),
                           axis_point=(1.2, 0, 0), blend_direction=(1, 0, 0),
                           band_start=1.15, band_end=1.25)
    target, gt_positions, gt_stack = synth_deformation(template, spec)
    landmarks = landmark_subset(template.n_vertices, 0.2, seed=1)
    cfg = SolverConfig(max_dist_factor=1.5)
    return {"template": template, "target": target, "gt": gt_positions,
            "gt_stack": gt_stack, "landmarks": landmarks, "cfg": cfg}


def two_strips():
    """Template of two disjoint flat 6x4 strips, the second 10 units along x,
    with a target and landmarks on the first strip only: nothing anchors the
    second strip (vertices 24-47), so the transform-update system is
    singular there."""
    strip = make_strip(6, 4, 0.1)
    template = Shape(vertices=np.vstack([strip.vertices,
                                         strip.vertices + [10.0, 0.0, 0.0]]),
                     faces=np.vstack([strip.faces, strip.faces + 24]))
    mapping = np.zeros(48, dtype=np.int64)
    mapping[[0, 5, 11, 17, 23]] = [1, 6, 12, 18, 24]
    return template, strip, CorrespondenceMap(mapping)
