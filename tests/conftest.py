"""Shared fixtures: small meshes, random instances and the bend benchmark."""

import struct

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from nrreg import (
    CorrespondenceMap,
    Shape,
    SolverConfig,
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


def data_operator(vh):
    """Reference data operator V: the block-diagonal (N, 4N) CSR matrix whose
    row i is the homogeneous vertex vh[i] in block i. The program never forms
    it; ``TransformStack.apply`` gives V X and ``SystemStructure.data_transpose``
    V^T a."""
    n = len(vh)
    rows, cols = np.repeat(np.arange(n), 4), np.arange(4 * n)
    return sp.csr_matrix((vh.reshape(-1), (rows, cols)), shape=(n, 4 * n))


def sparse_product_system_matrix(mu1, mu2, beta, sys):
    """Reference transform-update matrix from scipy sparse products, in
    canonical CSC form: mu1 (W_D V)^T (W_D V) + mu2 (W_S B)^T (W_S B) + beta S,
    S the per-vertex selector diag(1, 1, 1, 0) of the linear parts. Sparse
    arithmetic drops entries that come out exactly zero. The program never
    forms this matrix."""
    WV = sp.diags(sys.w_data) @ data_operator(sys.structure.vh)
    WB = sp.diags(sys.w_smooth) @ sys.structure.B
    a = mu1 * (WV.T @ WV) + mu2 * (WB.T @ WB)
    if beta != 0.0:
        a = a + beta * sp.diags(np.tile([1.0, 1.0, 1.0, 0.0], sys.structure.n))
    a = a.tocsc()
    a.sum_duplicates()
    return a


def min_degree_order(n, rows, cols):
    """Minimum-degree order of the n-vertex graph whose edges (rows[k],
    cols[k]) are listed both ways (George & Liu 1989): SuperLU's
    ``MMD_AT_PLUS_A`` column order of graph Laplacian + I, an SPD matrix with
    the graph's pattern. Position k of the result holds vertex order[k]
    (SuperLU's ``perm_c`` is the inverse map: vertex i goes to perm_c[i])."""
    deg = np.bincount(rows, minlength=n)
    diag = np.arange(n)
    g = sp.csc_matrix((np.concatenate([deg + 1.0, -np.ones(len(rows))]),
                       (np.concatenate([diag, rows]), np.concatenate([diag, cols]))),
                      shape=(n, n))
    position = splu(g, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                    options={"SymmetricMode": True}).perm_c
    return np.argsort(position)


def block_order_factorization(mu1, mu2, beta, sys):
    """Reference factorization of the 4N x 4N transform-update matrix, as
    ``factorize_system`` ran it before condensing to N x N: a minimum-degree
    order of the vertex-block graph, expanded to 4-wide blocks, orders
    ``sparse_product_system_matrix``, and SuperLU factorizes P A P^T with the
    natural column order and no pivoting. Returns (solve, pivot ratio):
    ``solve`` maps a vertex-order right-hand side to the vertex-order
    solution, and the ratio is min |U_ii| / max |U_ii|."""
    st = sys.structure
    e = st.edges[st.edge_rows]
    pairs = np.unique(np.concatenate([e, e[:, ::-1]]), axis=0)
    order = min_degree_order(st.n, pairs[:, 0], pairs[:, 1])
    scalar = (4 * order[:, None] + np.arange(4)).reshape(-1)
    a = sparse_product_system_matrix(mu1, mu2, beta, sys)
    lu = splu(a[scalar][:, scalar].tocsc(), permc_spec="NATURAL",
              diag_pivot_thresh=0.0, options={"SymmetricMode": True})

    def solve(rhs):
        x = np.empty_like(rhs)
        x[scalar] = lu.solve(rhs[scalar])
        return x

    du = np.abs(lu.U.diagonal())
    return solve, du.min() / du.max()


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


def duplicated_strip():
    """A faceless 20x8 relief strip with its first 10 vertices appended
    again (160-169 duplicate 0-9), and as target the same cloud 0.01 along
    x."""
    v = make_strip(20, 8, 0.1, relief=0.5).vertices
    v = np.concatenate([v, v[:10]])
    return Shape(vertices=v), Shape(vertices=v + [0.01, 0.0, 0.0])


# the vertices the singular l2 system of ``duplicated_strip`` names
DUPLICATE_SUSPECTS = [0, 7, 159, 160, 167]


def make_strip_faces_loop(nx, ny):
    """Reference strip faces: the per-quad loop ``make_strip`` once ran, in
    its face order (the order fixes the summation order of vertex normals)."""
    faces = []
    for i in range(nx - 2 + 1):
        for j in range(ny - 2 + 1):
            a = i * ny + j           # quad corners: a, a+1, b, b+1
            b = (i + 1) * ny + j
            diag_a = (i + j) % 2 == 0    # diagonal through a .. b+1
            # corner quads: keep the diagonal that touches the mesh corner
            if i == 0 and j == 0:
                diag_a = True
            elif i == nx - 2 and j == 0:
                diag_a = False
            elif i == 0 and j == ny - 2:
                diag_a = False
            elif i == nx - 2 and j == ny - 2:
                diag_a = True
            if diag_a:
                faces.append([a, b, b + 1])
                faces.append([a, b + 1, a + 1])
            else:
                faces.append([a, b, a + 1])
                faces.append([b, b + 1, a + 1])
    return np.array(faces, dtype=np.int64)


def ply_header(fmt, *lines):
    """A PLY header: magic, ``format <fmt> 1.0``, the given lines, end_header."""
    return "".join(f"{ln}\n" for ln in ("ply", f"format {fmt} 1.0", *lines,
                                         "end_header")).encode("ascii")


XYZ_DOUBLE = ("property double x", "property double y", "property double z")
XYZ_FLOAT = ("property float x", "property float y", "property float z")
TRIANGLE_LIST = "property list uchar int vertex_indices"
ASCII_TRIANGLE = ply_header("ascii", "element vertex 3", *XYZ_DOUBLE,
                            "element face 2", TRIANGLE_LIST)
BINARY_TRIANGLE = ply_header("binary_little_endian", "element vertex 3",
                             *XYZ_FLOAT, "element face 2", TRIANGLE_LIST) \
    + struct.pack("<9f", 0, 0, 0, 1, 0, 0, 0, 1, 0)

# malformed PLY files and the "line: message" that load_shape reports for
# each, after the path; ASCII body errors name the offending row's line,
# binary body errors line 0
PLY_FAULTS = {
    "missing-end-header": (b"ply\nformat ascii 1.0\nelement vertex 1\n",
                           "0: missing end_header"),
    "not-ply": (b"plyx\nformat ascii 1.0\nend_header\n", "1: not a PLY file"),
    "property-before-element": (ply_header("ascii", "property double x"),
                                "3: property before element"),
    "big-endian": (ply_header("binary_big_endian", "element vertex 1", *XYZ_DOUBLE)
                   + bytes(24), "0: unsupported PLY format 'binary_big_endian'"),
    "no-vertices": (ply_header("ascii", "element vertex 0", *XYZ_DOUBLE),
                    "0: no vertices found"),
    "truncated-element": (ply_header("ascii", "element vertex 3", *XYZ_DOUBLE)
                          + b"0 0 0\n1 1 1\n", "10: truncated element 'vertex'"),
    "no-xyz": (ply_header("ascii", "element vertex 1", "property double x",
                          "property double y", "property double w") + b"0 0 0\n",
               "7: vertex element lacks x/y/z"),
    "short-vertex-row": (ply_header("ascii", "element vertex 3", *XYZ_DOUBLE)
                         + b"0 0 0\n1 1\n2 2 2\n", "9: truncated vertex row"),
    "bad-vertex-value": (ply_header("ascii", "element vertex 3", *XYZ_DOUBLE)
                         + b"0 0 0\n1 a 1\n2 2 2\n", "9: bad vertex value"),
    "bad-face-row": (ASCII_TRIANGLE + b"0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n3 0 1 x\n",
                     "14: bad face row"),
    "quad-face": (ASCII_TRIANGLE + b"0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n4 0 1 2 2\n",
                  "14: only triangle faces supported"),
    "binary-vertex-list": (ply_header("binary_little_endian", "element vertex 1",
                                      *XYZ_FLOAT, "property list uchar int foo")
                           + struct.pack("<3fBi", 0, 0, 0, 1, 5),
                           "0: list property on vertex element"),
    "truncated-binary-vertices": (ply_header("binary_little_endian",
                                             "element vertex 3", *XYZ_FLOAT)
                                  + struct.pack("<6f", 0, 0, 0, 1, 0, 0),
                                  "0: truncated binary vertex data"),
    "truncated-binary-faces": (BINARY_TRIANGLE + struct.pack("<B3iB2i", 3, 0, 1, 2,
                                                             3, 0, 1),
                               "0: truncated binary face data"),
    "binary-quad-face": (BINARY_TRIANGLE + struct.pack("<B3iB4i", 3, 0, 1, 2,
                                                       4, 0, 1, 2, 2),
                         "0: only triangle faces supported"),
    "short-face-row": (ASCII_TRIANGLE + b"0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n3 0 1\n",
                       "14: only triangle faces supported"),
    "empty-face-row": (ASCII_TRIANGLE + b"0 0 0\n1 0 0\n0 1 0\n\n3 0 1 2\n",
                       "13: bad face row"),
    # faults that escaped as tracebacks or were misread: each names its
    # header line, or its element
    "color-out-of-range": (ply_header("ascii", "element vertex 2", *XYZ_DOUBLE,
                                      "property uchar red", "property uchar green",
                                      "property uchar blue")
                           + b"0 0 0 1 2 3\n1 1 1 4 300 6\n", "12: bad vertex value"),
    "binary-color-out-of-range": (
        ply_header("binary_little_endian", "element vertex 1", *XYZ_FLOAT,
                   "property float red", "property float green", "property float blue")
        + struct.pack("<6f", 0, 0, 0, 1, 300, 3), "0: bad vertex value"),
    "negative-count": (ply_header("ascii", "element vertex -1", *XYZ_DOUBLE),
                       "3: malformed header line 'element vertex -1'"),
    "face-without-list": (ply_header("binary_little_endian", "element vertex 3",
                                     *XYZ_FLOAT, "element face 1", "property int a")
                          + struct.pack("<9fi", 0, 0, 0, 1, 0, 0, 0, 1, 0, 7),
                          "0: face element lacks a vertex list"),
    "unknown-type": (ply_header("binary_little_endian", "element vertex 1",
                                *XYZ_FLOAT, "property int64 q")
                     + struct.pack("<3fq", 0, 0, 0, 7),
                     "7: unknown PLY type 'int64'"),
    "element-count-word": (ply_header("ascii", "element vertex three", *XYZ_DOUBLE)
                           + b"0 0 0\n1 0 0\n0 1 0\n",
                           "3: malformed header line 'element vertex three'"),
    "polyline-list": (ply_header("binary_little_endian", "element vertex 3",
                                 *XYZ_FLOAT, "element polyline 1",
                                 "property list uchar int idx")
                      + struct.pack("<9fB3i", 0, 0, 0, 1, 0, 0, 0, 1, 0, 3, 0, 1, 2),
                      "0: list property on polyline element"),
}

# malformed OBJ files and the "line: message" that load_shape reports for
# each, after the path; a face index beyond the vertices is found after the
# whole file is read, on line 0
OBJ_TRIANGLE = "v 0 0 0\nv 1 0 0\nv 0 1 0\n"
OBJ_FAULTS = {
    "bad-vertex-coordinate": ("v 0 0 0\nv 1 x 0\n", "2: bad vertex coordinate"),
    "short-face": (OBJ_TRIANGLE + "f 1 2\n", "4: face needs 3 indices"),
    "bad-face-index": (OBJ_TRIANGLE + "f 1 2 c\n", "4: bad face index"),
    "zero-face-index": (OBJ_TRIANGLE + "f 0 1 2\n", "4: face index must be >= 1"),
    "face-index-beyond-vertices": (OBJ_TRIANGLE + "f 1 2 4\n",
                                   "0: face index out of range"),
}
