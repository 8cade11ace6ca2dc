"""Sparse system assembly and the closed-form kernels of the splitting solver:
element-wise / row-wise shrinkage, nearest-rotation projection, and the
factorized symmetric linear solve for the per-vertex affine transforms."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu


class SingularSystemError(RuntimeError):
    """Linear system is singular; names the suspect vertex blocks when known."""

    def __init__(self, message, vertex_blocks=()):
        super().__init__(message)
        self.vertex_blocks = tuple(vertex_blocks)


def homogeneous(vertices):
    """Append the constant 1 column: (N, 3) -> (N, 4)."""
    v = np.asarray(vertices, dtype=np.float64)
    return np.concatenate([v, np.ones((len(v), 1))], axis=1)


class TransformStack:
    """N per-vertex 3x4 affine transforms.

    ``blocks`` is (N, 3, 4). ``stacked`` is the (4N, 3) matrix whose i-th row
    block is blocks[i].T, so that V @ stacked gives the transformed Cartesian
    positions row by row.
    """

    def __init__(self, blocks):
        b = np.asarray(blocks, dtype=np.float64)
        if b.ndim != 3 or b.shape[1:] != (3, 4):
            raise ValueError(f"blocks must be (N, 3, 4), got {b.shape}")
        self.blocks = b

    @classmethod
    def identity(cls, n):
        b = np.zeros((n, 3, 4))
        b[:, :, :3] = np.eye(3)
        return cls(b)

    @classmethod
    def from_stacked(cls, x):
        x = np.asarray(x, dtype=np.float64)
        n = x.shape[0] // 4
        return cls(x.reshape(n, 4, 3).transpose(0, 2, 1))

    @property
    def n(self):
        return self.blocks.shape[0]

    @property
    def stacked(self):
        return self.blocks.transpose(0, 2, 1).reshape(4 * self.n, 3)

    def linear_parts(self):
        """(N, 3, 3) linear components."""
        return self.blocks[:, :, :3]

    def apply(self, vertices):
        """Transform each vertex by its own block: (N, 3) -> (N, 3)."""
        vh = homogeneous(vertices)
        return np.einsum("nij,nj->ni", self.blocks, vh)

    def copy(self):
        return TransformStack(self.blocks.copy())


# component c = 4a + b of a 4x4 block is its entry (a, b); _TRANSPOSED[c] is
# the component of entry (b, a), and _S_COMPONENTS those of S's diagonal ones
_TRANSPOSED = np.arange(16).reshape(4, 4).T.reshape(-1)
_S_COMPONENTS = [0, 5, 10]


class SystemStructure:
    """What the template alone fixes, built once per registration: V, B and
    the CSC pattern of mu1 K_D + mu2 K_S + beta S at 4x4-block level (one
    diagonal block per vertex, the (i, j) and (j, i) blocks of every edge).

    Block values are (16, n_blocks) arrays, component 4a + b holding entry
    (a, b), vertex diagonals first; ``perm`` puts them in CSC order and
    ``diag_slots`` gives the (16, N) CSC slots of the diagonals. Block
    ``block_T[k]`` is block k's transpose. ``edge_blocks`` lists the (i, i),
    (j, j), (i, j), (j, i) blocks of each edge (i, j) in ``edge_rows``, the
    rows of B with i != j (a self-loop's row of B is zero). Every system
    matrix shares the read-only ``indptr`` and ``indices``.
    """

    def __init__(self, vertices, edges):
        self.vh = homogeneous(vertices)
        n = self.n = len(self.vh)
        self.edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        self.V = assemble_V(vertices)
        self.B = assemble_B(vertices, self.edges)
        self.edge_rows = np.flatnonzero(self.edges[:, 0] != self.edges[:, 1])
        e = self.edges[self.edge_rows]
        m = len(e)
        keys, inv = np.unique(np.concatenate([e[:, 0] * n + e[:, 1],
                                              e[:, 1] * n + e[:, 0]]),
                              return_inverse=True)
        self.edge_blocks = np.column_stack(
            [e[:, 0], e[:, 1], n + inv[:m], n + inv[m:]]).astype(np.int32).reshape(-1)
        row = np.concatenate([np.arange(n), keys // n])
        col = np.concatenate([np.arange(n), keys % n])
        nb = self.n_blocks = len(row)
        self.block_T = np.concatenate(
            [np.arange(n), n + np.searchsorted(keys, col[n:] * n + row[n:])])
        # CSC order: scalar column 4J + b holds rows 4r..4r+3 of each block
        # (r, J) of block column J, in block-row order
        order = np.lexsort((row, col))
        count = np.bincount(col, minlength=n)
        self.indptr = np.concatenate(
            [[0], np.cumsum(np.repeat(4 * count, 4))]).astype(np.int32)
        pos = np.empty(nb, np.int64)
        pos[order] = np.arange(nb) - (np.cumsum(count) - count)[col[order]]
        a, b = np.arange(16)[:, None] // 4, np.arange(16)[:, None] % 4
        slot = self.indptr[4 * col] + b * 4 * count[col] + 4 * pos + a
        self.indices = np.empty(self.indptr[-1], np.int32)
        self.indices[slot] = 4 * row + a
        self.perm = np.empty(self.indptr[-1], np.int32)
        self.perm[slot] = np.arange(16 * nb).reshape(16, nb)
        self.diag_slots = slot[:, :n].copy()
        for arr in (self.indptr, self.indices):
            arr.setflags(write=False)

    @cached_property
    def unit_smooth_terms(self):
        """K_S = B^T B on the CSC slots: the smoothness term at unit weights,
        which the binary acquisition phase and the l2 baseline use at every
        outer iteration, built and checked once per structure."""
        return _csc_terms(normal_blocks(self, None, np.ones(len(self.edges)))[1],
                          self)


def normal_blocks(structure, w_data, w_smooth):
    """K_D = (W_D V)^T (W_D V) and K_S = (W_S B)^T (W_S B) per block
    component: (16, N) for K_D, whose only blocks are the vertex diagonals,
    and (16, n_blocks) for K_S; a term whose weights are None is None.

    Each entry is formed as a sparse product forms it: products of weighted
    entries, summed over edges in edge order (``np.bincount`` adds in input
    order), so the values are bit for bit those of the products.
    """
    st = structure
    kd = ks = None
    if w_data is not None:
        wv = w_data * st.vh.T                               # (4, N)
        kd = (wv[:, None] * wv[None, :]).reshape(16, st.n)
    if w_smooth is not None:
        rows = st.edge_rows
        ws = w_smooth[rows] * st.vh[st.edges[rows, 0]].T    # (4, E)
        p = (ws[:, None] * ws[None, :]).reshape(16, len(rows))
        ks = np.empty((16, st.n_blocks))
        for c in range(16):
            ks[c] = np.bincount(st.edge_blocks, np.repeat(p[c], 4),
                                minlength=st.n_blocks)
        ks[:, st.n:] *= -1.0      # B holds -v_i in block j
    return kd, ks


def _assert_symmetric(values, block_T):
    """``values`` (16, K) per block component; block_T[k] holds the
    transpose of block k."""
    asym = max(np.abs(values[c] - values[_TRANSPOSED[c], block_T]).max(initial=0.0)
               for c in range(16))
    scale = max(values.max(initial=0.0), -values.min(initial=0.0), 1.0)
    if asym > 1e-12 * scale:
        raise AssertionError(f"system matrix not symmetric (max asymmetry {asym})")


def _csc_terms(values, structure):
    """Block values (16, n_blocks), checked for symmetry, in CSC slot order."""
    _assert_symmetric(values, structure.block_T)
    return values.reshape(-1).take(structure.perm)


@dataclass
class SystemMatrices:
    """Per-outer-iteration sparse system: the registration's fixed structure
    (V, B, edges, matrix pattern), matched target positions, and the current
    diagonal weights."""

    structure: SystemStructure
    U_f: np.ndarray           # (N, 3), zero rows where unmatched
    w_data: np.ndarray        # (N,) diagonal of W_D
    w_smooth: np.ndarray      # (E,) diagonal of W_S

    @property
    def V(self):
        """(N, 4N) data map."""
        return self.structure.V

    @property
    def B(self):
        """(E, 4N) smoothness map; row r belongs to edges[r]."""
        return self.structure.B

    @property
    def edges(self):
        return self.structure.edges

    @property
    def n(self):
        return self.V.shape[0]

    @property
    def n_edges(self):
        return self.B.shape[0]

    @cached_property
    def normal_terms(self):
        """(K_D, K_S) for these weights, built and checked for symmetry once
        per instance: K_D per component of the vertex diagonal blocks (see
        ``normal_blocks``), K_S on the CSC slots, taken from the structure
        when every smoothness weight is 1; ``replace`` makes a new instance,
        so new weights never meet old values."""
        st = self.structure
        unit = not np.any(self.w_smooth != 1.0)
        kd, ks = normal_blocks(st, self.w_data, None if unit else self.w_smooth)
        _assert_symmetric(kd, st.block_T[:self.n])
        return kd, st.unit_smooth_terms if unit else _csc_terms(ks, st)

    def data_residual(self, X):
        """W_D (V X - U_f) as an (N, 3) dense matrix."""
        return self.w_data[:, None] * (self.V @ X.stacked - self.U_f)

    def smooth_residual(self, X):
        """W_S B X as an (E, 3) dense matrix."""
        return self.w_smooth[:, None] * (self.B @ X.stacked)


def assemble_V(vertices):
    """Block-diagonal (N, 4N) matrix with row i = homogeneous v_i^T."""
    vh = homogeneous(vertices)
    n = len(vh)
    rows = np.repeat(np.arange(n), 4)
    cols = np.arange(4 * n)
    return sp.csr_matrix((vh.reshape(-1), (rows, cols)), shape=(n, 4 * n))


def assemble_B(vertices, edges):
    """Edge-difference matrix (E, 4N): row for (i, j) holds +v_i^T in block i
    and -v_i^T in block j, so (B X)_r = (X_i v_i - X_j v_i)^T."""
    vh = homogeneous(vertices)
    n = len(vh)
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if e.size and (e.min() < 0 or e.max() >= n):
        raise ValueError("edge index out of range")
    ne = len(e)
    rows = np.repeat(np.arange(ne), 8)
    cols = np.concatenate([(4 * e[:, 0])[:, None] + np.arange(4),
                           (4 * e[:, 1])[:, None] + np.arange(4)], axis=1).reshape(-1)
    ref = vh[e[:, 0]]
    vals = np.concatenate([ref, -ref], axis=1).reshape(-1)
    return sp.csr_matrix((vals, (rows, cols)), shape=(ne, 4 * n))


def assemble_system(template, edges, corr, target_vertices, w_data=None,
                    w_smooth=None, structure=None):
    """Build SystemMatrices for one outer iteration.

    Unmatched vertices get zero target rows and zero data weight regardless of
    ``w_data``. Default weights are the binary match indicator / all-ones.
    ``structure`` is ``SystemStructure(template.vertices, edges)``, built here
    unless the caller reuses one across outer iterations.
    """
    n = template.n_vertices
    if structure is None:
        structure = SystemStructure(template.vertices, edges)
    U_f = np.zeros((n, 3))
    m = corr.matched
    U_f[m] = np.asarray(target_vertices)[corr.target_indices[m]]
    wd = corr.weights if w_data is None else np.asarray(w_data, dtype=np.float64) * m
    ws = (np.ones(len(edges)) if w_smooth is None
          else np.asarray(w_smooth, dtype=np.float64))
    return SystemMatrices(structure=structure, U_f=U_f, w_data=wd, w_smooth=ws)


def shrink(x, tau):
    """Soft threshold: sign(x) * max(|x| - tau, 0), element-wise."""
    if np.any(np.asarray(tau) < 0):
        raise ValueError("tau must be nonnegative")
    x = np.asarray(x)
    return np.sign(x) * np.maximum(np.abs(x) - tau, 0.0)


def block_shrink(rows, tau):
    """Row-wise Euclidean shrinkage: r * max(1 - tau/||r||, 0); 0 stays 0."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    r = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    norms = np.linalg.norm(r, axis=1, keepdims=True)
    scale = np.where(norms > tau, 1.0 - tau / np.maximum(norms, 1e-300), 0.0)
    out = r * scale
    return out.reshape(np.shape(rows))


def nearest_rotations(m):
    """Nearest proper rotation to every matrix of an (N, 3, 3) stack.

    One batched SVD; where det(U V^T) < 0 the smallest singular direction is
    flipped (Kabsch), which gives the Frobenius-nearest proper rotation.
    Returns (R, unique) where unique[i] is False when row i's optimum is
    ambiguous (rank-deficient input or a reflection with degenerate spectrum).
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 3 or m.shape[1:] != (3, 3):
        raise ValueError(f"expected an (N, 3, 3) stack, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrices must be finite")
    u, s, vt = np.linalg.svd(m)
    flip = np.linalg.det(u) * np.linalg.det(vt) < 0
    u[flip, :, 2] *= -1.0
    tol = 1e-12 * np.maximum(s[:, 0], 1.0)
    # a flipped optimum is unique iff the two smallest singular values differ
    unique = np.where(flip, s[:, 1] - s[:, 2] > tol, s[:, 2] > tol)
    return u @ vt, unique


def procrustes_project(m):
    """Nearest rotation to one 3x3 matrix; returns (R, unique)."""
    m = np.asarray(m, dtype=np.float64)
    if m.shape != (3, 3):
        raise ValueError("expected a 3x3 matrix")
    r, unique = nearest_rotations(m[None])
    return r[0], bool(unique[0])


# entry k = 3i + j of a row-major 3x3 matrix m has the cofactor
# m[_COF[0]] m[_COF[1]] - m[_COF[2]] m[_COF[3]]: the 2x2 minor on rows and
# columns i+1, i+2 and j+1, j+2 (mod 3), whose cyclic order carries the sign
_ROW, _COL = np.divmod(np.arange(9), 3)
_COF = [3 * ((_ROW + a) % 3) + (_COL + b) % 3
        for a, b in ((1, 1), (2, 2), (1, 2), (2, 1))]
_POLAR_TOL = 1e-9        # largest entry step that ends the iteration
_POLAR_STEPS = 30
_POLAR_COND = 1e3        # largest Frobenius condition number kept


def _cofactors(m):
    """Cofactors, determinants and cofactor Frobenius norms of the (9, N)
    component arrays of N row-major 3x3 matrices."""
    c = m[_COF[0]] * m[_COF[1]] - m[_COF[2]] * m[_COF[3]]
    det = np.einsum("kn,kn->n", m[:3], c[:3])
    return c, det, np.sqrt(np.einsum("kn,kn->n", c, c))


def _newton_polar(m):
    """Orthogonal polar factors of a finite (N, 3, 3) stack by the scaled
    Newton iteration M <- (zeta M + M^-T / zeta) / 2, M^-T = cof(M) / det M,
    zeta = sqrt(||M^-1||_F / ||M||_F) (Higham 1986), run on all rows at once.

    Returns (R, ok). Rows with ok False are left to the SVD: det <= 0 (the
    polar factor is a reflection, not the nearest rotation), a Frobenius
    condition number above ``_POLAR_COND`` (the polar factor is too
    sensitive to agree with the SVD to 1e-12; rank-deficient rows included),
    or no step at or below ``_POLAR_TOL`` within ``_POLAR_STEPS``. The input
    is not modified.
    """
    n = len(m)
    a = m.reshape(n, 9).T.copy()
    norm = np.sqrt(np.einsum("kn,kn->n", a, a))
    a /= np.where(norm > 0, norm, 1.0)
    _, det, cof_norm = _cofactors(a)
    # at unit Frobenius norm, ||cof|| / det is the Frobenius condition number,
    # and it is at most K only if every singular value is at least 1/K, so
    # det >= K^-3: far above the rounding of det and cof, which on a singular
    # input can pass the ratio test on their own
    ok = (det >= _POLAR_COND ** -3) & (cof_norm <= _POLAR_COND * det)
    a[:, ~ok] = np.eye(3).reshape(9, 1)       # a fixed point of the step
    for _ in range(_POLAR_STEPS):
        c, det, cof_norm = _cofactors(a)
        zeta = np.sqrt(cof_norm / (det * np.sqrt(np.einsum("kn,kn->n", a, a))))
        new = 0.5 * (zeta * a + c / (zeta * det))
        step = np.abs(new - a).max(axis=0)
        a = new
        # quadratic convergence: after a step of 1e-9 the error is at rounding
        if step.max(initial=0.0) <= _POLAR_TOL:
            break
    return a.T.reshape(n, 3, 3), ok & (step <= _POLAR_TOL)


def project_rotations(X):
    """Nearest proper rotation per transform block: (N, 3, 3) array.

    The linear parts the solver projects are near-rotations, so their polar
    factors come from ``_newton_polar``: a few elementwise passes over all
    blocks instead of one LAPACK SVD per block, within 1e-12 of the SVD.
    Only the rows it leaves (reflections, ill-conditioned or unconverged
    blocks) go to ``nearest_rotations``, which stays the one SVD definition
    with the Kabsch flip and the uniqueness flags.
    """
    m = X.linear_parts()
    if not np.all(np.isfinite(m)):
        raise ValueError("matrices must be finite")
    r, ok = _newton_polar(m)
    if not ok.all():
        r[~ok] = nearest_rotations(m[~ok])[0]
    return r


def build_S_terms(n):
    """Block-diagonal (4N, 4N) selector sum: per-vertex diag(1, 1, 1, 0).

    Zeroes the translation row of each stacked 4x3 block, leaving the
    transposed linear part that the rotation penalty acts on.
    """
    diag = np.tile([1.0, 1.0, 1.0, 0.0], n)
    return sp.diags(diag, format="csr")


def rotation_rhs(rotations):
    """Stacked (4N, 3) right-hand-side blocks [R_i^T; 0] for the rotation
    penalty term of the normal equations."""
    r = np.asarray(rotations, dtype=np.float64)
    n = r.shape[0]
    out = np.zeros((4 * n, 3))
    out.reshape(n, 4, 3)[:, :3, :] = r.transpose(0, 2, 1)
    return out


def system_matrix(mu1, mu2, beta, sys):
    """mu1 V^T W_D^2 V + mu2 B^T W_S^2 B + beta * sum_i S_i^T S_i, sparse CSC.

    The pattern is the registration's fixed one (``SystemStructure``) and the
    K_D, K_S values are built once per system, so a call only scales and adds
    them. Entries that come out exactly zero are dropped, as sparse
    arithmetic drops them, so the matrix is bit for bit the one the sparse
    products give.
    """
    st = sys.structure
    kd, ks = sys.normal_terms
    d = mu2 * ks
    d[st.diag_slots] += mu1 * kd
    if beta != 0.0:
        d[st.diag_slots[_S_COMPONENTS]] += beta
    a = sp.csc_matrix((d, st.indices, st.indptr), shape=(4 * st.n, 4 * st.n))
    if not d.all():
        a = a.copy()            # the pattern arrays are shared
        a.eliminate_zeros()
    return a


class Factorization:
    """Reusable symmetric factorization of the transform-update system."""

    def __init__(self, lu, shape):
        self._lu = lu
        self.shape = shape

    def solve(self, rhs):
        rhs = np.asarray(rhs, dtype=np.float64)
        if rhs.shape[0] != self.shape[0]:
            raise ValueError(f"rhs has {rhs.shape[0]} rows, expected {self.shape[0]}")
        x = self._lu.solve(rhs)
        if not np.all(np.isfinite(x)):
            raise SingularSystemError("solve produced non-finite values")
        return x


def factorize_system(mu1, mu2, beta, sys):
    """Factorize the normal-equation matrix ``system_matrix(mu1, mu2, beta,
    sys)``; raises SingularSystemError with the suspect vertex blocks when
    the matrix is singular.

    Only the numeric work is per call: the pattern is fixed per registration,
    and K_D, K_S and their symmetry check are once per system.
    """
    if mu1 <= 0 or mu2 <= 0:
        raise ValueError("mu1 and mu2 must be positive")
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    a = system_matrix(mu1, mu2, beta, sys)
    try:
        lu = splu(a, diag_pivot_thresh=0.0,
                  options={"SymmetricMode": True})
    except RuntimeError as exc:
        bad = _suspect_blocks(a)
        raise SingularSystemError(
            f"singular system: {exc}; suspect vertex blocks {bad}",
            vertex_blocks=bad) from exc
    # SuperLU can succeed numerically on structurally singular inputs; check.
    du = np.abs(lu.U.diagonal())
    if du.size == 0 or du.min() <= 1e-12 * max(du.max(), 1.0):
        bad = _suspect_blocks(a)
        raise SingularSystemError(
            f"singular system: zero pivot; suspect vertex blocks {bad}",
            vertex_blocks=bad)
    return Factorization(lu, a.shape)


def _suspect_blocks(a, tol=1e-10):
    """Vertex indices whose diagonal 4x4 block is rank deficient."""
    n = a.shape[0] // 4
    coo = a.tocoo()
    keep = coo.row // 4 == coo.col // 4
    blocks = np.zeros((n, 4, 4))
    np.add.at(blocks, (coo.row[keep] // 4, coo.row[keep] % 4, coo.col[keep] % 4),
              coo.data[keep])
    ranks = np.linalg.matrix_rank(blocks, tol=tol * a.diagonal().max(initial=1.0))
    return np.flatnonzero(ranks < 4).tolist()


def solve_X(handle, rhs):
    """Solve the factorized system for the stacked (4N, 3) unknown."""
    return TransformStack.from_stacked(handle.solve(rhs))
