"""Sparse system assembly and the closed-form kernels of the splitting solver:
element-wise / row-wise shrinkage, nearest-rotation projection, and the
factorized symmetric linear solve for the per-vertex affine transforms."""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass
class SystemMatrices:
    """Per-outer-iteration sparse system: data map V, smoothness map B,
    matched target positions, and the current diagonal weights."""

    V: sp.csr_matrix          # (N, 4N)
    B: sp.csr_matrix          # (E, 4N)
    U_f: np.ndarray           # (N, 3), zero rows where unmatched
    w_data: np.ndarray        # (N,) diagonal of W_D
    w_smooth: np.ndarray      # (E,) diagonal of W_S
    edges: np.ndarray         # (E, 2), row r of B belongs to edges[r]

    @property
    def n(self):
        return self.V.shape[0]

    @property
    def n_edges(self):
        return self.B.shape[0]

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


def assemble_system(template, edges, corr, target_vertices, w_data=None, w_smooth=None):
    """Build SystemMatrices for one outer iteration.

    Unmatched vertices get zero target rows and zero data weight regardless of
    ``w_data``. Default weights are the binary match indicator / all-ones.
    """
    n = template.n_vertices
    V = assemble_V(template.vertices)
    B = assemble_B(template.vertices, edges)
    U_f = np.zeros((n, 3))
    m = corr.matched
    U_f[m] = np.asarray(target_vertices)[corr.target_indices[m]]
    wd = corr.weights if w_data is None else np.asarray(w_data, dtype=np.float64) * m
    ws = (np.ones(len(edges)) if w_smooth is None
          else np.asarray(w_smooth, dtype=np.float64))
    return SystemMatrices(V=V, B=B, U_f=U_f, w_data=wd, w_smooth=ws,
                          edges=np.asarray(edges, dtype=np.int64))


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


def project_rotations(X):
    """Nearest rotation per transform block: (N, 3, 3) array."""
    return nearest_rotations(X.linear_parts())[0]


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
    """mu1 V^T W_D^2 V + mu2 B^T W_S^2 B + beta * sum_i S_i^T S_i, sparse CSC."""
    WV = sp.diags(sys.w_data) @ sys.V
    WB = sp.diags(sys.w_smooth) @ sys.B
    a = mu1 * (WV.T @ WV) + mu2 * (WB.T @ WB)
    if beta != 0.0:
        a = a + beta * build_S_terms(sys.n)
    return a.tocsc()


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
    """Factorize the normal-equation matrix; raises SingularSystemError with
    the suspect vertex blocks when the matrix is singular."""
    if mu1 <= 0 or mu2 <= 0:
        raise ValueError("mu1 and mu2 must be positive")
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    a = system_matrix(mu1, mu2, beta, sys)
    asym = abs(a - a.T).max()
    if asym > 1e-12 * max(abs(a).max(), 1.0):
        raise AssertionError(f"system matrix not symmetric (max asymmetry {asym})")
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
