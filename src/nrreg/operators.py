"""Sparse system assembly and the closed-form kernels of the splitting solver:
element-wise / row-wise shrinkage, nearest-rotation projection, and the
factorized symmetric linear solve for the per-vertex affine transforms."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# scipy is imported inside the functions that build sparse matrices, order,
# factorize and solve (lazy: at module level it would take about two thirds
# of every fresh interpreter's `import nrreg`, and a process that only
# synthesizes, perturbs or evaluates never factorizes)


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
    block is blocks[i].T, so that V @ stacked, V the block-diagonal data
    operator of rows vh_i, gives the positions ``apply`` gives.
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
        if len(vh) != self.n:
            raise ValueError(f"{len(vh)} vertices for {self.n} transforms")
        return np.einsum("nij,nj->ni", self.blocks, vh)


def _read_only(*arrays):
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


class SystemStructure:
    """What the template alone fixes, built once per registration: the
    homogeneous vertices ``vh``, B, the rows ``edge_rows`` of B with i != j
    (a self-loop's row of B is zero), and the pattern and band order of the
    N x N system the factorization condenses mu1 K_D + mu2 K_S + beta S to.

    In node-relative unknowns (see ``factorize_system``) K_S couples p_r
    with vertex j's linear part only if r = j or (r, j) is an edge: the
    couple entries, keyed jN + r, so grouped by column, with columns
    ``couple_col``. Edge k of ``edge_rows``, (i, j), adds to couple entries
    ``edge_couple[:, k]``, its (j, j) and (i, j). ``couple_indptr`` and
    ``couple_rows`` are the pattern of the (N, 3N) CSC matrix whose column
    dN + j holds component d of the couple entries of column j in their
    rows. Eliminating the linear parts couples every two rows of one
    column: pair k couples couple entry ``pair_first[k]`` with
    ``pair_second[k]``, and ``pair_indptr``, ``pair_rows`` are the pattern
    of the CSC matrix whose column dN + j holds the pairs of column j, each
    in the row of the band slot its vertex pair lo <= hi takes. K_S's
    (p, p) entries are the N vertex diagonals, then the distinct edge pairs
    (lo, hi); edge k adds to ``edge_pp[:, k]``, its (i, i), (j, j) and
    (lo, hi), and entry m goes to band slot ``pp_band[m]``. ``order`` is
    the reverse Cuthill-McKee order of the condensed pattern (George & Liu
    1981), position k holding vertex order[k]; in that order every
    condensed entry lies within ``bandwidth`` of the diagonal, and
    condensed entry k goes to the read-only flat index ``band_index[k]`` of
    the Fortran-order (bandwidth + 1, N) lower band LAPACK's banded
    Cholesky reads. The singular test scales the linear parts' pivots by
    ``pivot_scale`` = s^-2, s the power of two nearest the RMS edge-vector
    length (1 without edges).
    """

    def __init__(self, vertices, edges):
        import scipy.sparse as sp
        from scipy.sparse.csgraph import reverse_cuthill_mckee
        self.vh = homogeneous(vertices)
        n = self.n = len(self.vh)
        self.edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        self.B = assemble_B(vertices, self.edges)
        self.edge_rows = np.flatnonzero(self.edges[:, 0] != self.edges[:, 1])
        i, j = self.edges[self.edge_rows].T
        d2 = np.square(self.vh[i, :3] - self.vh[j, :3]).sum(axis=1)
        ms = d2.mean() if len(i) else 0.0
        # s within 2^-100 .. 2^100, so that no scaled pivot overflows
        log_s = np.clip(np.round(np.log2(ms) / 2), -100, 100) if ms > 0 else 0
        self.pivot_scale = 2.0 ** (-2 * log_s)

        # the condensed system: the couple entries (r, j) grouped by column
        # j, and the pairs of them that share a column
        diag = np.arange(n) * (n + 1)
        keys, inv = np.unique(np.concatenate([diag, j * n + i]), return_inverse=True)
        col, row = np.divmod(keys, n)
        # pairs k <= k' within each column group (its rows ascend): k' runs to its end
        reps = np.cumsum(np.bincount(col, minlength=n))[col] - np.arange(len(col))
        first = np.repeat(np.arange(len(col)), reps)
        second = first + np.arange(len(first)) - np.repeat(np.cumsum(reps) - reps, reps)
        pair_keys, pair_slot = np.unique(row[first] * n + row[second],
                                         return_inverse=True)
        off_keys, off_slot = np.unique(np.minimum(i, j) * n + np.maximum(i, j),
                                       return_inverse=True)
        # inv[j] is the slot of the diagonal (j, j), inv[n:] those of the (i, j)
        self.edge_couple, self.edge_pp, self.couple_col, self.pair_first, \
            self.pair_second = (a.astype(np.int32) for a in (
                np.stack([inv[j], inv[n:]]), np.stack([i, j, n + off_slot]),
                col, first, second))

        lo, hi = np.divmod(pair_keys, n)
        # the upper triangle of the pattern: the order is that of its A + A^T
        self.order = reverse_cuthill_mckee(
            sp.csr_matrix((np.ones(len(lo)), (lo, hi)), shape=(n, n)))
        position = np.argsort(self.order)
        r, c = position[lo], position[hi]
        below = np.abs(r - c)
        self.bandwidth = int(below.max(initial=0))
        self.band_index, = _read_only(
            (below + (self.bandwidth + 1) * np.minimum(r, c)).astype(np.int32))
        # columns dN + j, d = 0, 1, 2, repeat the rows of column group j
        per_col = np.bincount(col, minlength=n)
        pp_slot = np.searchsorted(pair_keys, np.concatenate([diag, off_keys]))
        self.pp_band, self.couple_indptr, self.couple_rows, self.pair_indptr, \
            self.pair_rows = _read_only(*(a.astype(np.int32, copy=False) for a in (
                self.band_index[pp_slot],
                np.cumsum(np.r_[0, np.tile(per_col, 3)]),
                np.tile(row.astype(np.int32), 3),
                np.cumsum(np.r_[0, np.tile(per_col * (per_col + 1) // 2, 3)]),
                np.tile(self.band_index[pair_slot], 3))))

    def data_transpose(self, a):
        """V^T a, (N, 3) -> (4N, 3), V the (N, 4N) block-diagonal data operator
        of rows vh_i: block i is vh_i a_i^T, each entry the one product of V^T a."""
        return np.einsum("nd,nc->ndc", self.vh, a).reshape(-1, 3)

    @cached_property
    def unit_penalty_basis(self):
        """The ``PenaltyBasis`` at unit smoothness weights: the smoothness
        term the binary acquisition phase and the l2 baseline use at every
        outer iteration, built once per structure."""
        return PenaltyBasis(self, np.ones(len(self.edges)))


class PenaltyBasis:
    """What the smoothness weights ``w_smooth`` (E,) fix of every
    factorization at any mu1, mu2 and beta, built straight from the edges;
    K_S = (W_S B T)^T (W_S B T), T the change to node-relative unknowns
    (see ``factorize_system``), is never formed. The row of edge (i, j) of
    B T is e_p in block i and -(d, 1) in block j, d = v_i - v_j, so with
    weight w it adds (w d)(w d)^T to vertex j's linear-part block G_j,
    w (w d) to couple entry (j, j) and -w (w d) to (i, j), w^2 to the
    (p, p) entries (i, i) and (j, j) and -w^2 to (lo, hi). Each entry is
    one ``np.bincount`` over the edges in edge order.

    Vertex j's linear-part block is M_j = beta I + mu2 G_j, so the
    eigendecomposition G_j = Q_j Lambda_j Q_j^T (``lam`` (3, N)) makes
    every M_j^-1 = Q_j F_j Q_j^T with F_j = diag(1 / (beta + mu2 lambda))
    (the varying-penalty caching of Boyd et al. 2011, section 4.2).
    ``lift`` (N, 4, 3) holds [Q_j; -v_j^T Q_j], the way from the eigenbasis
    back to X coordinates; its transpose Q_j^T [I | -v_j] is the way there.
    ``H`` is the (N, 3N) coupling Q_j^T g of every couple entry g of K_S,
    column dN + j (``H.T``: a CSR view on the same arrays). ``P`` maps
    the (3N,) diagonal of F to the Schur complement's band: column dN + j
    holds h_d h'_d for each pair (h, h') of couple entries in column j.
    ``ks_pp`` holds K_S's (p, p) entries at ``pp_band``.
    """

    def __init__(self, structure, w_smooth):
        import scipy.sparse as sp
        st = structure
        n = st.n
        i, j = st.edges[st.edge_rows].T
        w = w_smooth[st.edge_rows]
        wd = w[:, None] * (st.vh[i, :3] - st.vh[j, :3])            # (E, 3)
        # the lower triangles of the G_j (entries 00, 10, 11, 20, 21, 22)
        lower = np.stack([np.bincount(j, wd[:, a] * wd[:, b], minlength=n)
                          for a, b in ((0, 0), (1, 0), (1, 1),
                                       (2, 0), (2, 1), (2, 2))])
        full = lower[[0, 1, 3, 1, 2, 4, 3, 4, 5]].T.reshape(n, 3, 3)
        lam, q = np.linalg.eigh(full)
        self.lam = lam.T
        self.lift = np.concatenate(
            [q, -np.einsum("ncd,nc->nd", q, st.vh[:, :3])[:, None]], axis=1)
        # all (j, j) entries, then all (i, j), i != j: each sums in edge order
        wwd = w[:, None] * wd
        g = [np.bincount(st.edge_couple.reshape(-1), np.r_[wwd[:, c], -wwd[:, c]],
                         minlength=len(st.couple_col)) for c in range(3)]
        # h_d = sum_c Q_cd g_c, one component c of the column's Q_j at a time
        qt = q.transpose(1, 2, 0)                              # (c, d, N)
        h = qt[0].take(st.couple_col, axis=1)
        h *= g[0]
        for c in (1, 2):
            h += qt[c].take(st.couple_col, axis=1) * g[c]
        self.H = sp.csc_matrix((h.reshape(-1), st.couple_rows, st.couple_indptr),
                               shape=(n, 3 * n))
        pairs = np.empty((3, len(st.pair_first)))
        for d in range(3):
            h[d].take(st.pair_first, out=pairs[d])
            pairs[d] *= h[d].take(st.pair_second)
        self.P = sp.csc_matrix((pairs.reshape(-1), st.pair_rows, st.pair_indptr),
                               shape=((st.bandwidth + 1) * n, 3 * n))
        # interleaved per edge, so each vertex's diagonal sums in edge order
        ww = w * w
        self.ks_pp = np.bincount(st.edge_pp.T.reshape(-1),
                                 np.stack([ww, ww, -ww], axis=1).reshape(-1),
                                 minlength=len(st.pp_band))


@dataclass(frozen=True)
class SystemMatrices:
    """Per-outer-iteration sparse system: the registration's fixed structure
    (vertices, B, edges, pattern), matched target positions, and the current
    diagonal weights. Frozen: new weights arrive only through ``replace``."""

    structure: SystemStructure
    U_f: np.ndarray           # (N, 3), zero rows where unmatched
    w_data: np.ndarray        # (N,) diagonal of W_D
    w_smooth: np.ndarray      # (E,) diagonal of W_S; row r of B is edges[r]

    @cached_property
    def penalty_basis(self):
        """The ``PenaltyBasis`` of these smoothness weights, built once per
        instance; the structure's when every weight is 1. ``replace`` makes
        a new instance, so new weights never meet an old basis."""
        if np.any(self.w_smooth != 1.0):
            return PenaltyBasis(self.structure, self.w_smooth)
        return self.structure.unit_penalty_basis

    def data_residual(self, X):
        """W_D (V X - U_f) as an (N, 3) dense matrix."""
        return self.w_data[:, None] * (X.apply(self.structure.vh[:, :3]) - self.U_f)

    def smooth_residual(self, X):
        """W_S B X as an (E, 3) dense matrix."""
        return self.w_smooth[:, None] * (self.structure.B @ X.stacked)


def assemble_B(vertices, edges):
    """Edge-difference matrix (E, 4N): row for (i, j) holds +v_i^T in block i
    and -v_i^T in block j, so (B X)_r = (X_i v_i - X_j v_i)^T."""
    import scipy.sparse as sp
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


def assemble_system(structure, corr, target_vertices):
    """Build SystemMatrices for one outer iteration on ``structure``: the
    matched target positions, binary data weights (1 iff matched) and unit
    smoothness weights. Unmatched vertices get zero target rows.
    """
    U_f = np.zeros((structure.n, 3))
    m = corr.matched
    U_f[m] = np.asarray(target_vertices)[corr.target_indices[m]]
    return SystemMatrices(structure=structure, U_f=U_f, w_data=corr.weights,
                          w_smooth=np.ones(len(structure.edges)))


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


class Factorization:
    """Reusable factorization of the transform-update system. ``solve``
    takes a (4N, k) right-hand side in X coordinates and vertex order and
    returns the solution the same way; the change to node-relative
    unknowns, the elimination of the linear parts and the condensed N x N
    solve happen inside."""

    def __init__(self, band, structure, basis, f, mu2, pivot_ratio):
        self._band = band           # lower band of the condensed Cholesky factor
        self._structure = structure
        self._basis = basis
        # (N, 3, 4): F Q^T [I | -v]
        self._forward = np.ascontiguousarray((basis.lift * f.T[:, None]).transpose(0, 2, 1))
        self._mu2f = mu2 * f.T[:, :, None]             # (N, 3, 1)
        self._mu2 = mu2
        self._pivot_ratio = pivot_ratio
        self.shape = (4 * structure.n, 4 * structure.n)

    @property
    def pivot_ratio(self):
        """Smallest over largest pivot the singular test reads: the LDL^T
        pivots L_ii^2 of the condensed factor and the 3x3 blocks' pivots
        beta + mu2 lambda, the values F divides by, times
        ``SystemStructure.pivot_scale``."""
        return self._pivot_ratio

    def solve(self, rhs):
        from scipy.linalg.lapack import dpbtrs
        rhs = np.asarray(rhs, dtype=np.float64)
        if rhs.shape[0] != self.shape[0]:
            raise ValueError(f"rhs has {rhs.shape[0]} rows, expected {self.shape[0]}")
        st, basis = self._structure, self._basis
        n = st.n
        b = rhs.reshape(n, 4, -1)
        # the linear parts in the eigenbasis: z = F Q^T [I | -v] b, (N, 3, k)
        z = self._forward @ b
        c = b[:, 3] - self._mu2 * (basis.H @ z.transpose(1, 0, 2).reshape(3 * n, -1))
        p = np.empty_like(c)
        p[st.order] = dpbtrs(self._band, c[st.order], lower=1, overwrite_b=1)[0]
        y = z - self._mu2f * (basis.H.T @ p).reshape(3, n, -1).transpose(1, 0, 2)
        # back to X: x = [Q; -v^T Q] y + e_p p
        x = basis.lift @ y
        x[:, 3] += p
        x = x.reshape(rhs.shape)
        if not np.all(np.isfinite(x)):
            raise SingularSystemError("solve produced non-finite values")
        return x


def factorize_system(mu1, mu2, beta, sys):
    """Factorize the normal-equation matrix mu1 V^T W_D^2 V + mu2 B^T W_S^2 B
    + beta S, S the per-vertex selector diag(1, 1, 1, 0), which is never
    formed; raises SingularSystemError with the suspect vertex blocks when
    the matrix is singular.

    The factorization works per right-hand-side column in node-relative
    unknowns (Sumner, Schmid & Pauly 2007): a_i, a row of A_i, and
    p_i = a_i . v_i + t_i, so x_i = T_i z_i. There the data term touches only
    p, an edge row (i, j) touches p_i, p_j and a_j, and the rotation penalty
    only a, so the linear parts' block is block diagonal: M_j = beta I +
    mu2 G_j, G_j = sum_(i, j) w^2 d d^T, d = v_i - v_j. In the system's
    ``PenaltyBasis`` each M_j^-1 is the diagonal F_j, so the Schur
    complement in p is mu2 K_S,pp + mu1 W_D^2 - mu2^2 P f, one sparse
    product straight into the band of the registration's fixed reverse
    Cuthill-McKee order (no ordering per call), which LAPACK's banded
    Cholesky factorizes. The basis is built once per system. The singular
    test reads the pivots L_ii^2 and the 3x3 blocks' pivots beta + mu2
    lambda scaled by s^-2, which makes them commensurate; s is a power of
    two, so no solution bit depends on it.
    """
    from scipy.linalg.lapack import dpbtrf
    if mu1 <= 0 or mu2 <= 0:
        raise ValueError("mu1 and mu2 must be positive")
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    st = sys.structure
    n = st.n
    basis = sys.penalty_basis
    # the linear parts' pivots; rounding can leave an eigenvalue of a nearly
    # rank-deficient G_j at or below -beta / mu2
    diag = beta + mu2 * basis.lam
    if not np.all(diag > 0):
        raise _singular(mu1, mu2, beta, sys)
    f = 1.0 / diag
    band = basis.P @ f.reshape(-1)
    band *= -mu2 * mu2
    band[st.pp_band] += mu2 * basis.ks_pp
    band = band.reshape(st.bandwidth + 1, n, order="F")
    band[0] += mu1 * np.square(sys.w_data[st.order])
    band, info = dpbtrf(band, lower=1, overwrite_ab=1)
    if info != 0:
        raise _singular(mu1, mu2, beta, sys)
    # a factor of a nearly singular matrix can come out with tiny pivots; check
    pivots = np.concatenate([np.square(band[0]), st.pivot_scale * diag.reshape(-1)])
    if pivots.min() <= 1e-12 * max(pivots.max(), 1.0):
        raise _singular(mu1, mu2, beta, sys)
    return Factorization(band, st, basis, f, mu2, pivots.min() / pivots.max())


def _singular(mu1, mu2, beta, sys):
    """SingularSystemError naming the suspect vertices: those of every
    component of the edge graph without a matched vertex, or, when every
    component has one, those whose 4x4 diagonal block of the 4N x 4N matrix
    is rank deficient. The blocks are summed straight from the edges, bit
    for bit as the sparse products sum them: vertex i's block holds
    mu1 (w_i vh_i)(w_i vh_i)^T, and an edge (i, j), i != j, whose row of B
    is vh_i in block i and -vh_i in block j, adds mu2 (w vh_i)(w vh_i)^T to
    both, in edge order; S adds beta to the linear parts' diagonal. The
    reason is worded as an LU factorization of the full matrix words it:
    exactly singular when some unknown has no nonzero entry (the matrix is
    PSD, so none in its column when none in its block's), which every
    elimination order meets as an exactly zero pivot, and a zero pivot
    otherwise. (Such an unknown always stops the condensed factorization: a
    linear part's as a pivot beta + mu2 lambda = 0, a position's as a zero
    row of the banded system.)"""
    st = sys.structure
    i, j = st.edges[st.edge_rows].T
    wv = sys.w_data[:, None] * st.vh
    we = sys.w_smooth[st.edge_rows, None] * st.vh[i]
    smooth = np.zeros((st.n, 4, 4))
    np.add.at(smooth, np.stack([i, j], axis=1).reshape(-1),
              np.repeat(we[:, :, None] * we[:, None, :], 2, axis=0))
    blocks = mu1 * (wv[:, :, None] * wv[:, None, :]) + mu2 * smooth
    blocks[:, :3, :3] += beta * np.eye(3)
    exact = np.any(np.all(blocks == 0, axis=1))
    reason = "Factor is exactly singular" if exact else "zero pivot"
    tol = 1e-10 * np.diagonal(blocks, axis1=1, axis2=2).max(initial=1.0)
    bad = _unanchored_vertices(sys) or np.flatnonzero(
        np.linalg.matrix_rank(blocks, tol=tol) < 4).tolist()
    return SingularSystemError(
        f"singular system: {reason}; suspect vertex blocks {bad}",
        vertex_blocks=bad)


def _unanchored_vertices(sys):
    """Vertices of the components of the graph of nonzero-weight edges that
    hold no vertex of nonzero data weight: nothing pins such a component's
    common affine motion, so the system is singular on it."""
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components
    n = sys.structure.n
    e = sys.structure.edges[sys.w_smooth != 0]
    graph = sp.coo_matrix((np.ones(len(e)), (e[:, 0], e[:, 1])), shape=(n, n))
    n_comp, label = connected_components(graph, directed=False)
    anchored = np.zeros(n_comp, bool)
    anchored[label[sys.w_data != 0]] = True
    return np.flatnonzero(~anchored[label]).tolist()


def solve_X(handle, rhs):
    """Solve the factorized system for the stacked (4N, 3) unknown."""
    return TransformStack.from_stacked(handle.solve(rhs))
