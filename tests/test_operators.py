"""System assembly and the three solver kernels, checked against independent
oracles: grid-search proximal operators, quaternion-parameterized rotation
search, dense linear solves, and finite differences of the quadratic model."""

from dataclasses import FrozenInstanceError, replace
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dpbtrf
from scipy.optimize import minimize
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.sparse.linalg import splu

from nrreg import (
    CorrespondenceMap,
    SingularSystemError,
    SystemMatrices,
    TransformStack,
    assemble_B,
    assemble_system,
    block_shrink,
    factorize_system,
    register,
    shrink,
    solve_X,
)
from nrreg.geometry import knn_edges
from nrreg.operators import (
    _POLAR_COND,
    SystemStructure,
    _newton_polar,
    _singular,
    _unanchored_vertices,
    homogeneous,
    nearest_rotations,
    project_rotations,
)
from nrreg.synthesis import landmark_subset, make_strip

from conftest import (
    block_order_factorization,
    data_operator,
    random_cloud,
    sparse_product_system_matrix,
)


def prox_abs_oracle(x, tau, width=None):
    """Two-stage grid search for argmin_c tau|c| + (c - x)^2 / 2."""
    if width is None:
        width = abs(x) + tau + 1.0
    grid = np.linspace(-width, width, 4001)
    best = grid[np.argmin(tau * np.abs(grid) + 0.5 * (grid - x) ** 2)]
    fine = np.linspace(best - width / 1000, best + width / 1000, 4001)
    return fine[np.argmin(tau * np.abs(fine) + 0.5 * (fine - x) ** 2)]


def prox_norm_oracle(row, tau):
    """Radial grid search for argmin_c tau ||c|| + ||c - x||^2 / 2."""
    r = np.linalg.norm(row)
    if r == 0:
        return np.zeros(3)
    grid = np.linspace(0.0, r + tau, 4001)
    best = grid[np.argmin(tau * grid + 0.5 * (grid - r) ** 2)]
    fine = np.linspace(max(best - (r + tau) / 1000, 0),
                       best + (r + tau) / 1000, 4001)
    t = fine[np.argmin(tau * fine + 0.5 * (fine - r) ** 2)]
    return row / r * t


def max_trace_rotation(m, n_starts=12, seed=0):
    """Maximize tr(R^T M) over rotations via quaternion-parameterized local
    optimization from random starts."""
    def quat_to_rot(q):
        q = q / np.linalg.norm(q)
        w, x, y, z = q
        return np.array([
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ])

    rng = np.random.default_rng(seed)
    best_val, best_rot = -np.inf, None
    for _ in range(n_starts):
        q0 = rng.standard_normal(4)
        res = minimize(lambda q: -np.trace(quat_to_rot(q).T @ m), q0,
                       method="Nelder-Mead",
                       options={"xatol": 1e-12, "fatol": 1e-14,
                                "maxiter": 4000})
        val = -res.fun
        if val > best_val:
            best_val, best_rot = val, quat_to_rot(res.x)
    return best_rot, best_val


def small_system(n=20, seed=0, match_fraction=0.8):
    """Random connected instance with partial matches."""
    rng = np.random.default_rng(seed)
    verts = random_cloud(n, seed=seed)
    edges = knn_edges(verts, min(4, n - 1))
    mapping = np.where(rng.random(n) < match_fraction,
                       rng.integers(1, n + 1, n), 0)
    if not mapping.any():
        mapping[0] = 1
    corr = CorrespondenceMap(mapping)
    target = random_cloud(n, seed=seed + 1)
    sys_ = assemble_system(SystemStructure(verts, edges), corr, target)
    w_d = np.where(corr.matched, rng.uniform(0.5, 2.0, n), 0.0)
    w_s = rng.uniform(0.5, 2.0, len(edges))
    from dataclasses import replace
    return replace(sys_, w_data=w_d, w_smooth=w_s)


class TestAssembleB:
    def test_origin_reference_row(self):
        verts = np.array([[0.0, 0, 0], [1.0, 0, 0]])
        b = assemble_B(verts, np.array([[0, 1]]))
        np.testing.assert_allclose(b.toarray(), [[0, 0, 0, 1, 0, 0, 0, -1]])

    def test_equal_transforms_null_space(self):
        verts = random_cloud(10, seed=3)
        edges = knn_edges(verts, 3)
        b = assemble_B(verts, edges)
        block = np.random.default_rng(0).standard_normal((3, 4))
        x = TransformStack(np.broadcast_to(block, (10, 3, 4)).copy())
        assert np.abs(b @ x.stacked).max() < 1e-12

    def test_rows_match_per_edge_oracle(self):
        verts = random_cloud(12, seed=4)
        edges = knn_edges(verts, 3)
        b = assemble_B(verts, edges)
        x = TransformStack(np.random.default_rng(1).standard_normal((12, 3, 4)))
        rows = b @ x.stacked
        vh = homogeneous(verts)
        for r, (i, j) in enumerate(edges):
            expect = x.blocks[i] @ vh[i] - x.blocks[j] @ vh[i]
            np.testing.assert_allclose(rows[r], expect, atol=1e-12)

    def test_eight_nonzeros_per_row(self):
        verts = random_cloud(8, seed=5) + 1.0   # keep coordinates nonzero
        edges = knn_edges(verts, 2)
        b = assemble_B(verts, edges).tocsr()
        assert np.all(np.diff(b.indptr) == 8)

    def test_edge_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            assemble_B(np.zeros((2, 3)), np.array([[0, 5]]))


class TestShrink:
    def test_inside_threshold(self):
        assert shrink(0.5, 1.0) == 0.0

    def test_sign_preserved(self):
        assert shrink(-3.0, 1.0) == -2.0

    def test_matches_grid_prox_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            x = rng.uniform(-5, 5)
            tau = rng.uniform(0, 3)
            assert abs(shrink(x, tau) - prox_abs_oracle(x, tau)) < 1e-4

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            shrink(1.0, -0.1)

    @given(st.floats(-1e6, 1e6), st.floats(0, 1e6))
    @settings(max_examples=200)
    def test_odd_and_contractive(self, x, tau):
        assert shrink(-x, tau) == -shrink(x, tau)
        assert abs(shrink(x, tau)) <= abs(x)


class TestBlockShrink:
    def test_axis_aligned(self):
        np.testing.assert_allclose(block_shrink(np.array([3.0, 0, 0]), 1.0),
                                   [2.0, 0, 0])

    def test_small_rows_vanish(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            row = rng.standard_normal(3)
            tau = np.linalg.norm(row) + rng.uniform(0, 1)
            np.testing.assert_allclose(block_shrink(row, tau), np.zeros(3))

    def test_matches_radial_prox_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            row = rng.uniform(-4, 4, 3)
            tau = rng.uniform(0, 3)
            np.testing.assert_allclose(block_shrink(row, tau),
                                       prox_norm_oracle(row, tau), atol=1e-3)

    def test_group_vs_elementwise_deviation_pattern(self):
        # one large axis-aligned deviation: element-wise shrinkage keeps the
        # deviation on that axis only, row shrinkage scales radially
        row = np.array([4.0, 0.1, 0.1])
        elem = shrink(row, 1.0)
        group = block_shrink(row, 1.0)
        assert elem[1] == 0.0 and elem[2] == 0.0 and elem[0] == 3.0
        assert group[1] > 0.0 and group[2] > 0.0
        assert group[1] / group[0] == pytest.approx(row[1] / row[0])

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError, match="tau must be nonnegative"):
            block_shrink(np.ones((2, 3)), -0.1)


class TestProcrustes:
    def test_identity_fixed(self):
        (r,), (unique,) = nearest_rotations(np.eye(3)[None])
        np.testing.assert_allclose(r, np.eye(3), atol=1e-12)
        assert unique

    def test_scale_removed(self):
        (r,), _ = nearest_rotations(2.0 * np.eye(3)[None])
        np.testing.assert_allclose(r, np.eye(3), atol=1e-12)

    def test_reflection_input_trace_optimal_flagged(self):
        m = np.diag([1.0, 1.0, -1.0])
        (r,), (unique,) = nearest_rotations(m[None])
        assert not unique
        assert np.trace(r.T @ m) == pytest.approx(1.0, abs=1e-9)
        _, oracle_val = max_trace_rotation(m)
        assert np.trace(r.T @ m) == pytest.approx(oracle_val, abs=1e-6)

    def test_rotation_invariants_and_quaternion_oracle(self):
        rng = np.random.default_rng(9)
        for i in range(10):
            m = rng.standard_normal((3, 3))
            (r,), _ = nearest_rotations(m[None])
            np.testing.assert_allclose(r.T @ r, np.eye(3), atol=1e-9)
            assert abs(np.linalg.det(r) - 1.0) < 1e-9
            _, oracle_val = max_trace_rotation(m, seed=i)
            assert np.trace(r.T @ m) >= oracle_val - 1e-6

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_idempotent_on_rotations(self, seed):
        q = np.random.default_rng(seed).standard_normal(4)
        q /= np.linalg.norm(q)
        w, x, y, z = q
        rot = np.array([
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ])
        (r,), (unique,) = nearest_rotations(rot[None])
        np.testing.assert_allclose(r, rot, atol=1e-9)
        assert unique

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            nearest_rotations(np.full((3, 3), np.nan)[None])


class TestNearestRotations:
    @staticmethod
    def mixed_stack():
        rng = np.random.default_rng(21)
        rot, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        rot *= np.sign(np.linalg.det(rot))
        return np.stack([
            np.eye(3),
            rot,                                   # proper rotation
            np.diag([1.0, 1.0, -1.0]),             # reflection, tied spectrum
            np.outer([1.0, 2.0, 0.5], [0.3, -1.0, 2.0]),   # rank 1
            rot @ np.diag([3.0, 0.5, 0.5]),        # two equal small values
            -rot @ np.diag([3.0, 0.5, 0.5]),       # ... reflected: ambiguous
            rng.standard_normal((3, 3)),
            -rot @ np.diag([2.0, 1.0, 0.25]),      # reflection, distinct values
        ])

    def test_rows_match_quaternion_oracle(self):
        stack = self.mixed_stack()
        rots, _ = nearest_rotations(stack)
        for i, (r, m) in enumerate(zip(rots, stack)):
            np.testing.assert_allclose(r.T @ r, np.eye(3), atol=1e-9)
            assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-9)
            _, oracle_val = max_trace_rotation(m, seed=i)
            assert np.trace(r.T @ m) >= oracle_val - 1e-6

    def test_rows_match_one_matrix_loop(self):
        # reference: the per-matrix Kabsch projection and its uniqueness rules
        stack = self.mixed_stack()
        rots, unique = nearest_rotations(stack)
        for m, r, flag in zip(stack, rots, unique):
            u, s, vt = np.linalg.svd(m)
            tol = 1e-12 * max(s[0], 1.0)
            if np.linalg.det(u) * np.linalg.det(vt) < 0:
                ref, ref_flag = u @ np.diag([1.0, 1.0, -1.0]) @ vt, s[1] - s[2] > tol
            else:
                ref, ref_flag = u @ vt, s[2] > tol
            np.testing.assert_array_equal(r, ref)
            assert flag == ref_flag
        assert unique.tolist() == [True, True, False, False, True, False, True,
                                   True]

    def test_nan_in_one_row_rejected(self):
        stack = self.mixed_stack()
        stack[3, 1, 2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            nearest_rotations(stack)

    @pytest.mark.parametrize("shape, got", [((3, 3), r"\(3, 3\)"),
                                            ((2, 3, 4), r"\(2, 3, 4\)")])
    def test_non_stack_rejected(self, shape, got):
        with pytest.raises(ValueError, match=r"expected an \(N, 3, 3\) stack, got " + got):
            nearest_rotations(np.ones(shape))


def random_rotation(rng):
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    return q * np.sign(np.linalg.det(q))


def polar_test_matrix(kind, seed, scale):
    """One 3x3 matrix of the given kind, times ``scale``."""
    rng = np.random.default_rng(seed)
    rot = random_rotation(rng)
    s = np.sort(rng.uniform(0.1, 3.0, 3))[::-1]
    m = {
        "rotation": rot,
        "near-rotation": rot @ (np.eye(3) + 1e-4 * rng.standard_normal((3, 3))),
        "random": rng.standard_normal((3, 3)),
        "reflection": -rot @ np.diag(s),
        "rank-deficient": rot @ np.diag([s[0], s[1] * rng.integers(2), 0.0])
        @ random_rotation(rng),
        "tied-spectrum": rng.choice([-1.0, 1.0]) * rot @ np.diag([s[0], s[2], s[2]]),
    }[kind]
    return scale * m


polar_stacks = st.lists(
    st.tuples(st.sampled_from(["rotation", "near-rotation", "random", "reflection",
                               "rank-deficient", "tied-spectrum"]),
              st.integers(0, 2 ** 32 - 1), st.sampled_from([1.0, 1e-9, 1e9])),
    min_size=1, max_size=12).map(
        lambda rows: np.stack([polar_test_matrix(*row) for row in rows]))


def with_linear_parts(m):
    blocks = np.ones((len(m), 3, 4))
    blocks[:, :, :3] = m
    return TransformStack(blocks)


class TestProjectRotations:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=300, deadline=None)
    @given(polar_stacks)
    def test_matches_svd(self, m):
        r = project_rotations(with_linear_parts(m))
        ref, unique = nearest_rotations(m)
        m0 = m.copy()
        _, fast = _newton_polar(m)
        np.testing.assert_array_equal(m, m0)
        assert np.abs(r.transpose(0, 2, 1) @ r - np.eye(3)).max() <= 1e-12
        assert np.abs(np.linalg.det(r) - 1.0).max() <= 1e-12
        np.testing.assert_allclose(r[unique], ref[unique], rtol=0, atol=1e-12)
        np.testing.assert_array_equal(r[~fast], ref[~fast])
        # every proper, well-conditioned row converges on the fast path,
        # whatever its scale
        proper = (np.linalg.det(m) > 0) & (np.linalg.cond(m, "fro") <= _POLAR_COND / 2)
        assert fast[proper].all()

    @pytest.mark.parametrize("n", [1, 50])
    def test_inputs_left_untouched(self, n):
        # the (9, N) layout is a view of a contiguous stack (at N = 1 of any
        # stack): neither function writes through it; the rows are scaled so
        # that normalizing them changes every value
        rng = np.random.default_rng(n)
        blocks = 3.0 * rng.standard_normal((n, 3, 4))
        X = TransformStack(blocks.copy())
        m = np.ascontiguousarray(X.linear_parts())
        m0 = m.copy()
        _newton_polar(m)
        _newton_polar(X.linear_parts())
        project_rotations(X)
        np.testing.assert_array_equal(m, m0)
        np.testing.assert_array_equal(X.blocks, blocks)

    def test_scaled_iteration_settles_in_few_steps(self, monkeypatch):
        # the zeta scaling brings any scale and any Frobenius condition number
        # up to _POLAR_COND within 8 steps (the unscaled iteration needs 14)
        import nrreg.operators
        rng = np.random.default_rng(5)
        spectra = [[1, 1, 1], [1, 1e-1, 1e-2], [1, 1e-2, 2e-3], [1, 1, 2.5e-3],
                   [1, 1.5e-3, 1.5e-3], [2, 1, 0.5]]
        m = np.stack([scale * random_rotation(rng) @ np.diag(s) @ random_rotation(rng)
                      for s in spectra for scale in (1e-9, 1.0, 1e9)])
        assert np.linalg.cond(m, "fro").max() <= _POLAR_COND
        monkeypatch.setattr(nrreg.operators, "_POLAR_STEPS", 8)
        r, fast = _newton_polar(m)
        assert fast.all()
        np.testing.assert_allclose(r, nearest_rotations(m)[0], rtol=0, atol=1e-12)

    def test_mixed_stack_trace_optimal(self):
        stack = TestNearestRotations.mixed_stack()
        rots = project_rotations(with_linear_parts(stack))
        _, fast = _newton_polar(stack)
        # the proper rows are solved by the iteration, the others by the SVD
        assert fast.tolist() == (np.linalg.det(stack) > 0).tolist() == [
            True, True, False, False, True, False, False, False]
        np.testing.assert_array_equal(rots[~fast], nearest_rotations(stack)[0][~fast])
        for i, (r, m) in enumerate(zip(rots, stack)):
            assert np.abs(r.T @ r - np.eye(3)).max() <= 1e-12
            _, oracle_val = max_trace_rotation(m, seed=i)
            assert np.trace(r.T @ m) >= oracle_val - 1e-6

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_row_rejected(self, bad):
        stack = TestNearestRotations.mixed_stack()
        stack[1, 2, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            project_rotations(with_linear_parts(stack))

    def test_bend_rows_never_fall_back(self, bend_instance, monkeypatch):
        # every projection of one bend registration runs on the fast path
        # and agrees with the SVD
        import nrreg.solver
        seen = []

        def recording(X):
            r = project_rotations(X)
            seen.append((X.linear_parts().copy(), r))
            return r

        monkeypatch.setattr(nrreg.solver, "project_rotations", recording)
        b = bend_instance
        res = register(b["template"], b["target"], b["landmarks"], b["cfg"])
        assert res.converged
        assert len(seen) == sum(e["inner"] for e in res.log)
        for m, r in seen:
            assert _newton_polar(m)[1].all()
            np.testing.assert_allclose(r, nearest_rotations(m)[0], rtol=0, atol=1e-12)


class TestFactorizeAndSolve:
    def test_single_matched_vertex_no_edges_singular(self):
        structure = SystemStructure([[1.0, 2.0, 3.0]], np.empty((0, 2), np.int64))
        corr = CorrespondenceMap(np.array([1]))
        sys_ = assemble_system(structure, corr, np.array([[4.0, 5.0, 6.0]]))
        with pytest.raises(SingularSystemError) as exc:
            factorize_system(1.0, 1.0, 0.0, sys_)
        assert 0 in exc.value.vertex_blocks

    def test_single_vertex_with_rotation_penalty_positive_definite(self):
        # the homogeneous 1 couples the translation row, so v v^T + the
        # linear-part selector is full rank (dense eigenvalue oracle)
        structure = SystemStructure([[1.0, 2.0, 3.0]], np.empty((0, 2), np.int64))
        corr = CorrespondenceMap(np.array([1]))
        sys_ = assemble_system(structure, corr, np.array([[4.0, 5.0, 6.0]]))
        a = sparse_product_system_matrix(1.0, 1.0, 1.0, sys_).toarray()
        assert np.linalg.eigvalsh(a).min() > 1e-6
        handle = factorize_system(1.0, 1.0, 1.0, sys_)
        rhs = np.random.default_rng(0).standard_normal((4, 3))
        x = handle.solve(rhs)
        np.testing.assert_allclose(a @ x, rhs, atol=1e-10)

    def test_unmatched_isolated_vertex_reported(self):
        verts = random_cloud(5, seed=6)
        edges = np.array([[0, 1], [1, 0], [1, 2], [2, 1], [2, 0], [0, 2]])
        corr = CorrespondenceMap(np.array([1, 2, 3, 0, 0]))   # 3, 4 isolated
        sys_ = assemble_system(SystemStructure(verts, edges), corr, verts)
        with pytest.raises(SingularSystemError) as exc:
            factorize_system(1.0, 1.0, 0.0, sys_)
        assert {3, 4} <= set(exc.value.vertex_blocks)

    def test_condensed_singular_reason(self):
        # with the rotation penalty the 3x3 blocks are definite, so the
        # condensed factorization meets the isolated unmatched vertices'
        # positions, whose rows are exactly zero
        verts = random_cloud(5, seed=6)
        edges = np.array([[0, 1], [1, 0], [1, 2], [2, 1], [2, 0], [0, 2]])
        corr = CorrespondenceMap(np.array([1, 2, 3, 0, 0]))
        sys_ = assemble_system(SystemStructure(verts, edges), corr, verts)
        with pytest.raises(SingularSystemError) as exc:
            factorize_system(1.0, 1.0, 0.2, sys_)
        assert str(exc.value) == ("singular system: Factor is exactly singular; "
                                  "suspect vertex blocks [3, 4]")

    def test_random_connected_matches_dense_oracle(self):
        for seed in range(5):
            sys_ = small_system(n=20, seed=seed)
            a = sparse_product_system_matrix(2.0, 3.0, 0.5, sys_)
            handle = factorize_system(2.0, 3.0, 0.5, sys_)
            rhs = np.random.default_rng(seed).standard_normal((80, 3))
            x = handle.solve(rhs)
            dense = np.linalg.solve(a.toarray(), rhs)
            np.testing.assert_allclose(x, dense, atol=1e-8)
            res = np.linalg.norm(a @ x - rhs) / np.linalg.norm(rhs)
            assert res < 1e-8

    def test_solve_recovers_known_solution(self):
        sys_ = small_system(n=15, seed=3)
        a = sparse_product_system_matrix(1.0, 1.0, 0.2, sys_)
        x0 = np.random.default_rng(2).standard_normal((60, 3))
        handle = factorize_system(1.0, 1.0, 0.2, sys_)
        x = solve_X(handle, a @ x0)
        np.testing.assert_allclose(x.stacked, x0, atol=1e-9)

    def test_zero_rhs_zero_solution(self):
        sys_ = small_system(n=10, seed=4)
        handle = factorize_system(1.0, 1.0, 0.2, sys_)
        x = solve_X(handle, np.zeros((40, 3)))
        np.testing.assert_allclose(x.stacked, 0.0, atol=1e-12)

    def test_non_finite_solution_raises(self):
        # a NaN right-hand-side row reaches every unknown of its component:
        # the solve names the system, it returns no NaN transforms
        sys_ = small_system(n=10, seed=4)
        rhs = np.zeros((40, 3))
        rhs[5, 1] = np.nan
        handle = factorize_system(1.0, 1.0, 0.2, sys_)
        with pytest.raises(SingularSystemError, match="solve produced non-finite values"):
            handle.solve(rhs)

    def test_rhs_row_count_checked(self):
        handle = factorize_system(1.0, 1.0, 0.2, small_system(n=10, seed=4))
        with pytest.raises(ValueError, match="rhs has 36 rows, expected 40"):
            handle.solve(np.zeros((36, 3)))

    def test_invalid_penalties_rejected(self):
        sys_ = small_system(n=5, seed=5)
        with pytest.raises(ValueError):
            factorize_system(0.0, 1.0, 0.1, sys_)
        with pytest.raises(ValueError):
            factorize_system(1.0, 1.0, -0.1, sys_)


class TestSTerms:
    def test_extractor_identity_linear_part(self):
        block = np.hstack([np.eye(3), np.array([[0.4], [0.5], [0.6]])])
        x = TransformStack(block[None])
        np.testing.assert_allclose(x.linear_parts()[0], np.eye(3))

    def test_finite_difference_gradient_of_quadratic_model(self):
        # the assembled normal equations must be the exact gradient of the
        # penalized objective; rotation term enters with coefficient 2*beta
        sys_ = small_system(n=8, seed=7)
        mu1, mu2, beta = 1.7, 2.3, 0.6
        rng = np.random.default_rng(11)
        rot = np.stack([nearest_rotations(rng.standard_normal((3, 3))[None])[0][0]
                        for _ in range(8)])
        c = rng.standard_normal((8, 3))
        a_aux = rng.standard_normal((len(sys_.w_smooth), 3))
        y1 = rng.standard_normal((8, 3))
        y2 = rng.standard_normal((len(sys_.w_smooth), 3))
        v = data_operator(sys_.structure.vh)

        def objective(x_flat):
            x = x_flat.reshape(32, 3)
            g1 = sys_.w_data[:, None] * (v @ x - sys_.U_f)
            g2 = sys_.w_smooth[:, None] * (sys_.structure.B @ x)
            lin = TransformStack.from_stacked(x).linear_parts()
            return (beta * np.sum((lin - rot) ** 2)
                    + mu1 / 2 * np.sum((c - g1 + y1 / mu1) ** 2)
                    + mu2 / 2 * np.sum((a_aux - g2 + y2 / mu2) ** 2))

        a_mat = sparse_product_system_matrix(mu1, mu2, 2.0 * beta, sys_)
        wU = sys_.w_data[:, None] * sys_.U_f
        rhs = v.T @ (sys_.w_data[:, None] * (y1 + mu1 * (c + wU))) \
            + sys_.structure.B.T @ (sys_.w_smooth[:, None] * (y2 + mu2 * a_aux))
        # rotation term: 2*beta R_i^T in rows 0-2 of block i, as admm_solve adds it
        rhs.reshape(8, 4, 3)[:, :3] += 2.0 * beta * rot.transpose(0, 2, 1)
        x0 = rng.standard_normal(96)
        grad_analytic = (a_mat @ x0.reshape(32, 3) - rhs).ravel()
        eps = 1e-6
        grad_fd = np.empty(96)
        for i in range(96):
            up = x0.copy(); up[i] += eps
            dn = x0.copy(); dn[i] -= eps
            grad_fd[i] = (objective(up) - objective(dn)) / (2 * eps)
        scale = max(np.abs(grad_fd).max(), 1.0)
        assert np.abs(grad_fd - grad_analytic).max() / scale < 1e-5


class TestSystemInvariants:
    def test_system_matrix_symmetric(self):
        sys_ = small_system(n=12, seed=8)
        a = sparse_product_system_matrix(1.0, 2.0, 0.3, sys_)
        assert abs(a - a.T).max() < 1e-12

    def test_unmatched_rows_zero_weight(self):
        verts = random_cloud(6, seed=9)
        edges = knn_edges(verts, 2)
        corr = CorrespondenceMap(np.array([1, 0, 3, 0, 5, 0]))
        sys_ = assemble_system(SystemStructure(verts, edges), corr, verts)
        assert np.all(sys_.w_data[~corr.matched] == 0)
        assert np.all(sys_.U_f[~corr.matched] == 0)

    @pytest.mark.parametrize("name", ["structure", "U_f", "w_data", "w_smooth"])
    def test_system_frozen(self, name):
        # new weights arrive only through replace, so they never meet the
        # penalty basis cached for the old ones
        sys_ = small_system(n=6, seed=3)
        with pytest.raises(FrozenInstanceError):
            setattr(sys_, name, getattr(sys_, name))

    def test_system_forwards_nothing(self):
        # the structure's arrays are read from the structure alone
        assert not [k for k, v in vars(SystemMatrices).items()
                    if isinstance(v, property)]

    def test_transform_stack_shape_checked(self):
        with pytest.raises(ValueError,
                           match=r"blocks must be \(N, 3, 4\), got \(2, 3, 3\)"):
            TransformStack(np.zeros((2, 3, 3)))

    def test_transform_stack_roundtrip(self):
        blocks = np.random.default_rng(10).standard_normal((7, 3, 4))
        x = TransformStack(blocks)
        back = TransformStack.from_stacked(x.stacked)
        np.testing.assert_allclose(back.blocks, blocks)

    def test_apply_matches_stacked_product(self):
        verts = random_cloud(7, seed=11)
        x = TransformStack(np.random.default_rng(12).standard_normal((7, 3, 4)))
        v = data_operator(homogeneous(verts))
        np.testing.assert_allclose(x.apply(verts), v @ x.stacked, atol=1e-12)

    def test_apply_rejects_vertex_count_mismatch(self):
        # one block is not broadcast over every vertex
        with pytest.raises(ValueError, match="7 vertices for 1 transforms"):
            TransformStack.identity(1).apply(random_cloud(7, seed=11))

    @pytest.mark.parametrize("variant", ["dual_sparse", "l2"])
    def test_transposed_views_bit_equal(self, bend_instance, variant):
        # the right-hand side's transposed view of B gives the product bit
        # for bit as an explicit CSR transpose, on the final bend systems;
        # the structure stores no transpose of its own
        b = bend_instance
        st_ = register(b["template"], b["target"], b["landmarks"],
                       replace(b["cfg"], variant=variant)).final_system.structure
        rng = np.random.default_rng(13)
        y = rng.standard_normal((st_.B.shape[0], 3))
        assert np.array_equal(st_.B.T @ y, st_.B.T.tocsr() @ y)
        assert not {"VT", "BT"} & set(dir(st_))

    @pytest.mark.parametrize("variant", ["dual_sparse", "l2"])
    def test_data_transpose_bit_equal_to_sparse_product(self, bend_instance,
                                                        variant):
        # V^T a has one product per entry: the structure forms the entries
        # scipy's V^T @ a forms bit for bit, zeros' signs included, on the
        # final bend systems (whose unmatched rows hold zeros), and the
        # structure holds no V
        b = bend_instance
        sys_ = register(b["template"], b["target"], b["landmarks"],
                        replace(b["cfg"], variant=variant)).final_system
        st_ = sys_.structure
        v = data_operator(st_.vh)
        a = np.random.default_rng(14).standard_normal((st_.n, 3))
        for y in (a, sys_.w_data[:, None] * sys_.U_f):
            assert np.array_equal(st_.data_transpose(y).view(np.int64),
                                  (v.T @ y).view(np.int64))
        assert not hasattr(st_, "V")

    def test_removed_data_operator_not_exported(self):
        import nrreg
        import nrreg.operators
        assert not hasattr(nrreg, "assemble_V")
        assert not hasattr(nrreg.operators, "assemble_V")


# coordinates drawn partly from a coarse set, so exact zeros (and the entries
# they zero out of K_D and K_S) occur often
_coords = st.one_of(st.sampled_from([0.0, -1.0, 0.5, 2.0]),
                    st.floats(-3.0, 3.0, allow_nan=False))


@st.composite
def weighted_systems(draw):
    """A small system with unmatched vertices, vertices without edges,
    duplicate, reversed and self-loop edges, zero smoothness weights and
    exact-zero coordinates, plus the penalties (mu1, mu2, beta)."""
    n = draw(st.integers(1, 7))
    verts = np.array(draw(st.lists(st.tuples(_coords, _coords, _coords),
                                   min_size=n, max_size=n)))
    edges = np.array(draw(st.lists(st.tuples(st.integers(0, n - 1),
                                             st.integers(0, n - 1)),
                                   max_size=3 * n)), dtype=np.int64).reshape(-1, 2)
    matched = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    w_data = draw(st.lists(st.floats(0.01, 100.0), min_size=n, max_size=n))
    w_smooth = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.01, 100.0)),
                             min_size=len(edges), max_size=len(edges)))
    corr = CorrespondenceMap(np.where(matched, np.arange(1, n + 1), 0))
    sys_ = replace(assemble_system(SystemStructure(verts, edges), corr, verts),
                   w_data=np.asarray(w_data) * corr.matched,
                   w_smooth=np.asarray(w_smooth, dtype=np.float64))
    mu1, mu2 = draw(st.floats(0.1, 1e3)), draw(st.floats(0.1, 1e3))
    beta = draw(st.one_of(st.just(0.0), st.floats(1e-3, 10.0)))
    return sys_, verts, edges, mu1, mu2, beta


def dense_system_matrix(mu1, mu2, beta, verts, edges, w_data, w_smooth):
    """mu1 V^T W_D^2 V + mu2 B^T W_S^2 B + beta S from dense V and B."""
    n = len(verts)
    vh = np.hstack([verts, np.ones((n, 1))])
    V = np.zeros((n, 4 * n))
    B = np.zeros((len(edges), 4 * n))
    for i in range(n):
        V[i, 4 * i:4 * i + 4] = vh[i]
    for r, (i, j) in enumerate(edges):
        B[r, 4 * i:4 * i + 4] += vh[i]
        B[r, 4 * j:4 * j + 4] -= vh[i]
    return (mu1 * V.T @ (w_data[:, None] ** 2 * V)
            + mu2 * B.T @ (w_smooth[:, None] ** 2 * B)
            + beta * np.diag(np.tile([1.0, 1.0, 1.0, 0.0], n)))


class TestFixedPatternSystemMatrix:
    @settings(max_examples=300, deadline=None)
    @given(weighted_systems())
    def test_matches_sparse_products_and_dense_oracle(self, case):
        # the sparse-product reference the tests use for the 4N x 4N matrix
        sys_, verts, edges, mu1, mu2, beta = case
        a = sparse_product_system_matrix(mu1, mu2, beta, sys_)
        assert a.format == "csc" and a.has_canonical_format
        # the singular report's reference reads empty columns: no explicit zeros
        assert np.all(a.data != 0)
        dense = dense_system_matrix(mu1, mu2, beta, verts, edges,
                                    sys_.w_data, sys_.w_smooth)
        scale = max(np.abs(dense).max(), 1.0)
        assert np.abs(a.toarray() - dense).max() <= 1e-12 * scale
        assert (a != a.T).nnz == 0

    def test_strip_matches_sparse_products(self):
        # the factorization solves the sparse-product matrix on a strip, up
        # to penalties as large as the inner loop reaches
        template = make_strip(12, 5, 0.1, relief=0.5)
        rng = np.random.default_rng(3)
        n = template.n_vertices
        corr = CorrespondenceMap(np.where(rng.random(n) < 0.8,
                                          np.arange(1, n + 1), 0))
        sys_ = replace(assemble_system(SystemStructure(template.vertices,
                                                       template.edges),
                                       corr, template.vertices),
                       w_data=(rng.random(n) + 0.01) * corr.matched,
                       w_smooth=rng.random(len(template.edges)) + 0.01)
        x0 = rng.standard_normal((4 * n, 3))
        for mu1, mu2, beta in [(1.0, 1.0, 0.0), (3.5, 0.7, 0.2),
                               (2.0 ** 17, 2.0 ** 17, 0.2)]:
            a = sparse_product_system_matrix(mu1, mu2, beta, sys_)
            b = a @ x0
            x = factorize_system(mu1, mu2, beta, sys_).solve(b)
            scale = sp.linalg.norm(a) * np.linalg.norm(x) + np.linalg.norm(b)
            assert np.linalg.norm(a @ x - b) <= 1e-14 * scale

    def test_new_weights_never_meet_old_values(self):
        # a system with new weights factorizes its own matrix, not the one
        # of the system it was replaced from, on the same structure
        sys_ = small_system(n=10, seed=12)
        rhs = np.random.default_rng(14).standard_normal((40, 3))
        first = factorize_system(1.0, 2.0, 0.3, sys_).solve(rhs)
        rng = np.random.default_rng(13)
        for changed in (replace(sys_, w_data=sys_.w_data * rng.random(10)),
                        replace(sys_, w_smooth=rng.random(len(sys_.w_smooth)))):
            x = factorize_system(1.0, 2.0, 0.3, changed).solve(rhs)
            a = sparse_product_system_matrix(1.0, 2.0, 0.3, changed)
            np.testing.assert_allclose(a @ x, rhs, atol=1e-9)
            assert not np.allclose(x, first)
        assert changed.structure is sys_.structure

    @settings(max_examples=300, deadline=None)
    @given(weighted_systems())
    def test_penalty_basis_matches_transformed_matrix(self, case):
        # oracle: K_S = T^T (B^T W_S^2 B) T from sparse products, for the
        # change x_i = T_i z_i to node-relative unknowns z_i = (a_i, p_i);
        # the basis built from the edges holds its linear-part blocks, its
        # couple entries (p_r, a_j) and its (p, p) entries, and nothing else
        sys_ = case[0]
        st_ = sys_.structure
        n = st_.n
        t = np.zeros((n, 4, 4))
        t[:, :3, :3] = np.eye(3)
        t[:, 3, :3] = -st_.vh[:, :3]
        t[:, 3, 3] = 1.0
        t = sp.block_diag(list(t)).toarray()
        ks = t.T @ sparse_product_system_matrix(0.0, 1.0, 0.0, sys_).toarray() @ t
        tol = 1e-12 * np.abs(ks).max()
        blocks = ks.reshape(n, 4, n, 4)
        diag = np.arange(n)
        basis = sys_.penalty_basis
        linear = blocks[diag, :3, diag, :3]
        q = basis.lift[:, :3]
        eig = q @ (basis.lam.T[:, :, None] * q.transpose(0, 2, 1))
        assert np.abs(eig - linear).max() <= tol
        # H holds Q_j^T g column dN + j; Q_j is orthogonal
        h = basis.H.toarray().reshape(n, 3, n)
        couple = np.einsum("jcd,rdj->rjc", q, h)
        assert np.abs(couple - blocks[:, 3, :, :3]).max() <= tol
        width = st_.bandwidth + 1
        pos, below = np.divmod(st_.pp_band, width)
        u, v = st_.order[pos], st_.order[pos + below]
        pp = np.zeros((n, n))
        pp[u, v] = pp[v, u] = basis.ks_pp
        assert np.abs(pp - blocks[:, 3, :, 3]).max() <= tol

    def test_structure_blocks(self):
        # one couple entry and one (p, p) entry per vertex, isolated ones
        # included, one couple entry (i, j) per distinct edge and one (p, p)
        # entry per distinct vertex pair; self-loops add nothing
        verts = random_cloud(5, seed=16)
        edges = np.array([[0, 1], [1, 0], [0, 1], [2, 3], [4, 4]])
        st_ = SystemStructure(verts, edges)
        np.testing.assert_array_equal(st_.edge_rows, [0, 1, 2, 3])
        # couple entries keyed jN + r: (0, 0), (1, 0), (0, 1), (1, 1),
        # (2, 2), (2, 3), (3, 3), (4, 4)
        np.testing.assert_array_equal(st_.couple_col, [0, 0, 1, 1, 2, 3, 3, 4])
        np.testing.assert_array_equal(st_.edge_couple, [[3, 0, 3, 6], [2, 1, 2, 5]])
        # (p, p) entries: the five vertex diagonals, then (0, 1) and (2, 3)
        np.testing.assert_array_equal(st_.edge_pp, [[0, 1, 0, 2], [1, 0, 1, 3],
                                                    [5, 5, 5, 6]])
        assert len(st_.pp_band) == 5 + 2


def singular_rule_4n(mu1, mu2, beta, sys):
    """The singular report's reason and rank-deficient vertex blocks as read
    off the 4N x 4N sparse-product matrix: exactly singular when a column
    is empty, and the 4x4 diagonal blocks of rank < 4 at 1e-10 times the
    largest diagonal entry (at least 1)."""
    a = sparse_product_system_matrix(mu1, mu2, beta, sys)
    exact = np.any(np.diff(a.indptr) == 0)
    tol = 1e-10 * a.diagonal().max(initial=1.0)
    dense = a.toarray()
    suspects = [i for i in range(sys.structure.n) if np.linalg.matrix_rank(
        dense[4 * i:4 * i + 4, 4 * i:4 * i + 4], tol=tol) < 4]
    return ("Factor is exactly singular" if exact else "zero pivot"), suspects


class TestSingularReport:
    @settings(max_examples=300, deadline=None)
    @given(weighted_systems())
    def test_reason_and_suspects_match_4n_rule(self, case):
        # the report sums the 4x4 diagonal blocks from the edges; it words
        # its reason and names its suspects as the 4N x 4N matrix would
        sys_, _, _, mu1, mu2, beta = case
        reason, suspects = singular_rule_4n(mu1, mu2, beta, sys_)
        bad = _unanchored_vertices(sys_) or suspects
        err = _singular(mu1, mu2, beta, sys_)
        assert str(err) == f"singular system: {reason}; suspect vertex blocks {bad}"
        assert err.vertex_blocks == tuple(bad)
        # the rank test on its own, also where a component is unanchored
        with mock.patch("nrreg.operators._unanchored_vertices", return_value=[]):
            assert _singular(mu1, mu2, beta, sys_).vertex_blocks == tuple(suspects)


def condensed_bandwidths(edges, n):
    """Bandwidths of the condensed N x N pattern in scipy's reverse
    Cuthill-McKee order of its upper triangle and in the input order, read
    off the edges: rows r and r' couple when each is j or the first
    endpoint of an edge (., j), for some column j."""
    e = edges[edges[:, 0] != edges[:, 1]]
    rows = np.r_[np.arange(n), e[:, 0]]
    cols = np.r_[np.arange(n), e[:, 1]]
    col = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    pattern = (col @ col.T).tocoo()

    def width(order):
        position = np.argsort(order)
        return int(np.abs(position[pattern.row] - position[pattern.col]).max())

    return width(reverse_cuthill_mckee(sp.triu(pattern).tocsr())), width(np.arange(n))


class TestBlockOrdering:
    def test_order_is_block_permutation_built_once(self, bend_instance,
                                                   monkeypatch):
        # one band order of the condensed N x N pattern per registration,
        # however many factorizations the inner loop runs: the narrower of
        # its reverse Cuthill-McKee order and the input order; SystemStructure
        # imports the RCM order from scipy where it is built
        import scipy.sparse.csgraph
        import nrreg.solver
        counts = {"order": 0, "factorize": 0}
        order_fn = scipy.sparse.csgraph.reverse_cuthill_mckee
        factorize = nrreg.solver.factorize_system

        def counted_order(*args):
            counts["order"] += 1
            return order_fn(*args)

        def counted_factorize(*args):
            counts["factorize"] += 1
            return factorize(*args)

        monkeypatch.setattr(scipy.sparse.csgraph, "reverse_cuthill_mckee",
                            counted_order)
        monkeypatch.setattr(nrreg.solver, "factorize_system", counted_factorize)
        b = bend_instance
        res = register(b["template"], b["target"], b["landmarks"],
                       replace(b["cfg"], outer_iters=2))
        assert counts["order"] == 1
        assert counts["factorize"] == sum(e["inner"] for e in res.log) > 1
        st_ = res.final_system.structure
        n = st_.n
        np.testing.assert_array_equal(np.sort(st_.order), np.arange(n))
        assert st_.bandwidth == min(condensed_bandwidths(st_.edges, n))
        # the same strip, its vertices relabelled: RCM's band is narrower
        perm = np.random.default_rng(26).permutation(n)
        label = np.argsort(perm)
        relabelled = SystemStructure(st_.vh[perm, :3], label[st_.edges])
        rcm, natural = condensed_bandwidths(relabelled.edges, n)
        assert relabelled.bandwidth == rcm < natural
        assert not np.array_equal(relabelled.order, np.arange(n))
        for s in (st_, relabelled):
            # each condensed entry has its own slot of the (bandwidth + 1, N)
            # band, vertex diagonals on the band's first row
            width = s.bandwidth + 1
            assert len(np.unique(s.band_index)) == len(s.band_index)
            assert s.band_index.max() < width * n
            np.testing.assert_array_equal(s.pp_band[:n], width * np.argsort(s.order))

    @settings(max_examples=300, deadline=None)
    @given(weighted_systems())
    def test_solve_matches_dense_solve(self, case):
        # isolated and unmatched vertices, self-loops, duplicate edges and
        # zero weights: the permuted factorization solves in vertex order
        sys_, verts, edges, mu1, mu2, beta = case
        dense = sparse_product_system_matrix(mu1, mu2, beta, sys_).toarray()
        rhs = np.random.default_rng(0).standard_normal((len(dense), 3))
        eig = np.linalg.eigvalsh(dense)
        try:
            x = factorize_system(mu1, mu2, beta, sys_).solve(rhs)
        except SingularSystemError:
            # the matrix is PSD, so no pivot falls below its smallest
            # eigenvalue: a rejected pivot bounds it
            assert eig[0] <= 1e-10 * max(eig[-1], 1.0)
            return
        # two backward-stable solves differ by about cond * eps, so 1e-8
        # relative up to a condition number near 1e6, and more beyond it
        cond = eig[-1] / eig[0] if eig[0] > 0 else np.inf
        ref = np.linalg.solve(dense, rhs)
        assert np.linalg.norm(x - ref) <= (1e-8 + 1e-14 * cond) * np.linalg.norm(ref)
        residual = np.linalg.norm(dense @ x - rhs)
        assert residual <= 1e-10 * (eig[-1] * np.linalg.norm(x) + np.linalg.norm(rhs))

    def test_singular_names_original_vertices(self):
        # isolated unmatched vertices at the front of the vertex order, which
        # the reverse Cuthill-McKee order moves to the end
        verts = random_cloud(12, seed=21)
        knn = knn_edges(verts[3:], 4) + 3
        edges = np.unique(np.concatenate([knn, knn[:, ::-1]]), axis=0)
        corr = CorrespondenceMap(np.r_[0, 0, 0, np.arange(4, 13)])
        sys_ = assemble_system(SystemStructure(verts, edges), corr, verts)
        position = np.argsort(sys_.structure.order)
        assert np.all(position[:3] >= 9)
        with pytest.raises(SingularSystemError) as exc:
            factorize_system(1.0, 1.0, 0.0, sys_)
        assert exc.value.vertex_blocks == (0, 1, 2)
        assert "suspect vertex blocks [0, 1, 2]" in str(exc.value)

    def test_fill_no_worse_than_per_call_colamd(self):
        # oracle: SuperLU's default COLAMD order of the scalar columns,
        # computed per call on the vertex-order matrix; the band's
        # (bandwidth + 1) N slots hold no more than its L + U
        template = make_strip(20, 20, 0.1, relief=0.5)
        n = template.n_vertices
        rng = np.random.default_rng(22)
        corr = CorrespondenceMap(np.where(rng.random(n) < 0.8,
                                          np.arange(1, n + 1), 0))
        sys_ = replace(assemble_system(SystemStructure(template.vertices,
                                                       template.edges),
                                       corr, template.vertices),
                       w_data=(rng.random(n) + 0.01) * corr.matched,
                       w_smooth=rng.random(len(template.edges)) + 0.01)
        for mu1, mu2, beta in [(1.0, 1.0, 0.2), (2.0 ** 10, 2.0 ** 10, 0.2)]:
            band = factorize_system(mu1, mu2, beta, sys_)._band
            assert band.shape == (sys_.structure.bandwidth + 1, n)
            ref = splu(sparse_product_system_matrix(mu1, mu2, beta, sys_),
                       diag_pivot_thresh=0.0, options={"SymmetricMode": True})
            assert band.size <= ref.L.nnz + ref.U.nnz

    def test_exact_zeros_leave_pattern_intact(self, monkeypatch):
        # exact-zero entries: every factorization scatters into a band of its
        # own through the shared, read-only band index and band rows, which
        # stay intact, and a second factorization solves the same;
        # factorize_system imports dpbtrf from scipy where it factorizes
        import scipy.linalg.lapack
        verts = random_cloud(12, seed=23)
        verts[:, 2] = 0.0
        edges = knn_edges(verts, 4)
        sys_ = assemble_system(SystemStructure(verts, edges),
                               CorrespondenceMap(np.arange(1, 13)), verts)
        st_ = sys_.structure
        n_blocks = 2 * len(st_.pp_band) - 12    # 12 diagonals, 2 per vertex pair
        assert sparse_product_system_matrix(1.0, 1.0, 0.3, sys_).nnz < 16 * n_blocks
        index, rows = st_.band_index.copy(), st_.pair_rows.copy()
        factored = []
        monkeypatch.setattr(scipy.linalg.lapack, "dpbtrf", lambda ab, **kw:
                            factored.append(ab) or dpbtrf(ab, **kw))
        rhs = np.random.default_rng(24).standard_normal((48, 3))
        first = factorize_system(1.0, 1.0, 0.3, sys_).solve(rhs)
        second = factorize_system(1.0, 1.0, 0.3, sys_).solve(rhs)
        np.testing.assert_array_equal(first, second)
        assert len(factored) == 2
        for ab in factored:
            assert ab.shape == (st_.bandwidth + 1, 12)
            assert ab.flags.f_contiguous
        assert not np.shares_memory(*factored)
        np.testing.assert_array_equal(st_.band_index, index)
        np.testing.assert_array_equal(st_.pair_rows, rows)
        with pytest.raises(ValueError):
            st_.band_index[0] = 1
        with pytest.raises(ValueError):
            st_.pair_rows[0] = 1
        dense = sparse_product_system_matrix(1.0, 1.0, 0.3, sys_).toarray()
        np.testing.assert_allclose(dense @ first, rhs, atol=1e-9)


def weighted_mesh_system(nx, ny):
    """A relief mesh with 80 % of its vertices matched and random data and
    smoothness weights."""
    template = make_strip(nx, ny, 0.1, relief=0.5)
    n = template.n_vertices
    rng = np.random.default_rng(3)
    corr = CorrespondenceMap(np.where(rng.random(n) < 0.8, np.arange(1, n + 1), 0))
    sys_ = assemble_system(SystemStructure(template.vertices, template.edges),
                           corr, template.vertices)
    return replace(sys_, w_data=(rng.random(n) + 0.01) * corr.matched,
                   w_smooth=rng.random(len(template.edges)) + 0.01)


class TestCondensedSolve:
    @pytest.mark.parametrize("beta", [0.0, 0.2])
    @pytest.mark.parametrize("mu", [1.0, 2.0 ** 8, 2.0 ** 16])
    @pytest.mark.parametrize("grid", [(20, 8), (12, 12)], ids=["strip", "square"])
    def test_matches_block_order_oracle_and_dense_solve(self, grid, mu, beta):
        # the condensed N x N factorization against the 4N x 4N one it
        # replaced and against a dense solve, on strips and squares, with
        # and without the rotation penalty that keeps the 3x3 blocks definite
        sys_ = weighted_mesh_system(*grid)
        dense = sparse_product_system_matrix(mu, mu, beta, sys_).toarray()
        rhs = np.random.default_rng(0).standard_normal((len(dense), 3))
        handle = factorize_system(mu, mu, beta, sys_)
        x = handle.solve(rhs)
        oracle_solve, oracle_ratio = block_order_factorization(mu, mu, beta, sys_)
        eig = np.linalg.eigvalsh(dense)
        bound = 1e-8 + 1e-14 * eig[-1] / eig[0]
        ref = np.linalg.solve(dense, rhs)
        for got, want in [(x, ref), (oracle_solve(rhs), ref), (x, oracle_solve(rhs))]:
            assert np.linalg.norm(got - want) <= bound * np.linalg.norm(want)
        residual = np.linalg.norm(dense @ x - rhs)
        assert residual <= 1e-14 * (eig[-1] * np.linalg.norm(x) + np.linalg.norm(rhs))
        assert handle.pivot_ratio >= oracle_ratio

    def test_wide_band_on_square(self):
        # a 40 x 40 square's band is at least 32 wide, where LAPACK's banded
        # Cholesky runs blocked BLAS-3 (so a threaded BLAS takes part in the
        # factorization): the solve satisfies the 4N x 4N system
        sys_ = weighted_mesh_system(40, 40)
        assert sys_.structure.bandwidth >= 32
        a = sparse_product_system_matrix(1.0, 1.0, 0.2, sys_)
        rhs = np.random.default_rng(27).standard_normal((a.shape[0], 3))
        x = factorize_system(1.0, 1.0, 0.2, sys_).solve(rhs)
        ref = splu(a.tocsc()).solve(rhs)
        assert np.linalg.norm(x - ref) <= 1e-8 * np.linalg.norm(ref)
        assert np.linalg.norm(a @ x - rhs) <= 1e-10 * np.linalg.norm(rhs)

    @pytest.mark.parametrize("beta", [0.0, 0.2])
    def test_pivot_ratio_reads_ldlt_pivots(self, beta):
        # oracle, dense: T^T A T for x_i = T_i z_i, z_i = (a_i, p_i), its 3x3
        # linear-part blocks, and their Schur complement in p, factorized by
        # Cholesky in the structure's order: the pivots are L_ii^2 and the
        # blocks' eigenvalues beta + mu2 lambda times the structure's pivot
        # scale
        sys_ = weighted_mesh_system(12, 12)
        st_ = sys_.structure
        n = st_.n
        t = np.zeros((n, 4, 4))
        t[:, :3, :3] = np.eye(3)
        t[:, 3, :3] = -st_.vh[:, :3]
        t[:, 3, 3] = 1.0
        t = sp.block_diag(list(t)).toarray()
        a = sparse_product_system_matrix(2.0 ** 8, 2.0 ** 8, beta, sys_).toarray()
        a = t.T @ a @ t
        lin = (4 * np.arange(n)[:, None] + np.arange(3)).reshape(-1)
        pos = 4 * np.arange(n) + 3
        m = a[np.ix_(lin, lin)]
        schur = a[np.ix_(pos, pos)] - a[np.ix_(pos, lin)] @ np.linalg.solve(
            m, a[np.ix_(lin, pos)])
        diag = np.arange(n)
        blocks = np.linalg.eigvalsh(m.reshape(n, 3, n, 3)[diag, :, diag])
        pivots = np.concatenate([
            np.diag(np.linalg.cholesky(schur[np.ix_(st_.order, st_.order)])) ** 2,
            st_.pivot_scale * blocks.reshape(-1)])
        handle = factorize_system(2.0 ** 8, 2.0 ** 8, beta, sys_)
        ratio = pivots.min() / pivots.max()
        assert handle.pivot_ratio == pytest.approx(ratio, rel=1e-8)

    def test_nonpositive_eigenvalue_is_singular(self):
        # rounding can put an eigenvalue of a nearly rank-deficient linear
        # block below -beta / mu2: the factorization names the system
        # singular, never divides by it
        sys_ = weighted_mesh_system(12, 12)
        basis = sys_.penalty_basis
        assert basis is not sys_.structure.unit_penalty_basis
        factorize_system(1.0, 1.0, 0.0, sys_)
        basis.lam[0, 5] = -1e-17
        with pytest.raises(SingularSystemError, match="singular system"):
            factorize_system(1.0, 1.0, 0.0, sys_)

    @pytest.mark.parametrize("nx", [400, 800])
    def test_pivot_ratio_independent_of_strip_length(self, nx):
        # binary l2 systems (unit smoothness weights, no rotation penalty) in
        # the registration's unit-diagonal frame: the block-order oracle's
        # pivot ratio falls with the strip's length towards the 1e-12
        # singular test, the condensed factorization's stays put
        strip = make_strip(nx, 8, 0.1, relief=0.5)
        v = strip.vertices
        v = (v - (v.max(0) + v.min(0)) / 2) / np.linalg.norm(v.max(0) - v.min(0))
        sys_ = assemble_system(SystemStructure(v, strip.edges),
                               landmark_subset(len(v), 0.2, seed=1), v)
        handle = factorize_system(1.0, 1.0, 0.0, sys_)
        assert handle.pivot_ratio >= 1e-8 > block_order_factorization(
            1.0, 1.0, 0.0, sys_)[1]
        with pytest.raises(AttributeError):
            handle.pivot_ratio = 1.0
