"""Acceptance suite: ten end-to-end criteria, each printing one pass/fail
line. Oracles are independent of the implementation: vectorized grid-search
proximal operators, a quaternion-eigenvalue rotation search, dense linear
solves, and a convex solve of the frozen-rotation objective via cvxpy."""

import contextlib
import time
from dataclasses import replace

import numpy as np
import pytest

from nrreg import (
    CorrespondenceMap,
    SystemStructure,
    assemble_system,
    factorize_system,
    fit_residual_distributions,
    perturb_noise,
    perturb_outliers,
    register,
    residuals_for_analysis,
    shrink,
    block_shrink,
    solve_X,
)
from nrreg.cli import main as cli_main
from nrreg.geometry import knn_edges, with_normals
from nrreg.metrics import mean_distance_error
from nrreg.operators import nearest_rotations
from nrreg.synthesis import landmark_subset

from conftest import data_operator

# criterion 2's reference matrix: the 4N x 4N system from sparse products
from conftest import sparse_product_system_matrix as system_matrix


@pytest.fixture
def criterion(capsys):
    """One pass/fail line per criterion, printed past pytest's capture."""
    @contextlib.contextmanager
    def _criterion(num, label):
        try:
            yield
        except Exception:
            with capsys.disabled():
                print(f"criterion {num:2d} FAIL  {label}", flush=True)
            raise
        with capsys.disabled():
            print(f"criterion {num:2d} PASS  {label}", flush=True)
    return _criterion


def bbox_diag(shape):
    return float(np.linalg.norm(shape.vertices.max(0) - shape.vertices.min(0)))


def error_of(result, inst):
    return mean_distance_error(result.transforms, inst["template"], inst["gt"])


# ---------------------------------------------------------------------------
# independent oracles


def prox_abs_oracle(xs, taus, points=4001):
    """Vectorized two-stage grid search for argmin_c tau|c| + (c - x)^2 / 2."""
    xs, taus = np.asarray(xs, float), np.asarray(taus, float)
    width = np.abs(xs) + taus + 1.0
    unit = np.linspace(-1.0, 1.0, points)

    def stage(center, half):
        grid = center[:, None] + half[:, None] * unit
        obj = taus[:, None] * np.abs(grid) + 0.5 * (grid - xs[:, None]) ** 2
        return np.take_along_axis(grid, np.argmin(obj, 1)[:, None], 1)[:, 0]

    coarse = stage(np.zeros_like(xs), width)
    return stage(coarse, width / (points - 1) * 2)


def prox_norm_oracle(rows, taus, points=4001):
    """Radial two-stage grid search for argmin_c tau||c|| + ||c - x||^2 / 2."""
    r = np.linalg.norm(rows, axis=1)
    safe = np.where(r > 0, r, 1.0)
    unit = np.linspace(0.0, 1.0, points)
    width = r + taus

    def stage(lo, hi):
        grid = lo[:, None] + (hi - lo)[:, None] * unit
        obj = taus[:, None] * grid + 0.5 * (grid - r[:, None]) ** 2
        return np.take_along_axis(grid, np.argmin(obj, 1)[:, None], 1)[:, 0]

    coarse = stage(np.zeros_like(r), width)
    half = width / (points - 1)
    t = stage(np.maximum(coarse - half, 0.0), coarse + half)
    return rows / safe[:, None] * np.where(r > 0, t, 0.0)[:, None]


def quat_to_rot(q):
    w, x, y, z = q / np.linalg.norm(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def max_trace_rotation_oracle(m):
    """Best rotation for tr(R^T M) via the 4x4 quaternion form: tr(R(q)^T M)
    equals q^T K(M) q on unit quaternions, so the top eigenpair of K is the
    exact maximizer."""
    k = np.array([
        [m[0, 0] + m[1, 1] + m[2, 2], m[2, 1] - m[1, 2],
         m[0, 2] - m[2, 0], m[1, 0] - m[0, 1]],
        [m[2, 1] - m[1, 2], m[0, 0] - m[1, 1] - m[2, 2],
         m[1, 0] + m[0, 1], m[2, 0] + m[0, 2]],
        [m[0, 2] - m[2, 0], m[1, 0] + m[0, 1],
         m[1, 1] - m[0, 0] - m[2, 2], m[2, 1] + m[1, 2]],
        [m[1, 0] - m[0, 1], m[2, 0] + m[0, 2],
         m[2, 1] + m[1, 2], m[2, 2] - m[0, 0] - m[1, 1]],
    ])
    vals, vecs = np.linalg.eigh(k)
    return quat_to_rot(vecs[:, -1]), float(vals[-1])


def random_connected_system(seed, n_max=100):
    """Random partial-match instance whose edge graph is connected by
    construction (a vertex chain plus nearest-neighbor edges)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(10, n_max + 1))
    verts = rng.uniform(-1, 1, (n, 3))
    chain = np.stack([np.arange(n - 1), np.arange(1, n)], axis=1)
    edges = np.unique(np.vstack([knn_edges(verts, 3), chain, chain[:, ::-1]]),
                      axis=0)
    mapping = np.where(rng.random(n) < 0.7, rng.integers(1, n + 1, n), 0)
    mapping[0] = 1
    corr = CorrespondenceMap(mapping)
    target = rng.uniform(-1, 1, (n, 3))
    sys_ = assemble_system(SystemStructure(verts, edges), corr, target)
    w_d = np.where(corr.matched, rng.uniform(0.5, 2.0, n), 0.0)
    w_s = rng.uniform(0.5, 2.0, len(edges))
    return replace(sys_, w_data=w_d, w_smooth=w_s), rng


# ---------------------------------------------------------------------------
# shared benchmark runs (computed once, reused across criteria)


@pytest.fixture(scope="module")
def clean_runs(bend_instance):
    inst = bend_instance
    rw = register(inst["template"], inst["target"], inst["landmarks"],
                  inst["cfg"])
    no_rw = register(inst["template"], inst["target"], inst["landmarks"],
                     replace(inst["cfg"], reweight=False))
    return {"rw": rw, "no_rw": no_rw}


@pytest.fixture(scope="module")
def ablation_target(bend_instance):
    # the outliers move along the clean bend's normals, not the noisy
    # surface's: this is the instance criterion 6 was set on
    target = with_normals(bend_instance["target"])
    noisy = perturb_noise(target, 0.5, seed=11)
    corrupted, _ = perturb_outliers(replace(noisy, normals=target.normals),
                                    0.5, 1.5, seed=7)
    return corrupted


@pytest.fixture(scope="module")
def ablation_runs(bend_instance, ablation_target):
    inst = bend_instance
    out = {}
    for eps in (0.006, 0.01, 0.05):
        cfg = replace(inst["cfg"], eps_data=eps, eps_smooth=eps)
        result = register(inst["template"], ablation_target,
                          inst["landmarks"], cfg)
        out[eps] = error_of(result, inst)
    no_rw = register(inst["template"], ablation_target, inst["landmarks"],
                     replace(inst["cfg"], reweight=False))
    out["no_rw"] = error_of(no_rw, inst)
    return out


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_kernel_oracles(criterion):
    with criterion(1, "proximal and rotation kernels match oracles"):
        start = time.perf_counter()
        rng = np.random.default_rng(42)
        n = 10_000
        xs = rng.uniform(-5, 5, n)
        taus = rng.uniform(1e-3, 2.0, n)
        oracle = prox_abs_oracle(xs, taus)
        assert np.abs(shrink(xs, taus) - oracle).max() < 1e-4

        rows = rng.uniform(-5, 5, (n, 3))
        rows[rng.random(n) < 0.05] = 0.0
        gtaus = rng.uniform(1e-3, 2.0, n)
        bs = np.vstack([block_shrink(rows[i:i + 1], gtaus[i])
                        for i in range(n)])
        goracle = prox_norm_oracle(rows, gtaus)
        assert np.abs(bs - goracle).max() < 1e-4

        mrng = np.random.default_rng(7)
        for i in range(100):
            m = mrng.standard_normal((3, 3))
            if i % 4 == 0:
                m[:, 2] = m[:, 0] * 0.999  # nearly rank deficient
            (r,), _ = nearest_rotations(m[None])
            assert np.abs(r.T @ r - np.eye(3)).max() < 1e-9
            assert np.linalg.det(r) > 0
            _, best = max_trace_rotation_oracle(m)
            assert abs(np.trace(r.T @ m) - best) < 1e-6
        assert time.perf_counter() - start < 10.0


def test_criterion_02_linear_solve_accuracy(criterion):
    with criterion(2, "transform solve matches dense oracle on 50 instances"):
        start = time.perf_counter()
        for seed in range(50):
            sys_, rng = random_connected_system(seed)
            mu1, mu2, beta = rng.uniform(0.5, 4.0, 3)
            handle = factorize_system(mu1, mu2, beta, sys_)
            rhs = rng.standard_normal((4 * sys_.structure.n, 3))
            x = solve_X(handle, rhs).stacked
            a = system_matrix(mu1, mu2, beta, sys_)
            rel = np.linalg.norm(a @ x - rhs) / np.linalg.norm(rhs)
            assert rel < 1e-8
            dense = np.linalg.solve(a.toarray(), rhs)
            assert np.linalg.norm(x - dense) / np.linalg.norm(dense) < 1e-8
        assert time.perf_counter() - start < 30.0


def test_criterion_03_admm_convergence_and_convex_oracle(criterion, bend_instance):
    cvxpy = pytest.importorskip("cvxpy")
    with criterion(3, "inner loop converges and matches convex oracle"):
        start = time.perf_counter()
        inst = bend_instance
        n = inst["template"].n_vertices
        assert n == 200
        landmarks = landmark_subset(n, 0.1, seed=1)
        result = register(inst["template"], inst["target"], landmarks,
                          inst["cfg"])
        for entry in result.log:
            if entry["outer"] > 2:
                assert entry["inner"] <= 20
                r_data, r_smooth = entry["residual_history"][-1]
                assert max(r_data, r_smooth) < 1e-6

        # convex oracle at the final weights with rotations frozen
        sys_ = result.final_system
        state = result.final_state
        cfg = inst["cfg"]
        xv = cvxpy.Variable((4 * n, 3))
        sel = np.arange(4 * n).reshape(n, 4)[:, :3].ravel()
        rt = state.R.transpose(0, 2, 1).reshape(3 * n, 3)
        data = cvxpy.sum(cvxpy.abs(
            cvxpy.multiply(sys_.w_data[:, None],
                           data_operator(sys_.structure.vh) @ xv - sys_.U_f)))
        smooth = cvxpy.sum(cvxpy.abs(
            cvxpy.multiply(sys_.w_smooth[:, None], sys_.structure.B @ xv)))
        orth = cvxpy.sum_squares(xv[sel] - rt)
        prob = cvxpy.Problem(cvxpy.Minimize(
            data + cfg.alpha * smooth + cfg.beta * orth))
        prob.solve(solver=cvxpy.CLARABEL)
        assert prob.status == cvxpy.OPTIMAL

        from nrreg.solver import evaluate_energy
        achieved = evaluate_energy(state.X, sys_, state.R, cfg.alpha,
                                   cfg.beta)["total"]
        assert abs(achieved - prob.value) / abs(prob.value) < 0.01
        assert time.perf_counter() - start < 120.0


def test_criterion_04_clean_bend_recovery(criterion, bend_instance, clean_runs):
    with criterion(4, "clean bend recovered below 1e-3 of bbox diagonal"):
        err = error_of(clean_runs["rw"], bend_instance)
        assert err < 1e-3 * bbox_diag(bend_instance["template"])


def test_criterion_05_robustness_vs_quadratic_baseline(criterion, bend_instance):
    with criterion(5, "sparse model beats quadratic baseline under noise "
                      "and outliers"):
        inst = bend_instance
        cases = []
        for sigma in (0.3, 0.7, 1.0):
            cases.append((perturb_noise(inst["target"], sigma, seed=11), None))
        for frac in (0.01, 0.02, 0.05):
            corrupted, _ = perturb_outliers(inst["target"], frac, 3.0, seed=13)
            cases.append((corrupted, frac))
        for corrupted, frac in cases:
            dual = register(inst["template"], corrupted, inst["landmarks"],
                            inst["cfg"])
            base = register(inst["template"], corrupted, inst["landmarks"],
                            replace(inst["cfg"], variant="l2"))
            e_dual = error_of(dual, inst)
            e_base = error_of(base, inst)
            assert e_dual <= e_base
            if frac == 0.05:
                assert e_dual <= 0.7 * e_base


def test_criterion_06_reweighting_ablation(criterion, bend_instance, clean_runs,
                                           ablation_runs):
    with criterion(6, "reweighting helps under heavy outliers, harmless "
                      "on clean data"):
        assert ablation_runs[0.01] <= ablation_runs["no_rw"]
        clean_rw = error_of(clean_runs["rw"], bend_instance)
        clean_no = error_of(clean_runs["no_rw"], bend_instance)
        tol = 1e-3 * bbox_diag(bend_instance["template"])
        if not (clean_rw < tol and clean_no < tol):
            assert abs(clean_rw - clean_no) / max(clean_rw, clean_no) < 0.10


def test_criterion_07_epsilon_stability(criterion, ablation_runs):
    with criterion(7, "errors stable across damping constants, best at "
                      "small values"):
        errs = {eps: ablation_runs[eps] for eps in (0.006, 0.01, 0.05)}
        lo, hi = min(errs.values()), max(errs.values())
        assert (hi - lo) / lo <= 0.25
        assert min(errs, key=errs.get) <= 0.01


def test_criterion_08_residual_distributions(criterion, bend_instance):
    with criterion(8, "registration residuals are heavier-tailed than "
                      "Gaussian"):
        inst = bend_instance
        landmarks = landmark_subset(inst["template"].n_vertices, 0.1, seed=1)
        result = register(inst["template"], inst["target"], landmarks,
                          replace(inst["cfg"], variant="snr"))
        sys_ = result.final_system
        offsets = (result.final_state.X.apply(sys_.structure.vh[:, :3])
                   - sys_.U_f)[sys_.w_data > 0]
        for mode in ("per_axis_l1", "euclidean"):
            samples = residuals_for_analysis(offsets, mode)
            fit = fit_residual_distributions(samples)
            assert fit.loglik_laplace > fit.loglik_gauss


def test_criterion_09_cli_replay(criterion, tmp_path):
    with criterion(9, "manifest replay reproduces outputs byte for byte"):
        inst = tmp_path / "inst"
        assert cli_main(["synth", "--nx", "16", "--ny", "6",
                         "--out", str(inst)]) == 0
        reg = tmp_path / "reg"
        code = cli_main(["register", "--template", str(inst / "template.ply"),
                         "--target", str(inst / "target.ply"),
                         "--corr", str(inst / "landmarks.txt"),
                         "--ground-truth", str(inst / "target.ply"),
                         "--max-dist-factor", "1.5", "--out", str(reg)])
        assert code in (0, 2)
        replayed = tmp_path / "reg2"
        assert cli_main(["replay", "--manifest", str(reg / "manifest.json"),
                         "--out", str(replayed)]) == code
        for name in ("deformed.ply", "transforms.txt", "iterations.json",
                     "error_report.json", "error_colored.ply"):
            assert (reg / name).read_bytes() == (replayed / name).read_bytes()


def test_criterion_10_scaling(criterion, bend_instance):
    with criterion(10, "doubling the vertex count stays under 4x wall time"):
        from nrreg.synthesis import DeformationSpec, make_strip, \
            synth_deformation

        def run(nx):
            template = make_strip(nx, 8, 0.1, relief=0.5)
            spec = DeformationSpec(kind="bend", angle_deg=45.0, axis=(0, 1, 0),
                                   axis_point=(1.2, 0, 0),
                                   blend_direction=(1, 0, 0),
                                   band_start=1.15, band_end=1.25)
            target, _, _ = synth_deformation(template, spec)
            landmarks = landmark_subset(template.n_vertices, 0.2, seed=1)
            start = time.perf_counter()
            register(template, target, landmarks, bend_instance["cfg"])
            return time.perf_counter() - start

        run(25)  # warm caches so the first measured run is not penalized
        t_small = run(25)
        t_big = run(50)
        assert t_big < 4.0 * t_small
