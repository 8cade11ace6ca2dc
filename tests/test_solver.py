"""Inner splitting loop, reweighted outer loop, and comparison baselines."""

import json
from dataclasses import replace

import numpy as np
import pytest

from nrreg import (
    CorrespondenceMap,
    SolverConfig,
    TransformStack,
    admm_solve,
    assemble_system,
    evaluate_energy,
    register,
    solve_l2_baseline,
    solve_variant,
    synth_deformation,
    update_weights,
)
from nrreg.geometry import Shape, build_edge_graph, knn_edges
from nrreg.metrics import mean_distance_error
from nrreg.operators import system_matrix
from nrreg.synthesis import (
    DeformationSpec,
    landmark_subset,
    make_strip,
    perturb_outliers,
)

from conftest import random_cloud


def symmetric_knn(verts, k):
    """k-NN edges plus reversals; every vertex then has in-edges, which the
    quadratic baseline needs for full-rank per-vertex blocks."""
    e = knn_edges(verts, k)
    both = np.concatenate([e, e[:, ::-1]])
    return np.unique(both, axis=0)


def aligned_system(n=24, seed=0):
    """Identity-correspondence system with template == target."""
    verts = random_cloud(n, seed=seed)
    edges = symmetric_knn(verts, 4)
    corr = CorrespondenceMap(np.arange(1, n + 1))
    template = Shape(vertices=verts, edges=edges)
    return assemble_system(template, edges, corr, verts), corr


@pytest.fixture(scope="module")
def bend_run(bend_instance):
    b = bend_instance
    return register(b["template"], b["target"], b["landmarks"], b["cfg"])


class TestSolverConfig:
    def test_defaults_valid(self):
        SolverConfig().validate()

    @pytest.mark.parametrize("kwargs", [
        {"rho1": 1.0}, {"rho2": 0.5}, {"mu1_init": 0.0}, {"eps_data": 0.0},
        {"outer_iters": 0}, {"inner_iters": 0}, {"alpha": -1.0},
        {"beta": -0.1}, {"variant": "unknown"}, {"variant": "l2", "alpha": 0.0},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs).validate()


class TestEvaluateEnergy:
    def test_exact_alignment_zero(self):
        sys_, _ = aligned_system()
        x = TransformStack.identity(sys_.n)
        e = evaluate_energy(x, sys_, None, alpha=1.0, beta=0.0)
        assert e["data"] == pytest.approx(0.0, abs=1e-12)
        assert e["smooth"] == pytest.approx(0.0, abs=1e-12)

    def test_single_translated_vertex_unit_data_term(self):
        verts = np.array([[0.0, 0, 0], [0, 1.0, 0]])
        edges = np.array([[0, 1], [1, 0]])
        corr = CorrespondenceMap(np.array([1, 0]))
        target = verts + np.array([1.0, 0, 0])
        sys_ = assemble_system(Shape(vertices=verts, edges=edges), edges,
                               corr, target)
        e = evaluate_energy(TransformStack.identity(2), sys_, None, 1.0, 0.0)
        assert e["data"] == pytest.approx(1.0, abs=1e-12)

    def test_matches_naive_loop_oracle(self):
        from nrreg.operators import homogeneous
        rng = np.random.default_rng(5)
        n = 15
        verts = random_cloud(n, seed=6)
        edges = knn_edges(verts, 3)
        corr = CorrespondenceMap(rng.integers(0, n + 1, n))
        target = random_cloud(n, seed=7)
        sys_ = assemble_system(Shape(vertices=verts, edges=edges), edges,
                               corr, target)
        sys_ = replace(sys_, w_data=sys_.w_data * rng.uniform(0.5, 2, n),
                       w_smooth=rng.uniform(0.5, 2, len(edges)))
        x = TransformStack(rng.standard_normal((n, 3, 4)))
        rot = np.broadcast_to(np.eye(3), (n, 3, 3)).copy()
        e = evaluate_energy(x, sys_, rot, alpha=1.3, beta=0.7)
        vh = homogeneous(verts)
        data = sum(sys_.w_data[i]
                   * np.abs(x.blocks[i] @ vh[i]
                            - target[corr.target_indices[i]]).sum()
                   for i in range(n) if corr.matched[i])
        smooth = sum(sys_.w_smooth[r]
                     * np.abs(x.blocks[i] @ vh[i] - x.blocks[j] @ vh[i]).sum()
                     for r, (i, j) in enumerate(edges))
        orth = sum(np.sum((x.blocks[i][:, :3] - rot[i]) ** 2) for i in range(n))
        assert e["data"] == pytest.approx(data, abs=1e-10)
        assert e["smooth"] == pytest.approx(smooth, abs=1e-10)
        assert e["orth"] == pytest.approx(orth, abs=1e-10)
        assert e["total"] == pytest.approx(data + 1.3 * smooth + 0.7 * orth,
                                           abs=1e-9)


class TestAdmmSolve:
    def test_aligned_fixed_point(self):
        sys_, _ = aligned_system()
        x0 = TransformStack.identity(sys_.n)
        x, state = admm_solve(sys_, x0, SolverConfig())
        assert state.n_iters == 1
        assert max(state.residuals[0]) < 1e-12
        assert np.abs(x.blocks - x0.blocks).max() < 1e-9

    def test_two_vertex_single_match_hits_target(self):
        # one matched vertex, one edge; the l1 prox drives the matched
        # residual to zero as the penalty grows
        verts = np.array([[0.0, 0, 0], [1.0, 0, 0]])
        edges = np.array([[0, 1], [1, 0]])
        corr = CorrespondenceMap(np.array([1, 0]))
        target = np.array([[0.3, -0.2, 0.5], [0, 0, 0]])
        sys_ = assemble_system(Shape(vertices=verts, edges=edges), edges,
                               corr, target)
        cfg = SolverConfig(alpha=0.01, beta=0.1, inner_iters=30)
        x, state = admm_solve(sys_, TransformStack.identity(2), cfg)
        moved = x.apply(verts)
        np.testing.assert_allclose(moved[0], target[0], atol=1e-5)

    def test_residuals_monotone_after_three_iterations(self, bend_run):
        for entry in bend_run.log:
            h = [max(r) for r in entry["residual_history"]]
            for k in range(3, len(h)):
                assert h[k] <= h[k - 1] * (1 + 1e-12)

    def test_residuals_below_tolerance_by_twenty(self, bend_run):
        for entry in bend_run.log:
            assert entry["inner"] <= 20
            assert max(entry["residual_history"][-1]) < 1e-6

    def test_penalties_increase(self):
        sys_, _ = aligned_system(n=10, seed=2)
        cfg = SolverConfig(inner_tol=0.0, inner_iters=5)
        _, state = admm_solve(sys_, TransformStack.identity(10), cfg)
        assert state.mu1 == pytest.approx(cfg.mu1_init * cfg.rho1 ** 5)
        assert state.mu2 == pytest.approx(cfg.mu2_init * cfg.rho2 ** 5)

    def test_subproblem_optimality_by_perturbation(self):
        # sampled check: each auxiliary update minimizes its own subproblem
        from nrreg.operators import shrink
        rng = np.random.default_rng(3)
        g = rng.standard_normal((6, 3))
        y = rng.standard_normal((6, 3))
        mu = 2.5
        c_star = shrink(g - y / mu, 1.0 / mu)

        def c_obj(c):
            return np.abs(c).sum() + np.sum(y * (c - g)) \
                + mu / 2 * np.sum((c - g) ** 2)
        base = c_obj(c_star)
        for _ in range(50):
            delta = rng.standard_normal((6, 3)) * rng.uniform(1e-4, 0.3)
            assert c_obj(c_star + delta) >= base - 1e-12


class TestUpdateWeights:
    def test_values_from_residuals(self):
        verts = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
        edges = np.array([[0, 1], [1, 2]])
        corr = CorrespondenceMap(np.array([1, 2, 0]))
        target = verts.copy()
        target[1, 0] += 0.09   # l1 residual 0.09 at vertex 1
        sys_ = assemble_system(Shape(vertices=verts, edges=edges), edges,
                               corr, target)
        wd, ws = update_weights(TransformStack.identity(3), corr, sys_,
                                eps_data=0.01, eps_smooth=0.01)
        assert wd[0] == pytest.approx(100.0)   # zero residual
        assert wd[1] == pytest.approx(10.0)    # 1/(0.09 + 0.01)
        assert wd[2] == 0.0                    # unmatched
        np.testing.assert_allclose(ws, 100.0)  # identity transforms


class TestRegister:
    def test_rigid_recovery_with_sparse_landmarks(self):
        template = make_strip(25, 8, 0.1, relief=0.5)
        spec = DeformationSpec(kind="rigid", angle_deg=45.0, axis=(0, 1, 0),
                               axis_point=(1.2, 0, 0))
        target, gt, _ = synth_deformation(template, spec)
        lm = landmark_subset(template.n_vertices, 0.1, seed=1)
        res = register(template, target, lm, SolverConfig(max_dist_factor=1.5))
        err = mean_distance_error(res.transforms, template, gt)
        assert err < 1e-4 * template.bbox_diagonal()

    def test_reweight_beats_no_reweight_on_outliers(self, bend_instance):
        b = bend_instance
        corrupted, _ = perturb_outliers(b["target"], 0.05, 3.0, seed=13)
        on = register(b["template"], corrupted, b["landmarks"], b["cfg"])
        off = register(b["template"], corrupted, b["landmarks"],
                       replace(b["cfg"], reweight=False))
        e_on = mean_distance_error(on.transforms, b["template"], b["gt"])
        e_off = mean_distance_error(off.transforms, b["template"], b["gt"])
        assert e_on <= e_off

    def test_zero_outer_iterations_rejected(self, bend_instance):
        b = bend_instance
        with pytest.raises(ValueError):
            register(b["template"], b["target"], b["landmarks"],
                     replace(b["cfg"], outer_iters=0))

    def test_landmark_length_mismatch(self, bend_instance):
        b = bend_instance
        with pytest.raises(ValueError, match="landmark"):
            register(b["template"], b["target"], CorrespondenceMap.empty(3),
                     b["cfg"])

    def test_deterministic_iteration_logs(self, bend_instance):
        b = bend_instance
        cfg = replace(b["cfg"], reweight=False, outer_iters=3)
        a = register(b["template"], b["target"], b["landmarks"], cfg)
        c = register(b["template"], b["target"], b["landmarks"], cfg)
        assert json.dumps(a.log, sort_keys=True) == \
            json.dumps(c.log, sort_keys=True)

    def test_faceless_target_graph_built_once(self, bend_instance, monkeypatch):
        import nrreg.correspondence
        import nrreg.solver
        calls = []

        def counting(shape, *args):
            calls.append(shape.n_vertices)
            return build_edge_graph(shape, *args)

        for module in (nrreg.solver, nrreg.correspondence):
            monkeypatch.setattr(module, "build_edge_graph", counting)
        b = bend_instance
        res = register(Shape(vertices=b["template"].vertices),
                       Shape(vertices=b["target"].vertices), b["landmarks"],
                       replace(b["cfg"], outer_iters=3))
        assert len(res.log) == 3
        # one kNN graph for the template and one for the target, however
        # many closest-point refreshes run
        assert len(calls) == 2

    @pytest.mark.parametrize("variant", ["dual_sparse", "l2"])
    def test_system_work_hoisted(self, bend_instance, monkeypatch, variant):
        # the matrix pattern and the unit-weight K_S = B^T B are built once per
        # registration, K_D once per outer iteration and a reweighted K_S once
        # per reweighted one, however many factorizations the inner loop runs
        import nrreg.operators
        import nrreg.solver
        counts = {"structure": 0, "terms": 0, "factorize": 0,
                  "unit_smooth": 0, "weighted_smooth": 0}

        class CountingStructure(nrreg.operators.SystemStructure):
            def __init__(self, *args):
                counts["structure"] += 1
                super().__init__(*args)

        def counter(key, fn):
            def counted(*args):
                counts[key] += 1
                return fn(*args)
            return counted

        monkeypatch.setattr(nrreg.solver, "SystemStructure", CountingStructure)
        blocks = nrreg.operators.normal_blocks

        def counted_blocks(structure, w_data, w_smooth):
            counts["terms"] += w_data is not None
            if w_smooth is not None:
                unit = np.all(w_smooth == 1.0)
                counts["unit_smooth" if unit else "weighted_smooth"] += 1
            return blocks(structure, w_data, w_smooth)

        monkeypatch.setattr(nrreg.operators, "normal_blocks", counted_blocks)
        monkeypatch.setattr(nrreg.solver, "factorize_system",
                            counter("factorize", nrreg.solver.factorize_system))
        b = bend_instance
        res = register(b["template"], b["target"], b["landmarks"],
                       replace(b["cfg"], outer_iters=6, variant=variant))
        assert counts["structure"] == 1
        assert counts["terms"] == len(res.log) >= 4
        assert counts["unit_smooth"] == 1
        if variant == "l2":         # the baseline keeps unit weights
            assert counts["weighted_smooth"] == 0
        else:                       # reweighting starts at outer iteration 5
            assert counts["weighted_smooth"] == sum(
                e["reweighted"] for e in res.log) == 2
        assert counts["factorize"] == sum(e["inner"] for e in res.log)
        if variant != "l2":
            assert counts["factorize"] > len(res.log)

    def test_transforms_in_original_frame(self, bend_run, bend_instance):
        b = bend_instance
        moved = bend_run.transforms.apply(b["template"].vertices)
        np.testing.assert_allclose(moved, bend_run.deformed.vertices,
                                   atol=1e-12)
        err = mean_distance_error(bend_run.transforms, b["template"], b["gt"])
        assert err < 1e-3 * b["template"].bbox_diagonal()


class TestL2Baseline:
    def test_exact_alignment_zero_residual(self):
        sys_, _ = aligned_system(n=16, seed=4)
        x = solve_l2_baseline(sys_, alpha=1.0)
        assert np.abs(sys_.V @ x.stacked - sys_.U_f).max() < 1e-8

    def test_large_alpha_collapses_to_common_transform(self):
        # 1e8 rather than 1e12: the factorization's relative zero-pivot guard
        # rejects pivot ratios at 1e-12, and the smoothness-dominated limit is
        # already reached well before that
        rng = np.random.default_rng(8)
        n = 12
        verts = random_cloud(n, seed=8)
        edges = symmetric_knn(verts, 3)
        corr = CorrespondenceMap(np.arange(1, n + 1))
        target = verts @ np.array([[0, -1, 0], [1, 0, 0], [0, 0, 1.0]]).T + 0.3
        sys_ = assemble_system(Shape(vertices=verts, edges=edges), edges,
                               corr, target)
        x = solve_l2_baseline(sys_, alpha=1e8)
        spread = np.abs(x.blocks - x.blocks.mean(axis=0)).max()
        assert spread < 1e-4

    def test_matches_dense_least_squares_oracle(self):
        n = 14
        verts = random_cloud(n, seed=9)
        edges = symmetric_knn(verts, 3)
        rng = np.random.default_rng(10)
        corr = CorrespondenceMap(np.where(rng.random(n) < 0.7,
                                          np.arange(1, n + 1), 0))
        target = random_cloud(n, seed=11)
        sys_ = assemble_system(Shape(vertices=verts, edges=edges), edges,
                               corr, target)
        alpha = 0.7
        x = solve_l2_baseline(sys_, alpha)
        w = (sys_.w_data > 0).astype(float)
        V = sys_.V.toarray() * w[:, None]
        B = sys_.B.toarray()
        a = V.T @ V + alpha * B.T @ B
        rhs = V.T @ (w[:, None] * sys_.U_f)
        dense = np.linalg.solve(a, rhs)
        np.testing.assert_allclose(x.stacked, dense, atol=1e-8)


class TestVariants:
    @pytest.mark.parametrize("variant", ["dual_sparse", "l2", "snr",
                                         "group_sparse"])
    def test_clean_data_converges(self, variant):
        sys_, _ = aligned_system(n=18, seed=12)
        cfg = SolverConfig(variant=variant)
        x, _ = solve_variant(variant, sys_, cfg)
        assert np.abs(sys_.V @ x.stacked - sys_.U_f).max() < 1e-6

    def test_outlier_ordering_dual_below_l2(self, bend_instance):
        b = bend_instance
        corrupted, _ = perturb_outliers(b["target"], 0.05, 3.0, seed=13)
        dual = register(b["template"], corrupted, b["landmarks"], b["cfg"])
        l2 = register(b["template"], corrupted, b["landmarks"],
                      replace(b["cfg"], variant="l2"))
        e_dual = mean_distance_error(dual.transforms, b["template"], b["gt"])
        e_l2 = mean_distance_error(l2.transforms, b["template"], b["gt"])
        assert e_dual <= e_l2

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig(variant="l3").validate()
