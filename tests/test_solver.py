"""Inner splitting loop, reweighted outer loop, and comparison baselines."""

import json
import re
from dataclasses import replace

import numpy as np
import pytest

from nrreg import (
    CorrespondenceMap,
    SingularSystemError,
    SolverConfig,
    SystemStructure,
    TransformStack,
    admm_solve,
    assemble_system,
    evaluate_energy,
    register,
    solve_l2_baseline,
    synth_deformation,
    update_weights,
)
from nrreg.geometry import Shape, build_edge_graph, knn_edges
from nrreg.metrics import mean_distance_error
from nrreg.operators import project_rotations
from nrreg.synthesis import (
    DeformationSpec,
    landmark_subset,
    make_strip,
    perturb_noise,
    perturb_outliers,
)

from conftest import (
    DUPLICATE_SUSPECTS,
    data_operator,
    duplicated_strip,
    random_cloud,
    two_strips,
)


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
    return assemble_system(SystemStructure(verts, edges), corr, verts), corr


@pytest.fixture(scope="module")
def bend_run(bend_instance):
    b = bend_instance
    return register(b["template"], b["target"], b["landmarks"], b["cfg"])


class TestSolverConfig:
    def test_defaults_valid(self):
        SolverConfig().validate()

    def test_ints_for_floats_valid(self):
        # a JSON config writes 1 for 1.0
        SolverConfig(alpha=1, beta=0, eps_data=1, max_dist_factor=3,
                     outer_iters=np.int64(5)).validate()

    def test_zero_tolerances_and_no_gate_valid(self):
        SolverConfig(max_dist_factor=float("inf")).validate()

    @pytest.mark.parametrize("kwargs", [
        {"eps_data": 0.0}, {"eps_smooth": 0.0}, {"eps_data": -1.0},
        {"outer_iters": 0}, {"inner_iters": 0}, {"inner_iters": -1},
        {"alpha": -1.0}, {"beta": -0.1}, {"variant": "unknown"},
        {"variant": "l2", "alpha": 0.0},
        {"alpha": float("nan")}, {"beta": float("nan")},
        {"eps_data": float("nan")}, {"eps_smooth": float("nan")},
        {"max_dist_factor": float("nan")}, {"outer_iters": float("nan")},
        {"inner_iters": float("nan")},
        {"max_dist_factor": 0.0}, {"max_dist_factor": -1.0},
        {"knn_k": 0}, {"knn_k": -1},
        # values of the wrong type
        {"outer_iters": 2.5}, {"inner_iters": 3.0}, {"outer_iters": True},
        {"knn_k": "6"}, {"reweight": "no"}, {"reweight": 1}, {"alpha": True},
        {"beta": "0.1"}, {"max_dist_factor": None}, {"knn_k": 2.5},
        {"variant": None}, {"reweight": None}, {"eps_smooth": "0.01"},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs).validate()

    @pytest.mark.parametrize("name", [
        "mu1_init", "mu2_init", "rho1", "rho2", "inner_tol", "outer_tol",
        "reweight_start_tol", "max_normal_angle"])
    def test_removed_setting_rejected(self, name, tmp_path):
        # constants of the solver module now, not settings of a run: an old
        # config file that names one fails instead of being ignored
        from nrreg.cli import CliError, load_config
        with pytest.raises(TypeError):
            SolverConfig(**{name: 1.0})
        path = tmp_path / "old.json"
        path.write_text(json.dumps({name: 1.0}))
        with pytest.raises(CliError, match=re.escape(f"unknown config keys ['{name}']")):
            load_config(str(path), {})


class TestEvaluateEnergy:
    def test_exact_alignment_zero(self):
        sys_, _ = aligned_system()
        x = TransformStack.identity(sys_.structure.n)
        e = evaluate_energy(x, sys_, None, alpha=1.0, beta=0.0)
        assert e["data"] == pytest.approx(0.0, abs=1e-12)
        assert e["smooth"] == pytest.approx(0.0, abs=1e-12)

    def test_single_translated_vertex_unit_data_term(self):
        verts = np.array([[0.0, 0, 0], [0, 1.0, 0]])
        edges = np.array([[0, 1], [1, 0]])
        corr = CorrespondenceMap(np.array([1, 0]))
        target = verts + np.array([1.0, 0, 0])
        sys_ = assemble_system(SystemStructure(verts, edges), corr, target)
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
        sys_ = assemble_system(SystemStructure(verts, edges), corr, target)
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
        x0 = TransformStack.identity(sys_.structure.n)
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
        sys_ = assemble_system(SystemStructure(verts, edges), corr, target)
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

    def test_edgeless_system(self):
        # without edges the smoothness auxiliary is empty, its right-hand
        # side term is zero and its residual reads 0
        n = 12
        verts = random_cloud(n, seed=14)
        edges = np.zeros((0, 2), dtype=np.int64)
        sys_ = assemble_system(SystemStructure(verts, edges),
                               CorrespondenceMap(np.arange(1, n + 1)),
                               random_cloud(n, seed=15))
        assert len(sys_.w_smooth) == 0
        _, state = admm_solve(sys_, TransformStack.identity(n), SolverConfig())
        assert state.A.shape == (0, 3)
        assert [r_smooth for _, r_smooth in state.residuals] == \
            [0.0] * state.n_iters
        assert state.converged

    def test_penalties_increase(self, monkeypatch):
        import nrreg.solver
        from nrreg.solver import MU_INIT, RHO
        monkeypatch.setattr(nrreg.solver, "INNER_TOL", 0.0)
        sys_, _ = aligned_system(n=10, seed=2)
        cfg = SolverConfig(inner_iters=5)
        _, state = admm_solve(sys_, TransformStack.identity(10), cfg)
        assert state.mu1 == pytest.approx(MU_INIT * RHO ** 5)
        assert state.mu2 == pytest.approx(MU_INIT * RHO ** 5)

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


class TestInnerLoopOracle:
    def test_warm_started_energy_near_lp_optimum(self, bend_instance):
        # criterion 3's instance (10 % landmarks) without the rotation
        # penalty: at the final outer iteration's frozen weights the
        # subproblem min ||W_D (V X - U)||_1 + alpha ||W_S B X||_1 is a linear
        # program, one per column of X; the warm-started inner loop reaches
        # its optimum to within 1 %
        from scipy.optimize import linprog
        from scipy.sparse import diags, hstack, identity, vstack
        b = bend_instance
        n = b["template"].n_vertices
        cfg = replace(b["cfg"], beta=0.0)
        res = register(b["template"], b["target"], landmark_subset(n, 0.1, seed=1),
                       cfg)
        sys_, state = res.final_system, res.final_state
        data, smooth = diags(sys_.w_data) @ data_operator(sys_.structure.vh), \
            diags(sys_.w_smooth) @ sys_.structure.B
        ne = len(sys_.w_smooth)
        zeros_d, zeros_s = np.zeros((n, ne)), np.zeros((ne, n))
        a_ub = vstack([hstack([data, -identity(n), zeros_d]),
                       hstack([-data, -identity(n), zeros_d]),
                       hstack([smooth, zeros_s, -identity(ne)]),
                       hstack([-smooth, zeros_s, -identity(ne)])]).tocsc()
        cost = np.concatenate([np.zeros(4 * n), np.ones(n), np.full(ne, cfg.alpha)])
        bounds = [(None, None)] * (4 * n) + [(0, None)] * (n + ne)
        optimum = 0.0
        for d in range(3):
            u = sys_.w_data * sys_.U_f[:, d]
            lp = linprog(cost, A_ub=a_ub, b_ub=np.concatenate([u, -u, np.zeros(2 * ne)]),
                         bounds=bounds, method="highs")
            assert lp.status == 0
            optimum += lp.fun
        achieved = evaluate_energy(state.X, sys_, state.R, cfg.alpha, 0.0)["total"]
        assert optimum * (1 - 1e-6) <= achieved <= 1.01 * optimum


class TestUpdateWeights:
    def test_values_from_residuals(self):
        verts = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
        edges = np.array([[0, 1], [1, 2]])
        corr = CorrespondenceMap(np.array([1, 2, 0]))
        target = verts.copy()
        target[1, 0] += 0.09   # l1 residual 0.09 at vertex 1
        sys_ = assemble_system(SystemStructure(verts, edges), corr, target)
        wd, ws = update_weights(TransformStack.identity(3), sys_,
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

    def test_landmark_past_target_named(self, bend_instance):
        b = bend_instance
        n = b["target"].n_vertices
        mapping = np.zeros(b["template"].n_vertices, np.int64)
        mapping[3] = n + 5
        with pytest.raises(ValueError, match=rf"landmark target index {n + 4} "
                                             rf"out of range \[0, {n}\)"):
            register(b["template"], b["target"], CorrespondenceMap(mapping),
                     b["cfg"])

    def test_deterministic_iteration_logs(self, bend_instance):
        b = bend_instance
        cfg = replace(b["cfg"], reweight=False, outer_iters=3)
        a = register(b["template"], b["target"], b["landmarks"], cfg)
        c = register(b["template"], b["target"], b["landmarks"], cfg)
        assert json.dumps(a.log, sort_keys=True) == \
            json.dumps(c.log, sort_keys=True)

    @staticmethod
    def with_target_duplicates(target, count, seed):
        """``target`` with ``count`` of its vertices appended again; the
        faces, if any, reference none of the copies."""
        picks = np.random.default_rng(seed).choice(target.n_vertices, count,
                                                   replace=False)
        return replace(target, vertices=np.concatenate(
            [target.vertices, target.vertices[picks]]), normals=None)

    def test_target_duplicates_unreferenced_by_faces(self, bend_instance):
        # a copy ties with its original in every closest-point query, and
        # ties go to the lower index: the registration is that of the clean
        # target, bit for bit
        b = bend_instance
        corrupted, _ = perturb_outliers(b["target"], 0.05, 3.0, seed=13)
        clean = register(b["template"], corrupted, b["landmarks"], b["cfg"])
        dup = register(b["template"],
                       self.with_target_duplicates(corrupted, 30, seed=16),
                       b["landmarks"], b["cfg"])
        assert clean.converged
        assert dup.transforms.blocks.tobytes() == \
            clean.transforms.blocks.tobytes()
        assert json.dumps(dup.log, sort_keys=True) == \
            json.dumps(clean.log, sort_keys=True)

    def test_target_duplicates_in_cloud(self, bend_instance):
        # faceless: the copies enter the target's k-NN graph (zero-length
        # edges shorten the distance gate's unit), and the run still converges
        b = bend_instance
        corrupted, _ = perturb_outliers(b["target"], 0.05, 3.0, seed=13)
        cloud = Shape(vertices=corrupted.vertices)
        clean = register(b["template"], cloud, b["landmarks"], b["cfg"])
        dup = register(b["template"],
                       self.with_target_duplicates(cloud, 30, seed=16),
                       b["landmarks"], b["cfg"])
        assert clean.converged and dup.converged
        diag = b["template"].bbox_diagonal()
        e_clean = mean_distance_error(clean.transforms, b["template"], b["gt"])
        e_dup = mean_distance_error(dup.transforms, b["template"], b["gt"])
        assert e_dup < 1e-4 * diag
        assert e_dup == pytest.approx(e_clean, rel=0.01)

    def test_faceless_target_graph_built_once(self, bend_instance, monkeypatch):
        import nrreg.solver
        calls = []

        def counting(shape, *args):
            calls.append(shape.n_vertices)
            return build_edge_graph(shape, *args)

        monkeypatch.setattr(nrreg.solver, "build_edge_graph", counting)
        b = bend_instance
        res = register(Shape(vertices=b["template"].vertices),
                       Shape(vertices=b["target"].vertices), b["landmarks"],
                       replace(b["cfg"], outer_iters=3))
        assert len(res.log) == 3
        # one kNN graph for the template and one for the target, however
        # many closest-point refreshes run
        assert len(calls) == 2

    @pytest.mark.parametrize("faces", [True, False], ids=["mesh", "cloud"])
    def test_one_search_tree_per_registration(self, bend_instance, monkeypatch,
                                              faces):
        # one kd-tree over the target serves every closest-point refresh and
        # a faceless target's kNN graph; the template is a mesh, so it needs
        # no tree
        import scipy.spatial
        built = []

        class CountingTree(scipy.spatial.cKDTree):
            def __init__(self, data, *args, **kwargs):
                built.append(np.array(data))
                super().__init__(data, *args, **kwargs)

        monkeypatch.setattr(scipy.spatial, "cKDTree", CountingTree)
        b = bend_instance
        target = b["target"] if faces else Shape(vertices=b["target"].vertices)
        res = register(b["template"], target, b["landmarks"],
                       replace(b["cfg"], outer_iters=4))
        assert len(res.log) == 4 and len(built) == 1
        center, scale = res.normalization
        assert np.array_equal(built[0], (target.vertices - center) / scale)

    @pytest.mark.parametrize("faces", [True, False], ids=["mesh", "cloud"])
    def test_target_edge_length_once(self, bend_instance, monkeypatch, faces):
        # the distance gate's mean target edge length is computed once per
        # registration
        import nrreg.geometry
        import nrreg.solver
        b = bend_instance
        target = b["target"] if faces else Shape(vertices=b["target"].vertices)
        cfg = replace(b["cfg"], outer_iters=4)
        calls = []

        def counting(shape):
            calls.append(shape.n_vertices)
            return nrreg.geometry.mean_edge_length(shape)

        monkeypatch.setattr(nrreg.solver, "mean_edge_length", counting)
        once = register(b["template"], target, b["landmarks"], cfg)
        assert len(once.log) == 4 and calls == [target.n_vertices]

    def test_meshed_target_edges_reused(self, bend_instance, monkeypatch):
        # a meshed target's edges and the template's are the shapes' own:
        # no edge list is derived from faces again
        import nrreg.geometry
        calls = []
        derive = nrreg.geometry.edges_from_faces
        monkeypatch.setattr(nrreg.geometry, "edges_from_faces",
                            lambda faces: calls.append(len(faces)) or derive(faces))
        b = bend_instance
        res = register(b["template"], b["target"], b["landmarks"],
                       replace(b["cfg"], outer_iters=2))
        assert len(res.log) == 2 and calls == []

    @pytest.mark.parametrize("variant", ["dual_sparse", "l2"])
    def test_orth_at_zero_beta_is_distance_to_rotations(self, variant):
        # at beta = 0 no variant updates its rotations: orth is the distance
        # of the linear parts to their nearest rotations, not to the identity
        template = make_strip(20, 4, 0.1, relief=0.5)
        target = synth_deformation(template, DeformationSpec(kind="bend"))[0]
        res = register(template, target, None,
                       SolverConfig(variant=variant, beta=0.0, outer_iters=3))
        lin = res.transforms.linear_parts()
        expected = np.sum((lin - project_rotations(res.transforms)) ** 2)
        assert res.log[-1]["energies"]["orth"] == pytest.approx(expected, rel=1e-12)
        assert expected < np.sum((lin - np.eye(3)) ** 2)
        # the inner loop leaves no rotations it never projected
        if variant == "l2":
            assert res.final_state is None
        else:
            assert res.final_state.R is None

    @pytest.mark.parametrize("variant", ["dual_sparse", "l2"])
    def test_penalty_basis_built_once_per_weights(self, bend_instance,
                                                  monkeypatch, variant):
        # one eigenbasis per structure for the unit smoothness weights, and
        # one per reweighted system, however many factorizations use them
        import nrreg.operators
        built = []

        class CountingBasis(nrreg.operators.PenaltyBasis):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)

        monkeypatch.setattr(nrreg.operators, "PenaltyBasis", CountingBasis)
        b = bend_instance
        res = register(b["template"], b["target"], b["landmarks"],
                       replace(b["cfg"], outer_iters=6, variant=variant))
        reweighted = sum(e["reweighted"] for e in res.log)
        assert reweighted == (2 if variant == "dual_sparse" else 0)
        assert len(built) == 1 + reweighted
        assert built[0] is res.final_system.structure.unit_penalty_basis
        assert sum(e["factorizations"] for e in res.log) > len(built)

    @pytest.mark.parametrize("variant", ["dual_sparse", "l2"])
    def test_system_work_hoisted(self, bend_instance, monkeypatch, variant):
        # the matrix pattern and the unit-weight penalty basis are built once
        # per registration and a reweighted basis once per reweighted outer
        # iteration, however many factorizations the inner loop runs; the l2
        # baseline factorizes only at outer iterations whose binary match
        # mask differs from the previous one
        import nrreg.operators
        import nrreg.solver
        counts = {"structure": 0, "factorize": 0, "unit_smooth": 0,
                  "weighted_smooth": 0}

        class CountingStructure(nrreg.operators.SystemStructure):
            def __init__(self, *args):
                counts["structure"] += 1
                super().__init__(*args)

        class CountingBasis(nrreg.operators.PenaltyBasis):
            def __init__(self, structure, w_smooth):
                unit = np.all(w_smooth == 1.0)
                counts["unit_smooth" if unit else "weighted_smooth"] += 1
                super().__init__(structure, w_smooth)

        def counter(key, fn):
            def counted(*args):
                counts[key] += 1
                return fn(*args)
            return counted

        monkeypatch.setattr(nrreg.solver, "SystemStructure", CountingStructure)
        monkeypatch.setattr(nrreg.operators, "PenaltyBasis", CountingBasis)
        monkeypatch.setattr(nrreg.solver, "factorize_system",
                            counter("factorize", nrreg.solver.factorize_system))
        masks = []
        assemble = nrreg.solver.assemble_system

        def capturing(*args, **kwargs):
            sys_ = assemble(*args, **kwargs)
            masks.append(sys_.w_data > 0)
            return sys_

        monkeypatch.setattr(nrreg.solver, "assemble_system", capturing)
        b = bend_instance
        res = register(b["template"], b["target"], b["landmarks"],
                       replace(b["cfg"], outer_iters=6, variant=variant))
        assert counts["structure"] == 1
        assert counts["unit_smooth"] == 1
        if variant == "l2":         # the baseline keeps unit weights
            assert len(masks) == len(res.log) >= 4
            changed = [k == 0 or not np.array_equal(masks[k], masks[k - 1])
                       for k in range(len(masks))]
            assert counts["factorize"] == sum(changed) < len(res.log)
            assert [e["factorizations"] for e in res.log] == changed
            assert counts["weighted_smooth"] == 0
        else:                       # reweighting starts at outer iteration 5
            assert len(res.log) >= 4
            assert counts["weighted_smooth"] == sum(
                e["reweighted"] for e in res.log) == 2
            assert counts["factorize"] == sum(e["inner"] for e in res.log)
            assert counts["factorize"] > len(res.log)

    def test_reweighted_logs_actual_updates(self, bend_run, bend_instance,
                                            monkeypatch):
        # dual_sparse: reweighting starts at the outer iteration after the
        # first whose displacement is below REWEIGHT_START_TOL, and stays on
        from nrreg.solver import REWEIGHT_START_TOL
        cfg = bend_instance["cfg"]
        started = np.cumsum([False] + [e["mean_displacement"] < REWEIGHT_START_TOL
                                       for e in bend_run.log[:-1]]) > 0
        assert [e["reweighted"] for e in bend_run.log] == started.tolist()
        assert 0 < started.sum() < len(bend_run.log)
        # l2 and reweight=False never update the weights, so never log it
        import nrreg.solver
        updates = []
        update = nrreg.solver.update_weights
        monkeypatch.setattr(nrreg.solver, "update_weights",
                            lambda *args: updates.append(1) or update(*args))
        b = bend_instance
        for changes in ({"variant": "l2"}, {"reweight": False}):
            res = register(b["template"], b["target"], b["landmarks"],
                           replace(cfg, outer_iters=6, **changes))
            # acquisition ends before the last outer iteration
            assert any(e["mean_displacement"] < REWEIGHT_START_TOL
                       for e in res.log[:-1])
            assert not any(e["reweighted"] for e in res.log)
        assert updates == []

    @pytest.mark.parametrize("variant", ["dual_sparse", "l2"])
    def test_unanchored_component_named(self, variant, monkeypatch):
        # the second strip has no landmark and no match: its vertices, and
        # only they, are the suspects, named by the first factorization
        import nrreg.solver
        calls = []
        factorize = nrreg.solver.factorize_system
        monkeypatch.setattr(nrreg.solver, "factorize_system",
                            lambda *args: calls.append(1) or factorize(*args))
        template, target, landmarks = two_strips()
        with pytest.raises(SingularSystemError) as exc:
            register(template, target, landmarks, SolverConfig(variant=variant))
        assert len(calls) == 1
        assert exc.value.vertex_blocks == tuple(range(24, 48))

    def test_far_target_no_correspondences(self, bend_instance):
        b = bend_instance
        far = replace(b["target"], vertices=b["target"].vertices + [100.0, 0, 0])
        with pytest.raises(RuntimeError,
                           match="no correspondences at outer iteration 1"):
            register(b["template"], far, None, b["cfg"])

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
        x, _ = solve_l2_baseline(sys_, alpha=1.0)
        assert np.abs(x.apply(sys_.structure.vh[:, :3]) - sys_.U_f).max() < 1e-8

    def test_faceless_singular_vertices_have_in_degree_below_three(self):
        # in node-relative unknowns vertex j's linear part enters only the
        # rows of the k-NN edges (i, j) into it, through v_i - v_j; with fewer
        # than three and no rotation penalty (l2 has none) it keeps a free
        # direction: the failure is structural, and names exactly those
        strip = perturb_noise(make_strip(25, 8, 0.1, relief=0.5), 0.05, seed=1)
        template = Shape(vertices=strip.vertices)
        cfg = SolverConfig(variant="l2")
        edges = build_edge_graph(template, cfg.knn_k)
        in_degree = np.bincount(edges[:, 1], minlength=template.n_vertices)
        expected = tuple(np.flatnonzero(in_degree < 3).tolist())
        assert len(expected) == 2
        with pytest.raises(SingularSystemError) as exc:
            register(template, Shape(vertices=template.vertices + 0.01),
                     landmark_subset(template.n_vertices, 0.2, seed=1), cfg)
        assert exc.value.vertex_blocks == expected
        assert str(exc.value) == ("singular system: zero pivot; suspect vertex "
                                  f"blocks {list(expected)}")

    def test_duplicate_template_vertices(self):
        # dual_sparse converges; under l2 the named vertices are exactly
        # those whose incoming k-NN edge vectors v_i - v_j span fewer than
        # three directions (an edge to a duplicate twin has length zero), so
        # with no rotation penalty their linear parts keep a free direction
        template, target = duplicated_strip()
        assert register(template, target, None, SolverConfig()).converged
        v = template.vertices
        edges = build_edge_graph(template, SolverConfig().knn_k)
        assert [j for j in range(len(v)) if np.linalg.matrix_rank(
            v[edges[edges[:, 1] == j, 0]] - v[j], tol=1e-9) < 3] == DUPLICATE_SUSPECTS
        with pytest.raises(SingularSystemError) as exc:
            register(template, target, None, SolverConfig(variant="l2"))
        assert exc.value.vertex_blocks == tuple(DUPLICATE_SUSPECTS)
        assert str(exc.value) == ("singular system: zero pivot; suspect vertex "
                                  f"blocks {DUPLICATE_SUSPECTS}")

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
        sys_ = assemble_system(SystemStructure(verts, edges), corr, target)
        x, _ = solve_l2_baseline(sys_, alpha=1e8)
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
        sys_ = assemble_system(SystemStructure(verts, edges), corr, target)
        alpha = 0.7
        x, _ = solve_l2_baseline(sys_, alpha)
        w = (sys_.w_data > 0).astype(float)
        V = data_operator(sys_.structure.vh).toarray() * w[:, None]
        B = sys_.structure.B.toarray()
        a = V.T @ V + alpha * B.T @ B
        rhs = V.T @ (w[:, None] * sys_.U_f)
        dense = np.linalg.solve(a, rhs)
        np.testing.assert_allclose(x.stacked, dense, atol=1e-8)


class TestL2FactorizationReuse:
    """Within one registration the l2 baseline factorizes once per binary
    match mask: its matrix depends on nothing else that changes."""

    @staticmethod
    def l2_run(monkeypatch, template, target, landmarks, cfg):
        """register with the l2 variant; returns the result, each outer
        iteration's system and transforms, and the factorization count."""
        import nrreg.solver
        seen = {"systems": [], "transforms": [], "factorize": 0}
        assemble = nrreg.solver.assemble_system
        solve = nrreg.solver.solve_X
        factorize = nrreg.solver.factorize_system

        def assembling(*args, **kwargs):
            seen["systems"].append(assemble(*args, **kwargs))
            return seen["systems"][-1]

        def solving(*args):
            seen["transforms"].append(solve(*args))
            return seen["transforms"][-1]

        def factorizing(*args):
            seen["factorize"] += 1
            return factorize(*args)

        monkeypatch.setattr(nrreg.solver, "assemble_system", assembling)
        monkeypatch.setattr(nrreg.solver, "solve_X", solving)
        monkeypatch.setattr(nrreg.solver, "factorize_system", factorizing)
        res = register(template, target, landmarks, replace(cfg, variant="l2"))
        monkeypatch.undo()
        assert len(seen["systems"]) == len(seen["transforms"]) == len(res.log)
        return res, seen

    @staticmethod
    def assert_matches_fresh_solves(seen, alpha):
        # each outer iteration's transforms bit for bit those of a solve
        # that factorizes its own system
        for sys_, x in zip(seen["systems"], seen["transforms"]):
            assert np.array_equal(solve_l2_baseline(sys_, alpha)[0].blocks,
                                  x.blocks)

    def test_returned_pair_reused_only_for_equal_mask(self):
        sys_, _ = aligned_system(n=16, seed=4)
        _, held = solve_l2_baseline(sys_, 1.0)
        assert np.array_equal(held[0], sys_.w_data > 0)
        # new targets, same mask: the pair passed in comes back
        moved = replace(sys_, U_f=sys_.U_f + 0.1)
        x, again = solve_l2_baseline(moved, 1.0, held)
        assert again is held
        assert np.array_equal(x.blocks, solve_l2_baseline(moved, 1.0)[0].blocks)
        # one vertex unmatched: a new pair, for the new mask
        w = sys_.w_data.copy()
        w[3] = 0.0
        _, fresh = solve_l2_baseline(replace(sys_, w_data=w), 1.0, held)
        assert fresh is not held
        assert np.array_equal(fresh[0], w > 0)

    def test_bend_transforms_match_refactorizing_run(self, bend_instance,
                                                     monkeypatch):
        b = bend_instance
        res, seen = self.l2_run(monkeypatch, b["template"], b["target"],
                                b["landmarks"], b["cfg"])
        assert seen["factorize"] == sum(e["factorizations"] for e in res.log) \
            < len(res.log)
        self.assert_matches_fresh_solves(seen, b["cfg"].alpha)

    def test_same_count_new_mask_refactorizes(self, monkeypatch):
        # masks A, B, B, A with one unmatched vertex each: equal match counts,
        # three different matrices in a row
        import nrreg.correspondence
        template = make_strip(8, 4, 0.1, relief=0.5)
        n = template.n_vertices
        target = replace(template, vertices=template.vertices
                         + random_cloud(n, seed=30, scale=0.01))
        a, b = np.arange(1, n + 1), np.arange(1, n + 1)
        a[3] = b[20] = 0
        script = iter([a, b, b, a])
        monkeypatch.setattr(nrreg.correspondence, "closest_point_refresh",
                            lambda *args, **kwargs: CorrespondenceMap(next(script)))
        monkeypatch.setattr(nrreg.solver, "OUTER_TOL", 0.0)
        res, seen = self.l2_run(monkeypatch, template, target, None,
                                SolverConfig(outer_iters=4))
        assert [e["matched"] for e in res.log] == [n - 1] * 4
        assert [e["factorizations"] for e in res.log] == [1, 1, 0, 1]
        assert seen["factorize"] == 3
        self.assert_matches_fresh_solves(seen, 1.0)

    def test_one_factorization_alive(self, monkeypatch):
        # masks A, B, B, A: a new mask frees the old factorization before
        # the next one is built
        import weakref

        import nrreg.correspondence
        import nrreg.solver
        template = make_strip(8, 4, 0.1, relief=0.5)
        n = template.n_vertices
        a, b = np.arange(1, n + 1), np.arange(1, n + 1)
        a[3] = b[20] = 0
        script = iter([a, b, b, a])
        monkeypatch.setattr(nrreg.correspondence, "closest_point_refresh",
                            lambda *args, **kwargs: CorrespondenceMap(next(script)))
        factorize = nrreg.solver.factorize_system
        built, alive = [], []

        def factorizing(*args):
            alive.append(sum(ref() is not None for ref in built))
            handle = factorize(*args)
            built.append(weakref.ref(handle))
            return handle

        monkeypatch.setattr(nrreg.solver, "factorize_system", factorizing)
        monkeypatch.setattr(nrreg.solver, "OUTER_TOL", 0.0)
        res = register(template, template, None,
                       SolverConfig(variant="l2", outer_iters=4))
        assert [e["factorizations"] for e in res.log] == [1, 1, 0, 1]
        assert alive == [0, 0, 0]


class TestVariants:
    @pytest.mark.parametrize("variant", ["dual_sparse", "l2", "snr",
                                         "group_sparse"])
    def test_clean_data_converges(self, variant):
        sys_, _ = aligned_system(n=18, seed=12)
        cfg = SolverConfig(variant=variant)
        if variant == "l2":
            x, _ = solve_l2_baseline(sys_, cfg.alpha)
        else:
            x, _ = admm_solve(sys_, TransformStack.identity(sys_.structure.n), cfg)
        assert np.abs(x.apply(sys_.structure.vh[:, :3]) - sys_.U_f).max() < 1e-6

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
