"""Error reports, residual samples and Laplace/Gauss distribution fits."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nrreg import (
    CorrespondenceMap,
    TransformStack,
    fit_residual_distributions,
    fitting_error,
    register,
    residuals_for_analysis,
)
from nrreg.geometry import Shape
from nrreg.metrics import _fd_histogram, error_colors, mean_distance_error

from conftest import random_cloud


def identity_offset_stack(n, offsets):
    blocks = np.zeros((n, 3, 4))
    blocks[:, :, :3] = np.eye(3)
    blocks[:, :, 3] = offsets
    return TransformStack(blocks)


class TestFittingError:
    def test_ground_truth_transforms_zero(self):
        verts = random_cloud(20, seed=1)
        x = TransformStack.identity(20)
        report = fitting_error(x, Shape(vertices=verts), verts)
        np.testing.assert_allclose(report.per_vertex, 0.0)
        assert report.mean == report.median == report.max == 0.0

    def test_three_four_five(self):
        verts = np.array([[0.0, 0, 0]])
        x = identity_offset_stack(1, np.array([[0.0, 3.0, 4.0]]))
        report = fitting_error(x, Shape(vertices=verts), verts)
        assert report.per_vertex[0] == pytest.approx(25.0)

    def test_matches_naive_loop_oracle(self):
        verts = random_cloud(15, seed=2)
        gt = random_cloud(15, seed=3)
        blocks = np.random.default_rng(4).standard_normal((15, 3, 4))
        x = TransformStack(blocks)
        report = fitting_error(x, Shape(vertices=verts), gt)
        for i in range(15):
            moved = blocks[i] @ np.append(verts[i], 1.0)
            assert report.per_vertex[i] == pytest.approx(
                float(np.sum((moved - gt[i]) ** 2)), abs=1e-10)
        assert report.mean == pytest.approx(report.per_vertex.mean())
        assert mean_distance_error(x, Shape(vertices=verts), gt) == \
            pytest.approx(np.mean(np.sqrt(report.per_vertex)))

    def test_length_mismatch(self):
        verts = random_cloud(5, seed=5)
        with pytest.raises(ValueError, match="ground truth"):
            fitting_error(TransformStack.identity(5), Shape(vertices=verts),
                          verts[:3])

    def test_invariant_under_reindexing(self):
        verts = random_cloud(12, seed=6)
        gt = random_cloud(12, seed=7)
        blocks = np.random.default_rng(8).standard_normal((12, 3, 4))
        perm = np.random.default_rng(9).permutation(12)
        a = fitting_error(TransformStack(blocks), Shape(vertices=verts), gt)
        b = fitting_error(TransformStack(blocks[perm]),
                          Shape(vertices=verts[perm]), gt[perm])
        assert a.mean == pytest.approx(b.mean)
        np.testing.assert_allclose(np.sort(a.per_vertex),
                                   np.sort(b.per_vertex))

    def test_colored_mesh_matches_topology(self):
        verts = random_cloud(9, seed=10)
        faces = np.array([[0, 1, 2], [3, 4, 5]])
        shape = Shape(vertices=verts, faces=faces)
        report = fitting_error(TransformStack.identity(9), shape, verts)
        assert report.colored_mesh.n_vertices == 9
        assert np.array_equal(report.colored_mesh.faces, faces)
        assert report.colored_mesh.colors.shape == (9, 3)

    def test_histogram_bins_capped_at_sqrt_n(self, bend_instance):
        # a converged registration's squared errors have an IQR of rounding
        # noise, for which Freedman-Diaconis asks for billions of bins
        b = bend_instance
        res = register(b["template"], b["target"], b["landmarks"], b["cfg"])
        assert res.converged
        n = b["template"].n_vertices
        edges, counts = fitting_error(res.transforms, b["template"], b["gt"]).histogram
        assert len(counts) <= np.ceil(np.sqrt(n)) and counts.sum() == n
        assert len(edges) == len(counts) + 1

    def test_histogram_gaussian_sample_keeps_fd_count(self):
        v = np.random.default_rng(3).standard_normal(2000)
        q75, q25 = np.percentile(v, [75, 25])
        fd = int(np.ceil((v.max() - v.min()) / (2 * (q75 - q25) / np.cbrt(len(v)))))
        _, counts = _fd_histogram(v)
        assert len(counts) == fd < np.sqrt(len(v))
        assert counts.sum() == len(v)

    def test_error_colors_ramp(self):
        colors = error_colors(np.array([0.0, 1.0]))
        assert tuple(colors[0]) == (0, 0, 255)    # low error: blue
        assert tuple(colors[1]) == (255, 0, 0)    # high error: red


class TestFitResidualDistributions:
    def test_closed_form_three_samples(self):
        fit = fit_residual_distributions(np.array([-1.0, 0.0, 1.0] * 4))
        assert fit.laplace[0] == pytest.approx(0.0)
        assert fit.laplace[1] == pytest.approx(2.0 / 3.0)
        assert fit.gauss[0] == pytest.approx(0.0)
        assert fit.gauss[1] == pytest.approx(np.sqrt(2.0 / 3.0))

    def test_laplace_samples_prefer_laplace(self):
        x = np.random.default_rng(11).laplace(0.0, 1.0, 10_000)
        fit = fit_residual_distributions(x)
        assert fit.loglik_laplace > fit.loglik_gauss

    def test_gaussian_samples_prefer_gauss(self):
        x = np.random.default_rng(12).standard_normal(10_000)
        fit = fit_residual_distributions(x)
        assert fit.loglik_gauss > fit.loglik_laplace

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="10 samples"):
            fit_residual_distributions(np.arange(5.0))

    def test_zero_spread(self):
        with pytest.raises(ValueError, match="spread"):
            fit_residual_distributions(np.ones(20))

    @given(st.floats(0.01, 100.0))
    @settings(max_examples=25, deadline=None)
    def test_ordering_invariant_under_positive_scaling(self, scale):
        x = np.random.default_rng(13).laplace(0.0, 1.0, 2000)
        base = fit_residual_distributions(x)
        scaled = fit_residual_distributions(scale * x)
        assert (base.loglik_laplace > base.loglik_gauss) == \
            (scaled.loglik_laplace > scaled.loglik_gauss)


class TestResidualsForAnalysis:
    def offsets(self, x, verts, target, mapping):
        # moved position minus matched target, over the matched vertices
        corr = CorrespondenceMap(np.asarray(mapping))
        m = corr.matched
        return x.apply(verts)[m] - np.asarray(target)[corr.target_indices[m]]

    def test_exact_alignment_zero_samples(self):
        verts = random_cloud(8, seed=14)
        x = TransformStack.identity(8)
        res = residuals_for_analysis(self.offsets(x, verts, verts, np.arange(1, 9)))
        np.testing.assert_allclose(res, 0.0, atol=1e-12)

    def test_single_offset_vertex_samples(self):
        verts = random_cloud(4, seed=15)
        target = verts.copy()
        target[2] -= np.array([1.0, -2.0, 0.0])
        x = TransformStack.identity(4)
        offsets = self.offsets(x, verts, target, [0, 0, 3, 0])
        per_axis = residuals_for_analysis(offsets, "per_axis_l1")
        np.testing.assert_allclose(np.sort(per_axis), [-2.0, 0.0, 1.0])
        euclid = residuals_for_analysis(offsets, "euclidean")
        np.testing.assert_allclose(euclid, [np.sqrt(5.0)])

    def test_sample_count_relation(self):
        verts = random_cloud(10, seed=16)
        target = random_cloud(10, seed=17)
        x = TransformStack.identity(10)
        offsets = self.offsets(x, verts, target, np.arange(1, 11))
        per_axis = residuals_for_analysis(offsets, "per_axis_l1")
        euclid = residuals_for_analysis(offsets, "euclidean")
        assert len(per_axis) == 3 * len(euclid)

    def test_no_matches_error(self):
        verts = random_cloud(4, seed=18)
        offsets = self.offsets(TransformStack.identity(4), verts, verts, [0, 0, 0, 0])
        with pytest.raises(ValueError, match="no matched"):
            residuals_for_analysis(offsets)

    def test_unknown_mode(self):
        verts = random_cloud(4, seed=19)
        offsets = self.offsets(TransformStack.identity(4), verts, verts, [1, 2, 3, 4])
        with pytest.raises(ValueError, match="mode"):
            residuals_for_analysis(offsets, "l3")
