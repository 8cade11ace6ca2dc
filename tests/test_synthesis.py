"""Ground-truth deformations and the noise/outlier corruption protocols."""

import numpy as np
import pytest

import nrreg
import nrreg.synthesis
from nrreg import Shape, make_strip, perturb_noise, perturb_outliers, synth_deformation
from nrreg.geometry import mean_edge_length, with_normals
from nrreg.synthesis import (
    DeformationSpec,
    landmark_subset,
    rng_from_seed,
    rotation_about_axis,
)

from conftest import make_strip_faces_loop


@pytest.fixture
def strip():
    return make_strip(10, 4, 0.1, relief=0.3)


class TestPerturbNoise:
    def test_zero_sigma_identity(self, strip):
        out = perturb_noise(strip, 0.0, seed=1)
        np.testing.assert_allclose(out.vertices, strip.vertices)

    def test_flat_plane_displacement_along_z(self):
        flat = make_strip(8, 4, 0.1, relief=0.0)
        out = perturb_noise(flat, 0.5, seed=2)
        delta = out.vertices - flat.vertices
        np.testing.assert_allclose(delta[:, :2], 0.0, atol=1e-12)
        assert np.abs(delta[:, 2]).max() > 0

    def test_sample_std_matches_sigma(self):
        big = make_strip(120, 90, 0.1, relief=0.0)   # 10800 vertices
        sigma = 0.4
        lbar = mean_edge_length(big)
        out = perturb_noise(big, sigma, seed=3)
        disp = np.linalg.norm(out.vertices - big.vertices, axis=1)
        signed = (out.vertices - big.vertices)[:, 2]
        assert np.std(signed) == pytest.approx(sigma * lbar, rel=0.05)
        assert np.mean(disp > 0) > 0.99

    def test_displacement_parallel_to_normals(self, strip):
        shaped = with_normals(strip)
        out = perturb_noise(shaped, 0.7, seed=4)
        delta = out.vertices - shaped.vertices
        cross = np.cross(delta, shaped.normals)
        assert np.abs(cross).max() < 1e-9

    def test_faceless_shape_has_no_normals_to_follow(self, strip):
        cloud = Shape(vertices=strip.vertices)
        assert with_normals(cloud) is cloud
        with pytest.raises(ValueError, match="vertex normals require faces"):
            perturb_noise(cloud, 0.3, seed=1)

    def test_deterministic_and_preserves_topology(self, strip):
        a = perturb_noise(strip, 0.3, seed=9)
        b = perturb_noise(strip, 0.3, seed=9)
        assert np.array_equal(a.vertices, b.vertices)
        assert np.array_equal(a.faces, strip.faces)
        assert a.n_vertices == strip.n_vertices


class TestPerturbOutliers:
    def test_zero_fraction_identity(self, strip):
        out, idx = perturb_outliers(strip, 0.0, 3.0, seed=1)
        np.testing.assert_allclose(out.vertices, strip.vertices)
        assert len(idx) == 0

    def test_full_fraction_equals_noise(self, strip):
        noise = perturb_noise(strip, 3.0, seed=5)
        out, idx = perturb_outliers(strip, 1.0, 3.0, seed=5)
        np.testing.assert_allclose(out.vertices, noise.vertices, atol=1e-12)
        assert len(idx) == strip.n_vertices

    def test_floor_count(self):
        big = make_strip(50, 20, 0.1)   # 1000 vertices
        out, idx = perturb_outliers(big, 0.05, 3.0, seed=6)
        assert len(idx) == 50
        moved = np.flatnonzero(np.any(out.vertices != big.vertices, axis=1))
        assert set(moved) <= set(idx)

    def test_fraction_out_of_range(self, strip):
        with pytest.raises(ValueError):
            perturb_outliers(strip, 1.5, 3.0)

    def test_results_carry_no_stale_normals(self):
        # the input's normals do not fit the moved surface; a corruption
        # applied to a corrupted shape moves along the moved surface's normals
        strip = make_strip(10, 4, 0.1, relief=0.5)
        noisy = perturb_noise(strip, 0.5, seed=1)
        out, idx = perturb_outliers(noisy, 0.2, 3.0, seed=2)
        assert noisy.normals is None and out.normals is None
        delta = out.vertices[idx] - noisy.vertices[idx]
        cross = np.cross(delta, with_normals(noisy).normals[idx])
        assert len(idx) and np.abs(cross).max() < 1e-9

    @pytest.mark.parametrize("sigma", [-1.0, np.nan, np.inf])
    def test_sigma_must_be_nonnegative_and_finite(self, strip, sigma):
        # both protocols check sigma where they displace, before any draw
        match = f"sigma must be nonnegative and finite, got {sigma}"
        with pytest.raises(ValueError, match=match):
            perturb_noise(strip, sigma)
        with pytest.raises(ValueError, match=match):
            perturb_outliers(strip, 0.1, sigma)

    def test_no_corruption_spec_layer(self):
        # perturb calls the two protocols directly
        assert not hasattr(nrreg, "CorruptionSpec")
        assert not hasattr(nrreg.synthesis, "CorruptionSpec")
        assert not hasattr(nrreg.synthesis, "apply_corruption")


class TestSynthDeformation:
    def test_global_rigid_exact(self, strip):
        spec = DeformationSpec(kind="rigid", angle_deg=30.0, axis=(0, 0, 1))
        target, gt, stack = synth_deformation(strip, spec)
        rot = rotation_about_axis((0, 0, 1), 30.0)
        np.testing.assert_allclose(target.vertices, strip.vertices @ rot.T,
                                   atol=1e-12)
        np.testing.assert_allclose(stack.apply(strip.vertices), gt, atol=1e-12)

    def test_zero_angle_bend_identity(self, strip):
        spec = DeformationSpec(kind="bend", angle_deg=0.0, axis=(0, 1, 0),
                               band_start=0.3, band_end=0.6)
        target, _, _ = synth_deformation(strip, spec)
        np.testing.assert_allclose(target.vertices, strip.vertices, atol=1e-12)

    def test_band_vertices_are_convex_combinations(self):
        narrow = make_strip(10, 2, 0.1)
        spec = DeformationSpec(kind="bend", angle_deg=45.0, axis=(0, 1, 0),
                               axis_point=(0.45, 0, 0),
                               blend_direction=(1, 0, 0),
                               band_start=0.25, band_end=0.65)
        target, _, _ = synth_deformation(narrow, spec)
        rot = rotation_about_axis((0, 1, 0), 45.0)
        pivot = np.array([0.45, 0, 0])
        x = narrow.vertices[:, 0]
        band = (x > 0.25) & (x < 0.65)
        assert band.any()
        fixed_pred = narrow.vertices
        bent_pred = (narrow.vertices - pivot) @ rot.T + pivot
        # independently evaluated blend weight per vertex
        t = np.clip((x - 0.25) / 0.4, 0.0, 1.0)
        expect = (1 - t)[:, None] * fixed_pred + t[:, None] * bent_pred
        np.testing.assert_allclose(target.vertices, expect, atol=1e-12)
        seg = bent_pred[band] - fixed_pred[band]
        frac = np.einsum("ij,ij->i", target.vertices[band] - fixed_pred[band],
                         seg) / np.einsum("ij,ij->i", seg, seg)
        assert np.all((frac > 0) & (frac < 1))

    def test_regions_deformation(self, strip):
        idx = tuple(range(5))
        spec = DeformationSpec(kind="regions",
                               regions=((idx, 90.0, (0, 0, 1), (0, 0, 0)),))
        target, _, stack = synth_deformation(strip, spec)
        rot = rotation_about_axis((0, 0, 1), 90.0)
        np.testing.assert_allclose(target.vertices[list(idx)],
                                   strip.vertices[list(idx)] @ rot.T,
                                   atol=1e-12)
        np.testing.assert_allclose(target.vertices[5:], strip.vertices[5:],
                                   atol=1e-12)

    def test_empty_region_rejected(self, strip):
        spec = DeformationSpec(kind="regions", regions=(((), 10.0, (0, 0, 1),
                                                         (0, 0, 0)),))
        with pytest.raises(ValueError, match="empty region"):
            synth_deformation(strip, spec)

    def test_regions_deformation_needs_a_region(self, strip):
        with pytest.raises(ValueError,
                           match="regions deformation needs at least one region"):
            synth_deformation(strip, DeformationSpec(kind="regions"))

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            DeformationSpec(kind="twist")
        with pytest.raises(ValueError):
            DeformationSpec(kind="bend", band_start=1.0, band_end=0.5)

    @pytest.mark.parametrize("field,value", [
        ("angle_deg", np.inf), ("angle_deg", np.nan), ("band_start", np.nan),
        ("band_end", -np.inf), ("axis", (0.0, np.nan, 1.0)),
        ("axis_point", (np.inf, 0.0, 0.0)), ("translation", (0.0, 0.0, -np.inf)),
        ("blend_direction", (np.nan, 0.0, 0.0))])
    def test_non_finite_field_named(self, field, value):
        # every real is checked for finiteness, before the band order (which
        # a NaN band fails too)
        with pytest.raises(ValueError, match=f"^{field} must be finite, got "):
            DeformationSpec(kind="bend", **{field: value})


class TestHelpers:
    def test_rotation_about_axis_orthonormal(self):
        r = rotation_about_axis((1, 2, 3), 77.0)
        np.testing.assert_allclose(r.T @ r, np.eye(3), atol=1e-12)
        assert np.linalg.det(r) == pytest.approx(1.0)

    def test_zero_axis_rejected(self):
        with pytest.raises(ValueError):
            rotation_about_axis((0, 0, 0), 10.0)

    def test_strip_every_vertex_has_three_neighbors(self):
        strip = make_strip(12, 5, 0.1, relief=0.4)
        und = np.sort(strip.edges, axis=1)
        und = np.unique(und, axis=0)
        deg = np.bincount(und.ravel(), minlength=strip.n_vertices)
        assert deg.min() >= 3

    def test_landmark_subset_count_and_determinism(self):
        a = landmark_subset(200, 0.1, seed=1)
        b = landmark_subset(200, 0.1, seed=1)
        assert a.n_matched() == 20
        assert np.array_equal(a.mapping, b.mapping)
        m = a.matched
        assert np.array_equal(a.target_indices[m], np.flatnonzero(m))

    @pytest.mark.parametrize("nx, ny", [(1, 4), (4, 1), (1, 1), (0, 3)])
    def test_strip_needs_two_rows_each_way(self, nx, ny):
        with pytest.raises(ValueError, match="nx >= 2 and ny >= 2"):
            make_strip(nx, ny)

    @pytest.mark.parametrize("spacing, relief, name", [
        (0.0, 0.5, "spacing"), (-0.1, 0.5, "spacing"), (np.nan, 0.5, "spacing"),
        (np.inf, 0.5, "spacing"), (0.0, 0.0, "spacing"), (0.1, np.nan, "relief"),
        (0.1, np.inf, "relief")])
    def test_strip_geometry_must_be_finite(self, spacing, relief, name):
        # a zero spacing with zero relief would put every vertex on one point
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            make_strip(4, 3, spacing, relief)

    def test_smallest_strip_is_one_quad(self):
        assert make_strip(2, 2).faces.shape == (2, 3)

    @pytest.mark.parametrize("nx, ny", [(2, 2), (2, 5), (5, 2), (3, 3), (25, 8),
                                        (800, 8), (40, 40)])
    def test_strip_faces_match_quad_loop(self, nx, ny):
        # the same faces in the same order: vertex normals sum in face order
        faces = make_strip(nx, ny).faces
        want = make_strip_faces_loop(nx, ny)
        assert faces.dtype == want.dtype and np.array_equal(faces, want)

    @pytest.mark.parametrize("fraction", [0.0, -0.1, 1.5, 2.0, np.nan])
    def test_landmark_fraction_out_of_range(self, fraction):
        with pytest.raises(ValueError, match=r"landmark fraction must be in \(0, 1\]"):
            landmark_subset(12, fraction)

    def test_landmark_fraction_one_takes_every_vertex(self):
        assert landmark_subset(12, 1.0).n_matched() == 12

    def test_counter_based_generator_reproducible(self):
        x = rng_from_seed(123).standard_normal(8)
        y = rng_from_seed(123).standard_normal(8)
        assert np.array_equal(x, y)
