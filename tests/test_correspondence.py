"""Correspondence maps, file I/O, closest-point refresh and merging."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nrreg import CorrespondenceMap, closest_point_refresh, load_correspondences, merge
from nrreg.correspondence import save_correspondences
from nrreg.geometry import Shape, build_edge_graph, mean_edge_length

from conftest import brute_force_closest, random_cloud, tie_rich_clouds


class TestLoadCorrespondences:
    def test_direct_encoding(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("0 5\n2 7\n")
        corr = load_correspondences(path, 3, 10)
        assert corr.mapping.tolist() == [6, 0, 8]
        assert corr.weights.tolist() == [1.0, 0.0, 1.0]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("")
        corr = load_correspondences(path, 4, 4)
        assert corr.n_matched() == 0
        assert corr.weights.tolist() == [0.0] * 4

    def test_target_index_at_bound_rejected(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("0 4\n")
        with pytest.raises(ValueError, match="target index 4 out of range"):
            load_correspondences(path, 3, 4)

    def test_duplicate_template_index_rejected(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("1 0\n1 2\n")
        with pytest.raises(ValueError, match="duplicate template index 1"):
            load_correspondences(path, 3, 4)

    @pytest.mark.parametrize("text, message", [
        ("0 1\n0 1 2\n", "c.txt:2: expected 'i j' pair"),
        ("0 x\n", "c.txt:1: non-integer index"),
        ("3 0\n", r"c.txt:1: template index 3 out of range \[0, 3\)"),
        ("-1 0\n", r"c.txt:1: template index -1 out of range \[0, 3\)"),
    ])
    def test_bad_line_named(self, tmp_path, text, message):
        path = tmp_path / "c.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            load_correspondences(path, 3, 4)

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("# template target\n\n0 1\n   \n#2 3\n2 0\n")
        corr = load_correspondences(path, 3, 4)
        assert corr.mapping.tolist() == [2, 0, 1]

    def test_roundtrip(self, tmp_path):
        corr = CorrespondenceMap(np.array([3, 0, 1, 0]))
        path = tmp_path / "c.txt"
        save_correspondences(corr, path)
        back = load_correspondences(path, 4, 5)
        assert np.array_equal(back.mapping, corr.mapping)


class TestClosestPointRefresh:
    def test_identical_shapes_self_match(self):
        verts = random_cloud(30, seed=4)
        shape = Shape(vertices=verts)
        corr = closest_point_refresh(shape, shape)
        assert np.array_equal(corr.target_indices, np.arange(30))

    def test_tie_break_lowest_target_index(self):
        template = Shape(vertices=np.array([[0.0, 0, 0]]))
        tv = np.zeros((8, 3))
        tv[:, 0] = [9, 9, 9, 1, 9, 9, 9, -1]   # indices 3 and 7 equidistant
        target = Shape(vertices=tv)
        corr = closest_point_refresh(template, target)
        assert corr.target_indices[0] == 3

    def test_against_brute_force_oracle(self):
        dv = random_cloud(40, seed=11)
        tv = random_cloud(60, seed=12)
        corr = closest_point_refresh(Shape(vertices=dv), Shape(vertices=tv))
        d2 = np.sum((dv[:, None] - tv[None, :]) ** 2, axis=2)
        assert np.array_equal(corr.target_indices, np.argmin(d2, axis=1))

    @pytest.mark.parametrize("name", sorted(tie_rich_clouds()))
    def test_tie_rich_matches_brute_force_oracle(self, name):
        tv = tie_rich_clouds()[name]
        for dv in (tv, tv + 0.5, tv[::-1] + 0.25):
            corr = closest_point_refresh(Shape(vertices=dv), Shape(vertices=tv))
            assert np.array_equal(corr.target_indices, brute_force_closest(dv, tv)[0])

    def test_empty_thresholds_validation(self):
        shape = Shape(vertices=random_cloud(3, seed=0))
        for gate, angle in ((-1.0, 60.0), (np.nan, 60.0), (np.inf, 0.0)):
            with pytest.raises(ValueError):
                closest_point_refresh(shape, shape, gate, angle)

    def test_zero_gate_accepts_exact_hits_only(self):
        tv = random_cloud(6, seed=3)
        dv = tv.copy()
        dv[::2] += 1e-9
        corr = closest_point_refresh(Shape(vertices=dv), Shape(vertices=tv), 0.0)
        assert corr.mapping.tolist() == [0, 2, 0, 4, 0, 6]

    def test_all_matched_with_infinite_gates(self):
        dv = random_cloud(25, seed=1)
        tv = random_cloud(25, seed=2)
        corr = closest_point_refresh(Shape(vertices=dv), Shape(vertices=tv),
                                     max_normal_angle=180.0)
        assert corr.n_matched() == 25

    @given(st.floats(0.2, 3.0), st.floats(0.2, 3.0))
    @settings(max_examples=25, deadline=None)
    def test_distance_gate_monotone(self, a, b):
        # shrinking the gate never converts an unmatched vertex to matched
        dv = random_cloud(20, seed=21, scale=2.0)
        tv = random_cloud(20, seed=22)
        target = Shape(vertices=tv)
        lo, hi = sorted([a, b])
        m_lo = closest_point_refresh(Shape(vertices=dv), target, gate=lo)
        m_hi = closest_point_refresh(Shape(vertices=dv), target, gate=hi)
        assert np.all(m_hi.matched | ~m_lo.matched)

    @given(st.integers(0, 2**31), st.sampled_from([None, 1, 0]),
           st.sampled_from([0.5, 1.5, 3.0, np.inf]), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_shared_tree_same_map(self, seed, decimals, max_dist, normals):
        # a caller's tree over the target gives the map of a tree built per
        # call, which is the exhaustive closest point behind both gates
        from scipy.spatial import cKDTree
        tv, dv = random_cloud(60, seed), random_cloud(40, seed + 1, scale=1.5)
        if decimals is not None:
            tv, dv = np.round(tv, decimals), np.round(dv, decimals)
        rng = np.random.default_rng(seed)
        tn, dn = (rng.normal(size=(len(v), 3)) for v in (tv, dv))
        tn /= np.linalg.norm(tn, axis=1, keepdims=True)
        dn /= np.linalg.norm(dn, axis=1, keepdims=True)
        target = Shape(vertices=tv, normals=tn if normals else None)
        gate = max_dist * mean_edge_length(replace(target,
                                                   edges=build_edge_graph(target)))
        deformed = Shape(vertices=dv, normals=dn if normals else None)
        fresh = closest_point_refresh(deformed, target, gate)
        shared = closest_point_refresh(deformed, target, gate, 60.0, cKDTree(tv))
        assert np.array_equal(shared.mapping, fresh.mapping)
        nearest, dist = brute_force_closest(dv, tv)
        accept = dist <= gate
        if normals:
            accept &= np.sum(dn * tn[nearest], axis=1) >= np.cos(np.deg2rad(60.0))
        assert np.array_equal(fresh.mapping, np.where(accept, nearest + 1, 0))

    def test_beyond_gate_never_reads_target_normals(self):
        # the far vertex has no target within the gate, so its search result
        # is index n (out of range for the normals); the last target normal,
        # which index -1 would pick, agrees with its own normal
        tv = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]])
        tn = np.array([[0.0, 0, -1], [0, 0, -1], [0, 0, -1], [0, 0, 1]])
        target = Shape(vertices=tv, faces=[[0, 1, 2], [1, 3, 2]], normals=tn)
        deformed = Shape(vertices=[[0.1, 0, 0.1], [50, 50, 50]],
                         normals=[[0.0, 0, -1], [0, 0, 1]])
        corr = closest_point_refresh(deformed, target, gate=1.0)
        assert corr.mapping.tolist() == [1, 0]

    def test_normal_gate_rejects_opposed_normals(self):
        up = np.tile([0.0, 0.0, 1.0], (4, 1))
        down = -up
        verts = random_cloud(4, seed=3)
        src = Shape(vertices=verts, normals=up)
        tgt = Shape(vertices=verts, normals=down)
        corr = closest_point_refresh(src, tgt, max_normal_angle=60.0)
        assert corr.n_matched() == 0


class TestMerge:
    def test_empty_fixed_yields_refreshed(self):
        refreshed = CorrespondenceMap(np.array([2, 0, 3]))
        out = merge(CorrespondenceMap.empty(3), refreshed)
        assert np.array_equal(out.mapping, refreshed.mapping)

    def test_full_fixed_wins(self):
        fixed = CorrespondenceMap(np.array([1, 2, 3]))
        refreshed = CorrespondenceMap(np.array([3, 2, 1]))
        out = merge(fixed, refreshed)
        assert np.array_equal(out.mapping, fixed.mapping)

    def test_disjoint_supports_union(self):
        fixed = CorrespondenceMap(np.array([5, 0, 0, 0]))
        refreshed = CorrespondenceMap(np.array([0, 0, 7, 0]))
        out = merge(fixed, refreshed)
        assert out.mapping.tolist() == [5, 0, 7, 0]

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            merge(CorrespondenceMap.empty(2), CorrespondenceMap.empty(3))


class TestMapInvariants:
    def test_weights_match_support(self):
        corr = CorrespondenceMap(np.array([0, 4, 0, 1]))
        assert np.array_equal(corr.weights > 0, corr.mapping != 0)

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError):
            CorrespondenceMap(np.array([-1, 0]))

    def test_two_dimensional_mapping_rejected(self):
        with pytest.raises(ValueError, match="mapping must be 1-D"):
            CorrespondenceMap(np.zeros((2, 2), dtype=np.int64))
