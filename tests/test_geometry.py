"""Shape I/O, edge graphs, edge statistics and vertex normals."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nrreg import Shape, build_edge_graph, load_shape, mean_edge_length, save_shape
from nrreg.geometry import (
    MeshParseError,
    compute_vertex_normals,
    edges_from_faces,
    knn_edges,
    nearest_neighbors,
    unique_undirected,
)

from conftest import (
    brute_force_closest,
    brute_force_knn,
    edges_from_faces_row_unique,
    random_cloud,
    tie_rich_clouds,
    unique_rows_undirected,
)

# six targets equidistant from the origin: the kd-tree's candidate list for
# the origin ends on a tie, so the query is resolved exhaustively
OCTAHEDRON = np.array([[1.0, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0],
                       [0, 0, 1], [0, 0, -1]])


class TestLoadShape:
    def test_minimal_obj(self, triangle_obj):
        shape = load_shape(triangle_obj)
        assert shape.n_vertices == 3
        assert shape.faces.shape == (1, 3)
        # both orientations of the 3 mesh edges
        assert len(shape.edges) == 6
        assert len(unique_undirected(shape.edges)) == 3

    def test_ply_with_colors_preserves_vertices(self, tmp_path):
        path = tmp_path / "c.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 2\n"
            "property double x\nproperty double y\nproperty double z\n"
            "property uchar red\nproperty uchar green\nproperty uchar blue\n"
            "end_header\n0 0 0 255 0 0\n1 2 3 0 255 0\n")
        shape = load_shape(path)
        assert shape.n_vertices == 2
        np.testing.assert_allclose(shape.vertices, [[0, 0, 0], [1, 2, 3]])

    def test_truncated_obj_names_line(self, tmp_path):
        path = tmp_path / "bad.obj"
        path.write_text("v 0 0 0\nv 1 0\n")
        with pytest.raises(MeshParseError, match="bad.obj:2"):
            load_shape(path)

    def test_truncated_ply_reports_error(self, tmp_path):
        path = tmp_path / "bad.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 3\n"
            "property double x\nproperty double y\nproperty double z\n"
            "end_header\n0 0 0\n1 1 1\n")
        with pytest.raises(MeshParseError, match="truncated"):
            load_shape(path)

    def test_empty_vertex_set_rejected(self, tmp_path):
        path = tmp_path / "empty.obj"
        path.write_text("# nothing\n")
        with pytest.raises(MeshParseError, match="no vertices"):
            load_shape(path)


class TestRoundTrip:
    def test_binary_ply_bit_exact(self, tmp_path, square_shape):
        path = tmp_path / "rt.ply"
        save_shape(square_shape, path, binary=True)
        back = load_shape(path)
        assert np.array_equal(back.vertices, square_shape.vertices)
        assert np.array_equal(back.faces, square_shape.faces)

    @pytest.mark.parametrize("ext", ["obj", "ply"])
    def test_text_formats_within_1e6(self, tmp_path, ext):
        verts = random_cloud(40, seed=3)
        shape = Shape(vertices=verts)
        path = tmp_path / f"rt.{ext}"
        save_shape(shape, path)
        back = load_shape(path)
        np.testing.assert_allclose(back.vertices, verts, atol=1e-6)


class TestBuildEdgeGraph:
    def test_collinear_points_k1(self):
        shape = Shape(vertices=np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0]]))
        edges = build_edge_graph(shape, k=1)
        assert set(map(tuple, edges)) == {(0, 1), (1, 0), (2, 1)}

    def test_single_face_mesh(self, triangle_obj):
        shape = load_shape(triangle_obj)
        edges = build_edge_graph(shape, k=2)
        assert len(edges) == 6
        assert set(map(tuple, edges)) == {(0, 1), (1, 0), (1, 2), (2, 1),
                                          (0, 2), (2, 0)}

    def test_knn_against_brute_force_oracle(self):
        verts = random_cloud(100, seed=7)
        edges = knn_edges(verts, 6)
        out_deg = np.bincount(edges[:, 0], minlength=100)
        assert np.all(out_deg == 6)
        # exhaustive all-pairs oracle with the same lowest-index tie-break
        d2 = np.sum((verts[:, None] - verts[None, :]) ** 2, axis=2)
        np.fill_diagonal(d2, np.inf)
        for i in range(100):
            expect = np.argsort(d2[i], kind="stable")[:6]
            got = edges[edges[:, 0] == i][:, 1]
            assert np.array_equal(got, expect)

    def test_k_out_of_range(self):
        shape = Shape(vertices=random_cloud(5, seed=0))
        with pytest.raises(ValueError):
            build_edge_graph(shape, k=5)

    def test_deterministic_ordering(self):
        verts = random_cloud(50, seed=9)
        a = knn_edges(verts, 4)
        b = knn_edges(verts.copy(), 4)
        assert np.array_equal(a, b)

    def test_duplicate_points_tie_break_lowest_index(self):
        verts = np.array([[0.0, 0, 0], [0, 0, 0], [0, 0, 0], [5, 0, 0]])
        edges = knn_edges(verts, 1)
        assert tuple(edges[3]) in {(3, 0)}
        assert tuple(edges[1]) == (1, 0)


class TestNearestNeighbors:
    """The kd-tree search against the exhaustive oracle, ties included."""

    @pytest.mark.parametrize("name", sorted(tie_rich_clouds()))
    @pytest.mark.parametrize("k", [1, 4, 6, 10])
    def test_knn_tie_rich_matches_oracle(self, name, k):
        verts = tie_rich_clouds()[name]
        assert np.array_equal(knn_edges(verts, k), brute_force_knn(verts, k))

    @pytest.mark.parametrize("name", sorted(tie_rich_clouds()))
    def test_closest_tie_rich_matches_oracle(self, name):
        points = tie_rich_clouds()[name]
        rng = np.random.default_rng(3)
        # the points themselves, points between lattice sites, and noise
        for queries in (points, points + 0.5, points + rng.normal(0, 0.3, points.shape)):
            idx, d2 = nearest_neighbors(points, 1, queries)
            want_idx, want_dist = brute_force_closest(queries, points)
            assert np.array_equal(idx[:, 0], want_idx)
            assert np.array_equal(np.sqrt(d2[:, 0]), want_dist)

    def test_equidistant_targets_searched_exhaustively(self, monkeypatch):
        import nrreg.geometry as geometry
        widths, rank = [], geometry._rank_candidates

        def counting_rank(points, queries, cand, k, self_rows):
            widths.append(cand.shape[1])
            return rank(points, queries, cand, k, self_rows)

        monkeypatch.setattr(geometry, "_rank_candidates", counting_rank)
        far = random_cloud(30, seed=8) + 10.0
        points = np.concatenate([far[:20], OCTAHEDRON[::-1], far[20:]])
        idx, d2 = nearest_neighbors(points, 1, np.zeros((1, 3)))
        assert idx.tolist() == [[20]] and d2.tolist() == [[1.0]]
        assert widths[-1] == len(points)  # the fallback ranked every point
        verts = np.concatenate([points, np.zeros((1, 3))])
        edges = knn_edges(verts, 2)
        assert edges[-2:, 1].tolist() == [20, 21]
        assert np.array_equal(edges, brute_force_knn(verts, 2))

    @given(st.integers(0, 2**31), st.integers(2, 120), st.integers(1, 8),
           st.sampled_from([None, 1, 0]))
    @settings(max_examples=60, deadline=None)
    def test_random_clouds_match_oracle(self, seed, n, k, decimals):
        # rounding to a coarse lattice makes exact ties and duplicates common
        verts = random_cloud(n, seed)
        queries = random_cloud(n, seed + 1, scale=1.5)
        if decimals is not None:
            verts, queries = np.round(verts, decimals), np.round(queries, decimals)
        k = min(k, n - 1)
        assert np.array_equal(knn_edges(verts, k), brute_force_knn(verts, k))
        idx, d2 = nearest_neighbors(verts, 1, queries)
        want_idx, want_dist = brute_force_closest(queries, verts)
        assert np.array_equal(idx[:, 0], want_idx)
        assert np.array_equal(np.sqrt(d2[:, 0]), want_dist)

    def test_memory_stays_linear_at_20k(self):
        # all-pairs distances at this size would take 20000**2 * 24 B = 9.6 GB
        import tracemalloc
        from nrreg import closest_point_refresh
        n = 20_000
        template = Shape(vertices=random_cloud(n, seed=1))
        target = Shape(vertices=random_cloud(n, seed=2))
        tracemalloc.start()
        try:
            edges = knn_edges(template.vertices, 6)
            corr = closest_point_refresh(template, target)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert edges.shape == (6 * n, 2) and corr.n == n
        assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MiB"


class TestMeanEdgeLength:
    def test_unit_equilateral_triangle(self):
        verts = np.array([[0.0, 0, 0], [1, 0, 0], [0.5, np.sqrt(3) / 2, 0]])
        shape = Shape(vertices=verts, faces=np.array([[0, 1, 2]]))
        assert mean_edge_length(shape) == pytest.approx(1.0, abs=1e-12)

    def test_two_edges_mean(self):
        verts = np.array([[0.0, 0, 0], [1, 0, 0], [4, 0, 0]])
        shape = Shape(vertices=verts, edges=np.array([[0, 1], [1, 2]]))
        assert mean_edge_length(shape) == pytest.approx(2.0, abs=1e-12)

    def test_matches_naive_loop_oracle(self):
        verts = random_cloud(30, seed=5)
        shape = Shape(vertices=verts, edges=knn_edges(verts, 4))
        seen, total = set(), 0.0
        for i, j in shape.edges:
            key = (min(i, j), max(i, j))
            if key in seen:
                continue
            seen.add(key)
            total += float(np.linalg.norm(verts[i] - verts[j]))
        assert mean_edge_length(shape) == pytest.approx(total / len(seen),
                                                        abs=1e-12)

    def test_no_edges_error(self):
        shape = Shape(vertices=random_cloud(3, seed=1))
        with pytest.raises(ValueError, match="no edges"):
            mean_edge_length(shape)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_invariant_under_renumbering(self, seed):
        verts = random_cloud(20, seed=seed % 1000)
        edges = knn_edges(verts, 3)
        shape = Shape(vertices=verts, edges=edges)
        perm = np.random.default_rng(seed).permutation(20)
        inv = np.argsort(perm)
        shuffled = Shape(vertices=verts[perm], edges=inv[edges])
        assert mean_edge_length(shuffled) == pytest.approx(
            mean_edge_length(shape), rel=1e-12)


class TestVertexNormals:
    def test_flat_square_consistent_sign(self, square_shape):
        normals, fallback = compute_vertex_normals(square_shape)
        assert not fallback.any()
        np.testing.assert_allclose(normals, [[0, 0, 1]] * 4, atol=1e-12)

    def test_sphere_normals_near_radial(self):
        # icosphere-like tessellation from a subdivided octahedron
        nu, nv = 30, 60
        u = np.linspace(0.2, np.pi - 0.2, nu)
        v = np.linspace(0, 2 * np.pi, nv, endpoint=False)
        uu, vv = np.meshgrid(u, v, indexing="ij")
        pts = np.column_stack([(np.sin(uu) * np.cos(vv)).ravel(),
                               (np.sin(uu) * np.sin(vv)).ravel(),
                               np.cos(uu).ravel()])
        faces = []
        for i in range(nu - 1):
            for j in range(nv):
                a = i * nv + j
                b = i * nv + (j + 1) % nv
                c = (i + 1) * nv + j
                d = (i + 1) * nv + (j + 1) % nv
                faces += [[a, b, c], [b, d, c]]
        shape = Shape(vertices=pts, faces=np.array(faces))
        normals, fallback = compute_vertex_normals(shape)
        radial = pts / np.linalg.norm(pts, axis=1, keepdims=True)
        cosine = np.abs(np.sum(normals * radial, axis=1))
        assert np.all(cosine > np.cos(np.deg2rad(5.0)))

    def test_isolated_vertex_gets_fallback_flag(self):
        verts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [9, 9, 9]])
        shape = Shape(vertices=verts, faces=np.array([[0, 1, 2]]))
        normals, fallback = compute_vertex_normals(shape)
        assert fallback[3] and not fallback[:3].any()
        np.testing.assert_allclose(normals[3], [0, 0, 1])

    def test_no_faces_error(self):
        shape = Shape(vertices=random_cloud(4, seed=2))
        with pytest.raises(ValueError, match="faces"):
            compute_vertex_normals(shape)


class TestShapeInvariants:
    def test_face_index_out_of_range(self):
        with pytest.raises(ValueError):
            Shape(vertices=np.zeros((2, 3)), faces=np.array([[0, 1, 2]]))

    def test_non_unit_normals_rejected(self):
        with pytest.raises(ValueError, match="unit"):
            Shape(vertices=np.zeros((1, 3)), normals=np.array([[0, 0, 2.0]]))

    def test_edges_from_faces_both_orientations(self):
        edges = edges_from_faces(np.array([[0, 1, 2], [1, 2, 3]]))
        und = unique_undirected(edges)
        assert len(edges) == 2 * len(und) == 10

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 30).flatmap(lambda n: st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=60)))
    def test_unique_undirected_matches_row_unique(self, pairs):
        # duplicates, both orientations, self-loops, and indices that leave
        # vertices isolated, against np.unique(axis=0) on the sorted rows
        edges = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        got = unique_undirected(edges)
        want = unique_rows_undirected(edges)
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_array_equal(got, want)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 12).flatmap(lambda n: st.lists(
        st.tuples(*[st.integers(0, n - 1)] * 3), min_size=1, max_size=30)))
    def test_edges_from_faces_matches_row_unique(self, faces):
        # on few vertices faces share edges, repeat, and degenerate (a vertex
        # used twice), and high vertex numbers go unused
        faces = np.array(faces, dtype=np.int64)
        got = edges_from_faces(faces)
        want = edges_from_faces_row_unique(faces)
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_vertices_named(self, bad):
        verts = np.zeros((9, 3))
        verts[[2, 7], 1] = bad
        with pytest.raises(ValueError,
                           match=r"non-finite coordinates in 2 of 9 vertices \(indices 2, 7\)"):
            Shape(vertices=verts)

    def test_arrays_read_only(self, square_shape):
        with pytest.raises(ValueError):
            square_shape.vertices[0, 0] = 9.0
