"""Shape I/O, edge graphs, edge statistics and vertex normals."""

import struct

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
    OBJ_FAULTS,
    PLY_FAULTS,
    TRIANGLE_LIST,
    XYZ_FLOAT,
    brute_force_closest,
    brute_force_knn,
    edges_from_faces_row_unique,
    ply_header,
    random_cloud,
    tie_rich_clouds,
    unique_rows_undirected,
)
from nrreg.synthesis import make_strip

# the 16 scalar type names of the PLY spec and their struct codes
PLY_SPEC_TYPES = {"char": "b", "int8": "b", "uchar": "B", "uint8": "B",
                  "short": "h", "int16": "h", "ushort": "H", "uint16": "H",
                  "int": "i", "int32": "i", "uint": "I", "uint32": "I",
                  "float": "f", "float32": "f", "double": "d", "float64": "d"}


def colored_mesh(faces=True, colors=True):
    """A small shape with awkward coordinates, optionally faceless or
    uncolored."""
    strip = make_strip(5, 4, 0.37, relief=0.8)
    rgb = np.random.default_rng(4).integers(0, 256, (20, 3), dtype=np.uint8)
    return Shape(vertices=strip.vertices * [1.0, -3.0, 1e-4] + [0.0, 1e5, 0.0],
                 faces=strip.faces if faces else None,
                 colors=rgb if colors else None)


# six targets equidistant from the origin: the kd-tree's candidate list for
# the origin ends on a tie, so the query is resolved exhaustively
OCTAHEDRON = np.array([[1.0, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0],
                       [0, 0, 1], [0, 0, -1]])


def oracle_neighbors(points, k, queries=None):
    """Exhaustive k nearest points to each query (each point, itself
    excluded, without queries), ties to the lowest index."""
    if queries is None:
        return brute_force_knn(points, k)[:, 1].reshape(len(points), k)
    d2 = np.sum((queries[:, None, :] - points[None, :, :]) ** 2, axis=2)
    return np.argsort(d2, axis=1, kind="stable")[:, :k]


def assert_bounded_result(idx, d2, points, queries, want, bound):
    """Rows whose k-th oracle neighbor lies within ``bound`` are the oracle's,
    with its squared distances; every other row ends beyond the bound, and
    rows clearly beyond it are missing (index n, squared distance inf)."""
    want_d2 = np.sum((queries[:, None, :] - points[want]) ** 2, axis=2)
    inside = np.sqrt(want_d2[:, -1]) <= bound
    assert np.array_equal(idx[inside], want[inside])
    assert np.array_equal(d2[inside], want_d2[inside])
    missing = idx == len(points)
    assert np.array_equal(missing, np.isinf(d2))
    assert np.array_equal(missing.any(axis=1), missing.all(axis=1))
    assert np.all(np.sqrt(d2[~inside, -1]) > bound)
    assert np.all(missing[np.sqrt(want_d2[:, -1]) > bound * (1 + 1e-6)])


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

    def test_obj_polygon_face_rejected(self, tmp_path):
        # a quad is not cut to its first triangle, which would orphan vertex 4
        path = tmp_path / "quad.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
        with pytest.raises(MeshParseError,
                           match="quad.obj:5: only triangle faces supported"):
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

    @pytest.mark.parametrize("case", OBJ_FAULTS)
    def test_obj_fault_names_path_and_line(self, tmp_path, case):
        content, where = OBJ_FAULTS[case]
        path = tmp_path / "bad.obj"
        path.write_text(content)
        with pytest.raises(MeshParseError) as err:
            load_shape(path)
        assert str(err.value) == f"{path}:{where}"
        assert err.value.line_no == int(where.split(":")[0])

    @pytest.mark.parametrize("case", PLY_FAULTS)
    def test_ply_fault_names_path_and_line(self, tmp_path, case):
        content, where = PLY_FAULTS[case]
        path = tmp_path / "bad.ply"
        path.write_bytes(content)
        with pytest.raises(MeshParseError) as err:
            load_shape(path)
        assert str(err.value) == f"{path}:{where}"
        assert err.value.line_no == int(where.split(":")[0])

    @pytest.mark.parametrize("name", PLY_SPEC_TYPES)
    def test_binary_ply_spec_type_names(self, tmp_path, name):
        code = PLY_SPEC_TYPES[name]
        path = tmp_path / "t.ply"
        path.write_bytes(
            ply_header("binary_little_endian", "element vertex 2",
                       f"property {name} extra", f"property {name} x",
                       f"property {name} y", f"property {name} z")
            + struct.pack(f"<8{code}", 9, 0, 1, 2, 9, 3, 4, 5))
        shape = load_shape(path)
        assert shape.vertices.dtype == np.float64
        assert shape.vertices.tolist() == [[0, 1, 2], [3, 4, 5]]

    @pytest.mark.parametrize("name, value, loads", [
        ("float", 2.0, True), ("float", 300.0, False), ("float", -1.0, False),
        ("float", 2.5, False), ("float", float("nan"), False),
        ("int", 2, True), ("int", 300, False), ("int", -1, False)])
    def test_binary_colors_checked_as_ascii(self, tmp_path, name, value, loads):
        # binary colors are integers in 0-255 as ASCII ones are: no value
        # wraps or truncates into that range
        code = PLY_SPEC_TYPES[name]
        path = tmp_path / "c.ply"
        path.write_bytes(
            ply_header("binary_little_endian", "element vertex 1", *XYZ_FLOAT,
                       f"property {name} red", f"property {name} green",
                       f"property {name} blue")
            + struct.pack(f"<3f3{code}", 0, 0, 0, 7, value, 255))
        if loads:
            assert load_shape(path).colors.tolist() == [[7, 2, 255]]
            return
        with pytest.raises(MeshParseError) as err:
            load_shape(path)
        assert str(err.value) == f"{path}:0: bad vertex value"

    @pytest.mark.parametrize("flags_first", [False, True])
    def test_ascii_ply_irregular_rows(self, tmp_path, flags_first):
        # tabs, CR-LF, extra tokens, a second face list, a scalar face
        # property, an element after the faces and no final newline
        face_props = [TRIANGLE_LIST, "property uchar flags"]
        faces = [b"3 0 1 2 5 6 0 0 1 0 1 1", b"3 2 1 0 0 0"]
        if flags_first:
            face_props.reverse()
            faces = [b"5 3 0 1 2 6 0 0 1 0 1 1", b"0 3 2 1 0 0"]
        path = tmp_path / "odd.ply"
        path.write_bytes(
            ply_header("ascii", "comment made by hand", "element vertex 3",
                       "property float x", "property float y", "property float z",
                       "property float nx", "property uchar red",
                       "property uchar green", "property uchar blue",
                       "element face 2", *face_props,
                       "property list uchar float texcoord", "element note 1",
                       "property list uchar int ids")
            + b"0 0 0 9 1 2 3 extra\n1\t0  0 9 4 5 6\r\n 0 1 0 9 7 8 9\n"
            + b"\n".join(faces) + b"\n2 7 8")
        shape = load_shape(path)
        assert shape.vertices.tolist() == [[0, 0, 0], [1, 0, 0], [0, 1, 0]]
        assert shape.colors.tolist() == [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
        assert shape.faces.tolist() == [[0, 1, 2], [2, 1, 0]]

    def test_binary_face_extra_scalar_ignored(self, tmp_path):
        path = tmp_path / "flags.ply"
        path.write_bytes(
            ply_header("binary_little_endian", "element vertex 3", *XYZ_FLOAT,
                       "element face 2", "property uchar flags", TRIANGLE_LIST,
                       "property ushort material")
            + struct.pack("<9f", 0, 0, 0, 1, 0, 0, 0, 1, 0)
            + struct.pack("<BB3iH", 7, 3, 0, 1, 2, 1)
            + struct.pack("<BB3iH", 8, 3, 2, 1, 0, 2))
        shape = load_shape(path)
        assert shape.faces.tolist() == [[0, 1, 2], [2, 1, 0]]

    def test_binary_ply_skips_other_elements(self, tmp_path):
        path = tmp_path / "extra.ply"
        path.write_bytes(
            ply_header("binary_little_endian", "element camera 2",
                       "property double f", "element vertex 3", *XYZ_FLOAT,
                       "element face 1", TRIANGLE_LIST, "element edge 1",
                       "property int a", "property int b")
            + struct.pack("<2d", 1.5, 2.5)
            + struct.pack("<9fB3i2i", 0, 0, 0, 1, 0, 0, 0, 1, 0, 3, 0, 1, 2, 0, 1))
        shape = load_shape(path)
        assert shape.vertices.tolist() == [[0, 0, 0], [1, 0, 0], [0, 1, 0]]
        assert shape.faces.tolist() == [[0, 1, 2]]


class TestRoundTrip:
    @pytest.mark.parametrize("colors", [False, True])
    @pytest.mark.parametrize("faces", [False, True])
    @pytest.mark.parametrize("fmt", ["ascii.ply", "binary.ply", "obj"])
    def test_resave_byte_exact(self, tmp_path, fmt, faces, colors):
        shape = colored_mesh(faces, colors)
        binary = fmt == "binary.ply"
        first, second = tmp_path / f"a.{fmt}", tmp_path / f"b.{fmt}"
        save_shape(shape, first, binary=binary)
        back = load_shape(first)
        save_shape(back, second, binary=binary)
        assert first.read_bytes() == second.read_bytes()
        if faces:
            assert np.array_equal(back.faces, shape.faces)
        else:
            assert back.faces is None
        if colors and fmt != "obj":
            assert back.colors.dtype == np.uint8
            assert np.array_equal(back.colors, shape.colors)
        else:
            assert back.colors is None
        if binary:
            assert np.array_equal(back.vertices, shape.vertices)
        else:
            np.testing.assert_allclose(back.vertices, shape.vertices, rtol=1e-8)

    @pytest.mark.parametrize("fmt", ["ascii.ply", "binary.ply", "obj"])
    def test_written_bytes(self, tmp_path, fmt):
        shape = Shape(vertices=[[0.1, -2.0, 1e-10], [1 / 3, 1e6, 123456.7891]],
                      faces=[[0, 1, 1]], colors=np.array([[255, 0, 7], [1, 2, 3]],
                                                         dtype=np.uint8))
        path = tmp_path / f"w.{fmt}"
        save_shape(shape, path, binary=fmt == "binary.ply")
        header = (b"ply\nformat %s 1.0\nelement vertex 2\nproperty double x\n"
                  b"property double y\nproperty double z\nproperty uchar red\n"
                  b"property uchar green\nproperty uchar blue\nelement face 1\n"
                  b"property list uchar int vertex_indices\nend_header\n")
        want = {
            "ascii.ply": header % b"ascii" + b"0.1 -2 1e-10 255 0 7\n"
                         b"0.333333333 1000000 123456.789 1 2 3\n3 0 1 1\n",
            "binary.ply": header % b"binary_little_endian"
                          + struct.pack("<3d3B3d3BB3i", 0.1, -2.0, 1e-10, 255, 0, 7,
                                        1 / 3, 1e6, 123456.7891, 1, 2, 3, 3, 0, 1, 1),
            "obj": b"v 0.1 -2 1e-10\nv 0.333333333 1000000 123456.789\nf 1 2 2\n",
        }[fmt]
        assert path.read_bytes() == want

    @pytest.mark.parametrize("binary", [False, True])
    @pytest.mark.parametrize("bad", [300, -1, 2.5])
    def test_colors_beyond_uchar_rejected(self, tmp_path, binary, bad):
        # the shape itself rejects them, so no writer meets them
        with pytest.raises(ValueError, match="colors must be integers in 0-255"):
            shape = Shape(vertices=np.zeros((2, 3)),
                          colors=np.array([[1, 2, 3], [4, bad, 6]]))
            save_shape(shape, tmp_path / "c.ply", binary=binary)

    @pytest.mark.parametrize("colors, message", [
        (np.zeros((5, 7)), r"colors must be \(2, 3\), got \(5, 7\)"),
        ([[1, 2, 3]], r"colors must be \(2, 3\), got \(1, 3\)"),
        ([[1, 2, 3], [4, 256, 6]], "colors must be integers in 0-255"),
        ([[1, 2, 3], [4, np.nan, 6]], "colors must be integers in 0-255"),
        ([["1", "2", "3"], ["4", "5", "6"]], "colors must be integers in 0-255"),
    ])
    def test_bad_colors_rejected_on_construction(self, colors, message):
        with pytest.raises(ValueError, match=message):
            Shape(vertices=np.zeros((2, 3)), colors=colors)

    def test_color_list_stored_read_only(self):
        shape = Shape(vertices=np.zeros((2, 3)), colors=[[255, 0, 7], [1.0, 2, 3]])
        assert shape.colors.dtype == np.uint8
        assert shape.colors.tolist() == [[255, 0, 7], [1, 2, 3]]
        with pytest.raises(ValueError):
            shape.colors[0, 0] = 1

    @pytest.mark.parametrize("binary", [False, True])
    def test_crlf_ply_loads_as_lf_twin(self, tmp_path, binary):
        # a CR-LF header (and, in ASCII, CR-LF rows) reads bit for bit as the
        # LF file; an LF file reads as before
        lf = tmp_path / "lf.ply"
        save_shape(colored_mesh(), lf, binary=binary)
        data = lf.read_bytes()
        end = data.index(b"end_header\n") + len(b"end_header\n")
        crlf = tmp_path / "crlf.ply"
        crlf.write_bytes(data.replace(b"\n", b"\r\n") if not binary
                         else data[:end].replace(b"\n", b"\r\n") + data[end:])
        assert crlf.read_bytes().count(b"\r\n") > 10
        a, b = load_shape(lf), load_shape(crlf)
        for name in ("vertices", "faces", "colors"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    @pytest.mark.parametrize("fmt", ["ascii.ply", "binary.ply", "obj"])
    def test_colored_strip_50k(self, tmp_path, fmt):
        strip = make_strip(500, 100, 0.1, 0.5)
        rgb = np.random.default_rng(5).integers(0, 256, (strip.n_vertices, 3),
                                                dtype=np.uint8)
        shape = Shape(vertices=strip.vertices, faces=strip.faces, colors=rgb)
        binary = fmt == "binary.ply"
        path = tmp_path / f"big.{fmt}"
        save_shape(shape, path, binary=binary)
        back = load_shape(path)
        assert shape.n_vertices == 50_000 and len(shape.faces) == 98_802
        assert np.array_equal(back.faces, shape.faces)
        if fmt == "obj":
            assert back.colors is None
        else:
            assert np.array_equal(back.colors, rgb)
        if binary:
            assert np.array_equal(back.vertices, shape.vertices)
        else:
            np.testing.assert_allclose(back.vertices, shape.vertices, atol=1e-6)

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

    @given(st.integers(0, 2**31), st.integers(2, 80), st.integers(1, 6),
           st.sampled_from([None, 1, 0]), st.floats(0.0, 2.0))
    @settings(max_examples=60, deadline=None)
    def test_bounded_search_in_prebuilt_tree(self, seed, n, k, decimals, bound):
        # the bound prunes the search without changing any row within it
        from scipy.spatial import cKDTree
        points = random_cloud(n, seed)
        queries = random_cloud(n, seed + 1, scale=1.5)
        if decimals is not None:
            points, queries = np.round(points, decimals), np.round(queries, decimals)
        tree = cKDTree(points)
        k = min(k, n - 1)
        idx, d2 = nearest_neighbors(points, k, tree=tree, bound=bound)
        assert_bounded_result(idx, d2, points, points,
                              oracle_neighbors(points, k), bound)
        idx, d2 = nearest_neighbors(points, 1, queries, tree, bound)
        want = brute_force_closest(queries, points)[0][:, None]
        assert_bounded_result(idx, d2, points, queries, want, bound)
        assert np.array_equal(knn_edges(points, k, tree), brute_force_knn(points, k))

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    @pytest.mark.parametrize("bound", [np.inf, 0.3])
    def test_self_query_duplicates_skip_query_point(self, k, bound):
        # every point three times: the tree may list a twin before the query
        # point, and the twins are each other's nearest neighbors at distance 0
        from scipy.spatial import cKDTree
        points = tie_rich_clouds()["duplicates"]
        idx, d2 = nearest_neighbors(points, k, tree=cKDTree(points), bound=bound)
        assert_bounded_result(idx, d2, points, points,
                              oracle_neighbors(points, k), bound)
        assert not np.any(idx == np.arange(len(points))[:, None])

    @pytest.mark.parametrize("bound", [np.inf, 0.8])
    @pytest.mark.parametrize("decimals", [None, 0])
    def test_every_point_a_candidate(self, bound, decimals):
        # n = k + 1 for a self-query (and k = n for queries): the search
        # returns every point, and no further kd distance exists to separate
        # the k-th neighbor from
        points = random_cloud(5, seed=9)
        queries = random_cloud(7, seed=10, scale=1.5)
        if decimals is not None:
            points, queries = np.round(points, decimals), np.round(queries, decimals)
        n = len(points)
        for k, q in ((n - 1, None), (n, queries), (n - 1, queries)):
            q_points = points if q is None else q
            idx, d2 = nearest_neighbors(points, k, q, bound=bound)
            assert_bounded_result(idx, d2, points, q_points,
                                  oracle_neighbors(points, k, q), bound)
        assert np.array_equal(knn_edges(points, n - 1), brute_force_knn(points, n - 1))

    def test_only_ambiguous_rows_reranked(self, monkeypatch):
        # where the kd distances separate the neighbors, the kd order stands;
        # on a lattice with exact ties every tied row is ranked again
        import nrreg.geometry as geometry
        ranked, rank = [], geometry._rank_candidates

        def counting_rank(points, queries, cand, k, self_rows):
            ranked.append(len(cand))
            return rank(points, queries, cand, k, self_rows)

        monkeypatch.setattr(geometry, "_rank_candidates", counting_rank)
        points = random_cloud(400, seed=12)
        nearest_neighbors(points, 6)
        nearest_neighbors(points, 1, random_cloud(300, seed=13, scale=1.5), bound=0.2)
        assert ranked == [0, 0]
        # every query but the far corner (5.5, 5.5, 5.5) has at least two
        # equidistant nearest lattice points
        grid = tie_rich_clouds()["cubic-grid"]
        idx, _ = nearest_neighbors(grid, 1, grid + 0.5)
        assert ranked[2] == len(grid) - 1
        assert np.array_equal(idx[:, 0], brute_force_closest(grid + 0.5, grid)[0])

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

    def test_bit_equal_to_add_at_passes(self):
        # oracle: the face normals added to corners 0, 1, 2 by three
        # unbuffered np.add.at passes; a relief mesh with degenerate faces
        # (a repeated corner, three collinear corners) and an unused vertex
        strip = make_strip(30, 9, 0.1, relief=0.5)
        v = np.vstack([strip.vertices, strip.vertices[0] + [[0.05, 0, 0], [0.1, 0, 0]],
                       [[5.0, 5.0, 5.0]]])
        n = len(strip.vertices)
        faces = np.vstack([strip.faces, [[0, 0, 1], [0, n, n + 1], [3, 3, 3]]])
        shape = Shape(vertices=v, faces=faces)
        fn = np.cross(v[faces[:, 1]] - v[faces[:, 0]], v[faces[:, 2]] - v[faces[:, 0]])
        acc = np.zeros_like(v)
        for c in range(3):
            np.add.at(acc, faces[:, c], fn)
        fallback = np.linalg.norm(acc, axis=1) < 1e-12
        out = np.where(fallback[:, None], np.array([0.0, 0.0, 1.0]), acc)
        normals, flags = compute_vertex_normals(shape)
        assert np.array_equal(normals, out / np.linalg.norm(out, axis=1, keepdims=True))
        np.testing.assert_array_equal(flags, fallback)
        np.testing.assert_array_equal(np.flatnonzero(flags), [n, n + 1, n + 2])


class TestShapeInvariants:
    def test_face_index_out_of_range(self):
        with pytest.raises(ValueError):
            Shape(vertices=np.zeros((2, 3)), faces=np.array([[0, 1, 2]]))

    @pytest.mark.parametrize("kwargs, message", [
        ({"vertices": np.zeros((4, 2))}, r"vertices must be \(N, 3\), got \(4, 2\)"),
        ({"vertices": np.zeros((0, 3))}, "shape has no vertices"),
        ({"vertices": np.zeros((2, 3)), "edges": [[0, 1], [1, 2]]},
         "edge index out of range"),
    ])
    def test_invalid_arrays_named(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            Shape(**kwargs)

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
