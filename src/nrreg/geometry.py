"""Shape representation, OBJ/PLY I/O, neighbor graphs, normals."""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace

import numpy as np

DEFAULT_KNN = 6
# nearest_neighbors: kd-tree candidates per query beyond k (and the query
# point itself), the relative margin within which a distance counts as a
# possible tie, and the (queries x points) size of one exhaustive chunk
_TIE_PAD = 4
_TIE_RTOL = 1e-9
_EXHAUSTIVE_BLOCK = 1 << 18


class MeshParseError(ValueError):
    """Raised when a mesh file cannot be parsed; carries the offending line."""

    def __init__(self, path, line_no, message):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = str(path)
        self.line_no = line_no


@dataclass(frozen=True)
class Shape:
    """An immutable vertex set with optional faces, normals and colors.

    ``edges`` are directed pairs (i, j): both orientations of each mesh edge
    when faces exist, otherwise k-NN edges. All arrays are read-only.
    """

    vertices: np.ndarray                      # (N, 3) float64
    faces: np.ndarray | None = None           # (F, 3) int
    edges: np.ndarray = field(default=None)   # (E, 2) int, directed
    normals: np.ndarray | None = None         # (N, 3) unit vectors
    colors: np.ndarray | None = None          # (N, 3) uint8

    def __post_init__(self):
        v = np.ascontiguousarray(self.vertices, dtype=np.float64)
        if v.ndim != 2 or v.shape[1] != 3:
            raise ValueError(f"vertices must be (N, 3), got {v.shape}")
        if v.shape[0] == 0:
            raise ValueError("shape has no vertices")
        bad = np.flatnonzero(~np.isfinite(v).all(axis=1))
        if bad.size:
            shown = ", ".join(map(str, bad[:5])) + (", ..." if bad.size > 5 else "")
            raise ValueError(f"non-finite coordinates in {bad.size} of {len(v)} "
                             f"vertices (indices {shown})")
        object.__setattr__(self, "vertices", v)
        f = self.faces
        if f is not None:
            f = np.ascontiguousarray(f, dtype=np.int64).reshape(-1, 3)
            if f.size and (f.min() < 0 or f.max() >= len(v)):
                raise ValueError("face index out of range")
            object.__setattr__(self, "faces", f)
        e = self.edges
        if e is None:
            e = edges_from_faces(f) if f is not None and len(f) else np.zeros((0, 2), np.int64)
        e = np.ascontiguousarray(e, dtype=np.int64).reshape(-1, 2)
        if e.size and (e.min() < 0 or e.max() >= len(v)):
            raise ValueError("edge index out of range")
        object.__setattr__(self, "edges", e)
        n = self.normals
        if n is not None:
            n = np.ascontiguousarray(n, dtype=np.float64).reshape(len(v), 3)
            lens = np.linalg.norm(n, axis=1)
            if np.any(np.abs(lens - 1.0) > 1e-9):
                raise ValueError("normals must have unit length")
            object.__setattr__(self, "normals", n)
        for a in (self.vertices, self.faces, self.edges, self.normals, self.colors):
            if a is not None:
                a.setflags(write=False)

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    def with_vertices(self, vertices):
        """Copy of this shape with replaced vertex positions (normals dropped)."""
        return replace(self, vertices=np.array(vertices, dtype=np.float64),
                       normals=None)

    def bbox_diagonal(self):
        return float(np.linalg.norm(self.vertices.max(0) - self.vertices.min(0)))


def edges_from_faces(faces):
    """Both orientations of each unique mesh edge, lexicographically ordered."""
    f = np.asarray(faces, dtype=np.int64)
    und = np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]])
    und = unique_undirected(und)
    both = np.concatenate([und, und[:, ::-1]])
    order = np.lexsort((both[:, 1], both[:, 0]))
    return both[order]


def _rank_candidates(points, queries, cand, k, self_rows):
    """The k best of each row's candidate indices by (squared distance,
    index), with the distances as ``np.sum((q - p) ** 2)``; a candidate equal
    to its row's entry in ``self_rows`` is excluded."""
    d2 = np.sum((queries[:, None, :] - points[cand]) ** 2, axis=2)
    if self_rows is not None:
        d2[cand == self_rows[:, None]] = np.inf
    order = np.lexsort((cand, d2), axis=1)[:, :k]
    return (np.take_along_axis(cand, order, axis=1),
            np.take_along_axis(d2, order, axis=1))


def nearest_neighbors(points, k, queries=None):
    """Indices and squared distances of the k nearest points to each query.

    Without ``queries`` every point queries the others, itself excluded.
    Returns (Q, k) arrays sorted by (squared distance, index), identical to
    an exhaustive search: a kd-tree proposes a few extra candidates per
    query, their distances are recomputed exactly, and a query whose last
    candidate ties its k-th neighbor to within rounding (so a tie may lie
    beyond the candidates) is searched exhaustively, in bounded chunks.
    """
    from scipy.spatial import cKDTree

    points = np.asarray(points, dtype=np.float64)
    self_query = queries is None
    queries = points if self_query else np.asarray(queries, dtype=np.float64)
    n, q = len(points), len(queries)
    self_rows = np.arange(q) if self_query else None
    width = min(n, k + self_query + _TIE_PAD)
    dist, cand = cKDTree(points).query(queries, width)
    cand = cand.reshape(q, width)
    idx, d2 = _rank_candidates(points, queries, cand, k, self_rows)
    if width < n:
        last = dist.reshape(q, width)[:, -1] ** 2
        rows = np.flatnonzero(last <= d2[:, -1] * (1 + _TIE_RTOL))
        step = max(1, _EXHAUSTIVE_BLOCK // n)
        for s in range(0, len(rows), step):
            r = rows[s:s + step]
            everything = np.broadcast_to(np.arange(n), (len(r), n))
            idx[r], d2[r] = _rank_candidates(
                points, queries[r], everything, k,
                None if self_rows is None else self_rows[r])
    return idx, d2


def knn_edges(vertices, k):
    """Directed edges (i, j) to the k nearest neighbors of each vertex.

    Exact kd-tree search (see ``nearest_neighbors``); ties broken by lowest
    index, so output is deterministic. Self-edges excluded.
    """
    v = np.asarray(vertices, dtype=np.float64)
    n = len(v)
    if k < 1 or k >= n:
        raise ValueError(f"k must be in [1, N-1], got k={k} for N={n}")
    nbrs, _ = nearest_neighbors(v, k)
    src = np.repeat(np.arange(n), k)
    return np.column_stack([src, nbrs.reshape(-1)])


def build_edge_graph(shape, k=DEFAULT_KNN):
    """Edge list for a shape: mesh half-edges when faces exist, else k-NN."""
    if shape.faces is not None and len(shape.faces):
        return edges_from_faces(shape.faces)
    return knn_edges(shape.vertices, k)


def unique_undirected(edges):
    """Distinct undirected edges as (min, max) rows in lexicographic order."""
    e = np.sort(np.asarray(edges, dtype=np.int64), axis=1)
    if not len(e):
        return e
    # one int64 key per row orders rows lexicographically; np.unique on the
    # keys is far cheaper than np.unique(axis=0) on the rows
    lo = e.min()
    _, first = np.unique((e[:, 0] - lo) * (e.max() - lo + 1) + (e[:, 1] - lo),
                         return_index=True)
    return e[first]


def mean_edge_length(shape):
    """Mean Euclidean length over unique undirected edges."""
    und = unique_undirected(shape.edges)
    if len(und) == 0:
        raise ValueError("shape has no edges")
    d = shape.vertices[und[:, 0]] - shape.vertices[und[:, 1]]
    return float(np.mean(np.linalg.norm(d, axis=1)))


def compute_vertex_normals(shape):
    """Area-weighted vertex normals.

    Returns (normals, fallback_flags); vertices with no nondegenerate incident
    face get the global +z fallback and a True flag.
    """
    if shape.faces is None or len(shape.faces) == 0:
        raise ValueError("vertex normals require faces")
    v, f = shape.vertices, shape.faces
    fn = np.cross(v[f[:, 1]] - v[f[:, 0]], v[f[:, 2]] - v[f[:, 0]])
    acc = np.zeros_like(v)
    for c in range(3):
        np.add.at(acc, f[:, c], fn)
    lens = np.linalg.norm(acc, axis=1)
    fallback = lens < 1e-12
    out = np.where(fallback[:, None], np.array([0.0, 0.0, 1.0]), acc)
    out = out / np.linalg.norm(out, axis=1, keepdims=True)
    return out, fallback


def with_normals(shape):
    """Shape with vertex normals attached (computed from faces if missing)."""
    if shape.normals is not None:
        return shape
    normals, _ = compute_vertex_normals(shape)
    return replace(shape, normals=normals)


# ---------------------------------------------------------------------------
# File I/O

def load_shape(path, fmt=None):
    """Load an OBJ or PLY file; format inferred from the extension by default."""
    path = str(path)
    if fmt is None:
        fmt = "ply" if path.lower().endswith(".ply") else "obj"
    if fmt == "obj":
        return _load_obj(path)
    if fmt == "ply":
        return _load_ply(path)
    raise ValueError(f"unknown format {fmt!r}")


def save_shape(shape, path, fmt=None, binary=False):
    path = str(path)
    if fmt is None:
        fmt = "ply" if path.lower().endswith(".ply") else "obj"
    if fmt == "obj":
        _save_obj(shape, path)
    elif fmt == "ply":
        _save_ply(shape, path, binary=binary)
    else:
        raise ValueError(f"unknown format {fmt!r}")


def _load_obj(path):
    verts, faces = [], []
    with open(path) as fh:
        for line_no, line in enumerate(fh, 1):
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            if parts[0] == "v":
                if len(parts) < 4:
                    raise MeshParseError(path, line_no, "vertex needs 3 coordinates")
                try:
                    verts.append([float(x) for x in parts[1:4]])
                except ValueError:
                    raise MeshParseError(path, line_no, "bad vertex coordinate") from None
            elif parts[0] == "f":
                if len(parts) < 4:
                    raise MeshParseError(path, line_no, "face needs 3 indices")
                try:
                    idx = [int(p.split("/")[0]) - 1 for p in parts[1:4]]
                except ValueError:
                    raise MeshParseError(path, line_no, "bad face index") from None
                if any(i < 0 for i in idx):
                    raise MeshParseError(path, line_no, "face index must be >= 1")
                faces.append(idx)
    if not verts:
        raise MeshParseError(path, 0, "no vertices found")
    faces_arr = np.array(faces, dtype=np.int64) if faces else None
    if faces_arr is not None and faces_arr.max() >= len(verts):
        raise MeshParseError(path, 0, "face index out of range")
    return Shape(vertices=np.array(verts), faces=faces_arr)


def _save_obj(shape, path):
    with open(path, "w") as fh:
        for v in shape.vertices:
            fh.write("v %.9g %.9g %.9g\n" % tuple(v))
        if shape.faces is not None:
            for f in shape.faces:
                fh.write("f %d %d %d\n" % (f[0] + 1, f[1] + 1, f[2] + 1))


_PLY_TYPES = {
    "float": ("f", 4), "float32": ("f", 4),
    "double": ("d", 8), "float64": ("d", 8),
    "uchar": ("B", 1), "uint8": ("B", 1),
    "char": ("b", 1), "int8": ("b", 1),
    "short": ("h", 2), "ushort": ("H", 2),
    "int": ("i", 4), "int32": ("i", 4),
    "uint": ("I", 4), "uint32": ("I", 4),
}


def _load_ply(path):
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        header_end = data.index(b"end_header\n") + len(b"end_header\n")
    except ValueError:
        raise MeshParseError(path, 0, "missing end_header") from None
    header_lines = data[:header_end].decode("ascii", "replace").splitlines()
    if not header_lines or header_lines[0].strip() != "ply":
        raise MeshParseError(path, 1, "not a PLY file")
    fmt = None
    elements = []  # (name, count, [(prop_name, type, list_count_type|None)])
    for line_no, line in enumerate(header_lines[1:], 2):
        parts = line.split()
        if not parts or parts[0] == "comment":
            continue
        if parts[0] == "format":
            fmt = parts[1]
        elif parts[0] == "element":
            elements.append((parts[1], int(parts[2]), []))
        elif parts[0] == "property":
            if not elements:
                raise MeshParseError(path, line_no, "property before element")
            if parts[1] == "list":
                elements[-1][2].append((parts[4], parts[3], parts[2]))
            else:
                elements[-1][2].append((parts[2], parts[1], None))
        elif parts[0] == "end_header":
            break
    if fmt not in ("ascii", "binary_little_endian"):
        raise MeshParseError(path, 0, f"unsupported PLY format {fmt!r}")

    verts = faces = colors = None
    if fmt == "ascii":
        body = data[header_end:].decode("ascii", "replace").splitlines()
        cursor = 0
        base_line = len(header_lines)
        for name, count, props in elements:
            rows = body[cursor:cursor + count]
            if len(rows) < count:
                raise MeshParseError(path, base_line + cursor + len(rows) + 1,
                                     f"truncated element {name!r}")
            if name == "vertex":
                verts, colors = _parse_ascii_vertices(path, rows, props,
                                                     base_line + cursor)
            elif name == "face":
                faces = _parse_ascii_faces(path, rows, base_line + cursor)
            cursor += count
    else:
        off = header_end
        for name, count, props in elements:
            if name == "vertex":
                verts, colors, off = _parse_binary_vertices(path, data, off, count, props)
            elif name == "face":
                faces, off = _parse_binary_faces(path, data, off, count, props)
            else:
                row = sum(_PLY_TYPES[t][1] for _, t, lc in props if lc is None)
                off += row * count
    if verts is None or len(verts) == 0:
        raise MeshParseError(path, 0, "no vertices found")
    return Shape(vertices=verts, faces=faces, colors=colors)


def _parse_ascii_vertices(path, rows, props, base_line):
    names = [p[0] for p in props]
    try:
        xi, yi, zi = names.index("x"), names.index("y"), names.index("z")
    except ValueError:
        raise MeshParseError(path, base_line, "vertex element lacks x/y/z") from None
    cidx = None
    if all(c in names for c in ("red", "green", "blue")):
        cidx = [names.index(c) for c in ("red", "green", "blue")]
    verts = np.empty((len(rows), 3))
    colors = np.empty((len(rows), 3), np.uint8) if cidx else None
    for r, row in enumerate(rows):
        parts = row.split()
        if len(parts) < len(names):
            raise MeshParseError(path, base_line + r + 1, "truncated vertex row")
        try:
            verts[r] = [float(parts[xi]), float(parts[yi]), float(parts[zi])]
            if cidx:
                colors[r] = [int(parts[i]) for i in cidx]
        except ValueError:
            raise MeshParseError(path, base_line + r + 1, "bad vertex value") from None
    return verts, colors


def _parse_ascii_faces(path, rows, base_line):
    faces = []
    for r, row in enumerate(rows):
        parts = row.split()
        try:
            n = int(parts[0])
            idx = [int(p) for p in parts[1:1 + n]]
        except (ValueError, IndexError):
            raise MeshParseError(path, base_line + r + 1, "bad face row") from None
        if len(idx) != n or n != 3:
            raise MeshParseError(path, base_line + r + 1, "only triangle faces supported")
        faces.append(idx)
    return np.array(faces, dtype=np.int64) if faces else None


def _parse_binary_vertices(path, data, off, count, props):
    fmt_chars, names = [], []
    for name, typ, list_count in props:
        if list_count is not None:
            raise MeshParseError(path, 0, "list property on vertex element")
        fmt_chars.append(_PLY_TYPES[typ][0])
        names.append(name)
    st = struct.Struct("<" + "".join(fmt_chars))
    end = off + st.size * count
    if end > len(data):
        raise MeshParseError(path, 0, "truncated binary vertex data")
    raw = [st.unpack_from(data, off + i * st.size) for i in range(count)]
    cols = {n: [row[j] for row in raw] for j, n in enumerate(names)}
    try:
        verts = np.column_stack([cols["x"], cols["y"], cols["z"]]).astype(np.float64)
    except KeyError:
        raise MeshParseError(path, 0, "vertex element lacks x/y/z") from None
    colors = None
    if all(c in cols for c in ("red", "green", "blue")):
        colors = np.column_stack([cols["red"], cols["green"], cols["blue"]]).astype(np.uint8)
    return verts, colors, end


def _parse_binary_faces(path, data, off, count, props):
    (name, typ, list_count), = props
    cchar, csize = _PLY_TYPES[list_count]
    ichar, isize = _PLY_TYPES[typ]
    faces = []
    for _ in range(count):
        if off + csize > len(data):
            raise MeshParseError(path, 0, "truncated binary face data")
        n = struct.unpack_from("<" + cchar, data, off)[0]
        off += csize
        if n != 3:
            raise MeshParseError(path, 0, "only triangle faces supported")
        if off + n * isize > len(data):
            raise MeshParseError(path, 0, "truncated binary face data")
        faces.append(struct.unpack_from("<%d%s" % (n, ichar), data, off))
        off += n * isize
    return (np.array(faces, dtype=np.int64) if faces else None), off


def _save_ply(shape, path, binary=False):
    n = shape.n_vertices
    has_color = shape.colors is not None
    nf = 0 if shape.faces is None else len(shape.faces)
    header = ["ply",
              "format binary_little_endian 1.0" if binary else "format ascii 1.0",
              f"element vertex {n}",
              "property double x", "property double y", "property double z"]
    if has_color:
        header += ["property uchar red", "property uchar green", "property uchar blue"]
    if nf:
        header += [f"element face {nf}", "property list uchar int vertex_indices"]
    header.append("end_header")
    if binary:
        with open(path, "wb") as fh:
            fh.write(("\n".join(header) + "\n").encode("ascii"))
            for i in range(n):
                fh.write(struct.pack("<3d", *shape.vertices[i]))
                if has_color:
                    fh.write(struct.pack("<3B", *shape.colors[i]))
            for i in range(nf):
                fh.write(struct.pack("<B3i", 3, *shape.faces[i]))
    else:
        with open(path, "w") as fh:
            fh.write("\n".join(header) + "\n")
            for i in range(n):
                fh.write("%.9g %.9g %.9g" % tuple(shape.vertices[i]))
                if has_color:
                    fh.write(" %d %d %d" % tuple(shape.colors[i]))
                fh.write("\n")
            for i in range(nf):
                fh.write("3 %d %d %d\n" % tuple(shape.faces[i]))
