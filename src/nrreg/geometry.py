"""Shape representation, OBJ/PLY I/O, neighbor graphs, normals."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import chain

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
        c = self.colors
        if c is not None:
            c = np.asarray(c)
            if c.shape != (len(v), 3):
                raise ValueError(f"colors must be ({len(v)}, 3), got {c.shape}")
            if c.dtype.kind not in "biuf" or not np.all(
                    (c >= 0) & (c <= 255) & (c == np.round(c))):
                raise ValueError("colors must be integers in 0-255")
            object.__setattr__(self, "colors", np.ascontiguousarray(c, dtype=np.uint8))
        for a in (self.vertices, self.faces, self.edges, self.normals, self.colors):
            if a is not None:
                a.setflags(write=False)

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

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
    # every face's normal to its corners 0, 1, 2 in turn, added in that
    # order: bit for bit three ``np.add.at`` passes, one pass per coordinate
    corners = f.T.reshape(-1)
    acc = np.stack([np.bincount(corners, np.tile(fn[:, k], 3), minlength=len(v))
                    for k in range(3)], axis=1)
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

def load_shape(path):
    """Load a PLY file (``.ply`` extension, any case) or else an OBJ file."""
    path = str(path)
    return _load_ply(path) if _is_ply(path) else _load_obj(path)


def save_shape(shape, path, binary=False):
    """Save as PLY (``.ply`` extension, any case) or else as OBJ."""
    path = str(path)
    if _is_ply(path):
        _save_ply(shape, path, binary=binary)
    else:
        _save_obj(shape, path)


def _is_ply(path):
    return path.lower().endswith(".ply")


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
                if len(parts) > 4:
                    raise MeshParseError(path, line_no, "only triangle faces supported")
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
        fh.write(_text_rows("v %.9g %.9g %.9g\n", shape.vertices))
        if shape.faces is not None:
            fh.write(_text_rows("f %d %d %d\n", shape.faces + 1))


def _text_rows(fmt, rows):
    """Each row of an array printed with ``fmt``, one line each, as one string."""
    return (fmt * len(rows)) % tuple(chain.from_iterable(rows.tolist()))


# the scalar type names of the PLY format, both spellings, as numpy codes
_PLY_TYPES = {
    "char": "i1", "int8": "i1", "uchar": "u1", "uint8": "u1",
    "short": "i2", "int16": "i2", "ushort": "u2", "uint16": "u2",
    "int": "i4", "int32": "i4", "uint": "u4", "uint32": "u4",
    "float": "f4", "float32": "f4", "double": "f8", "float64": "f8",
}


def _load_ply(path):
    with open(path, "rb") as fh:
        data = fh.read()
    import re

    # splitlines also strips a CR-LF file's carriage returns
    end = re.search(rb"end_header\r?\n", data)
    if end is None:
        raise MeshParseError(path, 0, "missing end_header")
    header_end = end.end()
    header_lines = data[:header_end].decode("ascii", "replace").splitlines()
    if not header_lines or header_lines[0].strip() != "ply":
        raise MeshParseError(path, 1, "not a PLY file")
    fmt, elements = None, []  # elements: (name, count, [(prop, code, count code|None)])
    for line_no, line in enumerate(header_lines[1:], 2):
        parts = line.split() or [""]
        if parts[0] == "property" and not elements:
            raise MeshParseError(path, line_no, "property before element")
        try:
            if parts[0] == "format":
                fmt = parts[1]
            elif parts[0] == "element":
                elements.append((parts[1], int(parts[2]), []))
                if elements[-1][1] < 0:
                    raise ValueError("negative element count")
            elif parts[0] == "property" and parts[1] == "list":
                elements[-1][2].append((parts[4], _PLY_TYPES[parts[3]],
                                        _PLY_TYPES[parts[2]]))
            elif parts[0] == "property":
                elements[-1][2].append((parts[2], _PLY_TYPES[parts[1]], None))
        except KeyError as exc:
            raise MeshParseError(path, line_no,
                                 f"unknown PLY type {exc.args[0]!r}") from None
        except (IndexError, ValueError):
            raise MeshParseError(path, line_no,
                                 f"malformed header line {line.strip()!r}") from None
    # one signature for both readers; binary errors name line 0, not a row's
    read = {"ascii": _read_ascii_ply, "binary_little_endian": _read_binary_ply}.get(fmt)
    if read is None:
        raise MeshParseError(path, 0, f"unsupported PLY format {fmt!r}")
    verts, colors, faces = read(path, data, header_end, len(header_lines), elements)
    if verts is None or len(verts) == 0:
        raise MeshParseError(path, 0, "no vertices found")
    return Shape(vertices=verts, faces=faces, colors=colors)


def _vertex_columns(path, line_no, props):
    """Positions of x, y, z and of red, green, blue (or None) among props."""
    names = [p[0] for p in props]
    if not {"x", "y", "z"} <= set(names):
        raise MeshParseError(path, line_no, "vertex element lacks x/y/z")
    rgb = [names.index(c) for c in ("red", "green", "blue") if c in names]
    return [names.index(c) for c in "xyz"], rgb if len(rgb) == 3 else None


def _vertex_list(path, line_no, props):
    """Position of the face element's vertex index list: its first list."""
    lists = [i for i, p in enumerate(props) if p[2]]
    if not lists:
        raise MeshParseError(path, line_no, "face element lacks a vertex list")
    return lists[0]


def _record_dtype(path, name, props):
    """An element's little-endian binary record: scalar property i is field
    ``str(i)``, the face's vertex list fields ``count`` and ``indices`` (3)."""
    at = _vertex_list(path, 0, props) if name == "face" else None
    fields = []
    for i, (_, code, count_code) in enumerate(props):
        if count_code is None:
            fields.append((str(i), "<" + code))
        elif i == at:
            fields += [("count", "<" + count_code), ("indices", "<" + code, 3)]
        else:
            raise MeshParseError(path, 0, f"list property on {name} element")
    return np.dtype(fields)


def _read_binary_ply(path, data, offset, n_header, elements):
    verts = colors = faces = None
    for name, count, props in elements:
        rec = _record_dtype(path, name, props)
        block = memoryview(data)[offset:offset + count * rec.itemsize]
        offset += count * rec.itemsize
        if name == "vertex":
            xyz, rgb = _vertex_columns(path, 0, props)
        elif name != "face":
            continue
        rows = np.frombuffer(block, rec, len(block) // rec.itemsize)
        # checked first: the rows after one that is no triangle are misaligned
        if name == "face" and np.any(rows["count"] != 3):
            raise MeshParseError(path, 0, "only triangle faces supported")
        if len(rows) < count:
            raise MeshParseError(path, 0, f"truncated binary {name} data")
        if name == "vertex":
            verts = np.column_stack([rows[str(i)] for i in xyz]).astype(np.float64)
            if rgb:  # colors are integers in 0-255, as in ASCII files
                c = np.column_stack([rows[str(i)] for i in rgb])
                if not np.all((c >= 0) & (c <= 255) & (np.floor(c) == c)):
                    raise MeshParseError(path, 0, "bad vertex value")
                colors = c.astype(np.uint8)
        elif count:
            faces = rows["indices"].astype(np.int64)
    return verts, colors, faces


def _read_ascii_ply(path, data, offset, n_header, elements):
    ends = offset + np.flatnonzero(np.frombuffer(data, np.uint8, offset=offset) == ord("\n"))
    if not data.endswith(b"\n"):
        ends = np.append(ends, len(data))  # the last line has no newline
    line_starts = np.r_[offset, ends + 1]
    verts = colors = faces = None
    cursor = 0
    for name, count, props in elements:
        if cursor + count > len(ends):
            raise MeshParseError(path, n_header + len(ends) + 1,
                                 f"truncated element {name!r}")
        line_no = n_header + cursor  # the line before the element's rows
        begin, row_ends = line_starts[cursor], ends[cursor:cursor + count]
        cursor += count
        if name not in ("vertex", "face"):
            continue
        # the element's tokens and each row's [first, stop) range of them
        block = data[begin:row_ends[-1] if count else begin]
        chars = np.frombuffer(block, np.uint8)
        space = (chars == 32) | ((chars >= 9) & (chars <= 13))  # as bytes.split()
        bounds = np.searchsorted(np.flatnonzero(~space & np.r_[True, space[:-1]]),
                                 np.r_[0, row_ends - begin])
        words = np.array(block.split(), dtype=object)
        first, stop = bounds[:-1], bounds[1:]
        if name == "vertex":
            xyz, rgb = _vertex_columns(path, line_no, props)
            short = min(np.flatnonzero(stop - first < len(props)), default=count)
            verts = _parse_rows(words[first[:short, None] + xyz], np.float64)
            if rgb:  # colors are integers in 0-255
                colors = _parse_rows(words[first[:len(verts), None] + rgb], np.int64)
                fits = np.append(np.all((colors >= 0) & (colors <= 255), axis=1), False)
                colors = colors[:np.argmin(fits)].astype(np.uint8)
            good = len(verts) if colors is None else len(colors)
            if good < count:
                raise MeshParseError(path, line_no + good + 1, "truncated vertex row"
                                     if good == short else "bad vertex value")
        else:
            at = _vertex_list(path, line_no, props)
            short = min(np.flatnonzero(stop - first < at + 4), default=count)
            rows = _parse_rows(words[first[:short, None] + at + np.arange(4)], np.int64)
            bad = min(np.flatnonzero(rows[:, 0] != 3), default=len(rows))
            if bad < count:
                # no triangle: a row that parses or is cut short after its count
                cut = bad == short and stop[bad] > first[bad] + at
                message = ("only triangle faces supported" if bad < len(rows) or cut
                           else "bad face row")
                raise MeshParseError(path, line_no + bad + 1, message)
            faces = rows[:, 1:] if count else None
        del words, block, chars, space  # before the next element's tokens exist
    return verts, colors, faces


def _parse_rows(words, dtype):
    """Rows of byte tokens as ``dtype`` numbers, up to the first that fails."""
    try:
        return words.astype(dtype)
    except (ValueError, OverflowError):
        for r, row in enumerate(words):  # only to find the row to report
            try:
                row.astype(dtype)
            except (ValueError, OverflowError):
                return words[:r].astype(dtype)


def _save_ply(shape, path, binary=False):
    props = [(c, "double") for c in "xyz"]
    columns = list(shape.vertices.T)
    if shape.colors is not None:
        props += [(c, "uchar") for c in ("red", "green", "blue")]
        columns += list(shape.colors.T)
    faces = np.zeros((0, 3), np.int64) if shape.faces is None else shape.faces
    header = ["ply", f"format {'binary_little_endian' if binary else 'ascii'} 1.0",
              f"element vertex {shape.n_vertices}",
              *(f"property {typ} {name}" for name, typ in props)]
    if len(faces):
        header += [f"element face {len(faces)}", "property list uchar int vertex_indices"]
    vertices = np.rec.fromarrays(columns, [(n, "<" + _PLY_TYPES[t]) for n, t in props])
    if binary:
        body = vertices.tobytes() + np.rec.fromarrays(
            [np.full(len(faces), 3), faces], "u1, (3,)<i4").tobytes()
    else:
        fmt = "%.9g %.9g %.9g" + " %d %d %d" * (shape.colors is not None) + "\n"
        body = (_text_rows(fmt, vertices) + _text_rows("3 %d %d %d\n", faces)).encode()
    with open(path, "wb") as fh:
        fh.write("".join(f"{h}\n" for h in header + ["end_header"]).encode() + body)
