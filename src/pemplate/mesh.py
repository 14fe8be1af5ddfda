"""Triangular meshes of planar domains with named boundary node groups.

One mesh carries both fields of the coupled problem: the bending field uses
the three corner DOFs per node, the electric field one corner DOF. Meshes are
immutable after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import (
    DanglingNodeError,
    MeshParseError,
    ValidationError,
    ZeroAreaTriangleError,
)

_AREA_TOL = 1e-14
_LOCATE_TOL = 1e-12


def triangle_signed_area(coords):
    """Signed area of a triangle given a (3, 2) coordinate array.

    A (ntri, 3, 2) stack gives the (ntri,) signed areas.
    """
    p = np.asarray(coords)
    return 0.5 * ((p[..., 1, 0] - p[..., 0, 0]) * (p[..., 2, 1] - p[..., 0, 1])
                  - (p[..., 2, 0] - p[..., 0, 0]) * (p[..., 1, 1] - p[..., 0, 1]))


@dataclass(frozen=True)
class Mesh:
    """Conforming triangulation with per-node boundary group membership.

    Attributes
    ----------
    nodes : ndarray, shape (n_nodes, 2)
        Node coordinates; node ids are the row indices.
    triangles : ndarray, shape (n_triangles, 3)
        Counterclockwise node-id triples.
    edge_groups : mapping
        Named boundary segments as frozensets of node ids.
    """

    nodes: np.ndarray
    triangles: np.ndarray
    edge_groups: Mapping[str, frozenset] = field(default_factory=dict)

    def __post_init__(self):
        nodes = np.ascontiguousarray(np.asarray(self.nodes, dtype=float))
        tris = np.ascontiguousarray(np.asarray(self.triangles, dtype=np.int64))
        nodes.setflags(write=False)
        tris.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "triangles", tris)
        object.__setattr__(self, "edge_groups", dict(self.edge_groups))
        self._validate()

    def _validate(self):
        if self.nodes.ndim != 2 or self.nodes.shape[1] != 2:
            raise ValidationError("node array must have shape (n_nodes, 2)")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise ValidationError("triangle array must have shape (n_triangles, 3)")
        if len(self.triangles) == 0:
            raise ValidationError("mesh has no triangles")
        # a NaN area passes both the zero-area and the clockwise test below
        finite = np.isfinite(self.nodes).all(axis=1)
        if not finite.all():
            node = int(np.argmin(finite))
            raise ValidationError(f"node {node} has a non-finite coordinate "
                                  f"{tuple(map(float, self.nodes[node]))}")
        n = len(self.nodes)
        # the element geometry multiplies two coordinate differences, each
        # at most the span dx or dy, and subtracts two such products
        if n:
            (x0, y0), (x1, y1) = (self.nodes.min(axis=0).tolist(),
                                  self.nodes.max(axis=0).tolist())
            dx, dy = x1 - x0, y1 - y0
            if not math.isfinite(2.0 * (dx * dx + dy * dy)):
                raise ValidationError(
                    f"the nodes span {dx:g} x {dy:g}: the element geometry's "
                    "squared lengths overflow float64")
        tris = self.triangles
        # per-triangle checks in order: repeated node, dangling node, zero
        # area, clockwise; the first triangle failing any of them is reported
        repeated = ((tris[:, 0] == tris[:, 1]) | (tris[:, 1] == tris[:, 2])
                    | (tris[:, 0] == tris[:, 2]))
        dangling = ((tris < 0) | (tris >= n)).any(axis=1)
        area = np.zeros(len(tris))
        ok = ~(repeated | dangling)
        area[ok] = triangle_signed_area(self.nodes[tris[ok]])
        bad = np.flatnonzero(~ok | (np.abs(area) <= _AREA_TOL) | (area < 0))
        if bad.size:
            e = int(bad[0])
            tri = tris[e]
            if repeated[e]:
                raise ValidationError(f"triangle {e} repeats a node: {tuple(tri)}")
            if dangling[e]:
                i = next(i for i in tri if not 0 <= i < n)
                raise DanglingNodeError(
                    f"triangle {e} references node {int(i)} of {n}"
                )
            if abs(area[e]) <= _AREA_TOL:
                raise ZeroAreaTriangleError(f"triangle {e} has zero area")
            raise ValidationError(
                f"triangle {e} is clockwise (signed area {area[e]:g})"
            )
        # conforming and unfolded: counterclockwise triangles run along an
        # edge at most once each way, so a directed edge (the int64 key
        # a * n + b of a -> b) occurs once. An edge of three or more
        # triangles repeats a direction too; it is reported by its count.
        keys = np.sort((tris * n + np.roll(tris, -1, axis=1)).ravel())
        twice = np.flatnonzero(keys[1:] == keys[:-1])
        if twice.size:
            a, b = divmod(int(keys[twice[0]]), n)
            shared = np.count_nonzero(np.isin(tris, (a, b)).sum(axis=1) == 2)
            if shared > 2:
                raise ValidationError(f"edge ({min(a, b)}, {max(a, b)}) is "
                                      f"shared by {shared} triangles "
                                      "(non-conforming)")
            raise ValidationError(
                f"edge ({a}, {b}) runs the same way in two triangles: the "
                "mesh folds over itself")
        referenced = np.zeros(n, dtype=bool)
        referenced[self.triangles.ravel()] = True
        if not referenced.all():
            orphan = int(np.flatnonzero(~referenced)[0])
            raise ValidationError(f"node {orphan} is not referenced by any triangle")
        for name, members in self.edge_groups.items():
            for i in members:
                if not 0 <= i < n:
                    raise ValidationError(
                        f"edge group '{name}' references node {int(i)} of {n}"
                    )

    @property
    def n_nodes(self):
        return len(self.nodes)

    @property
    def n_triangles(self):
        return len(self.triangles)

    def triangle_areas(self):
        return triangle_signed_area(self.nodes[self.triangles])

    def total_area(self):
        return float(self.triangle_areas().sum())

    def locate(self, x, y):
        """``(e, L)`` of the first triangle e whose area coordinates L of
        (x, y) are all >= -1e-12, or None: a point outside the mesh."""
        p = self.nodes[self.triangles]
        (x1, x2, x3), (y1, y2, y3) = p[..., 0].T, p[..., 1].T
        a2 = 2.0 * triangle_signed_area(p)
        l1 = ((x2 * y3 - x3 * y2) + (y2 - y3) * x + (x3 - x2) * y) / a2
        l2 = ((x3 * y1 - x1 * y3) + (y3 - y1) * x + (x1 - x3) * y) / a2
        L = np.column_stack([l1, l2, 1.0 - l1 - l2])
        hits = np.flatnonzero((L >= -_LOCATE_TOL).all(axis=1))
        if hits.size == 0:
            return None
        e = int(hits[0])
        return e, L[e]


def generate_structured_square(n, side=1.0, pattern="crossed"):
    """Structured mesh of the [0, side]^2 square with all edges in one group.

    ``pattern="crossed"`` splits each of the n x n cells into four triangles
    around the cell centroid; the mesh then has the full symmetry group of
    the square, which keeps degenerate eigenpairs numerically paired.
    ``pattern="diagonal"`` uses the plain two-triangle split.
    """
    if n < 1:
        raise ValidationError(f"subdivision count must be >= 1, got {n}")
    if side <= 0:
        raise ValidationError(f"side length must be positive, got {side}")
    if pattern not in ("crossed", "diagonal"):
        raise ValidationError(f"unknown pattern '{pattern}'")

    h = side / n
    iy, ix = np.divmod(np.arange((n + 1) ** 2), n + 1)
    nodes = np.column_stack([ix * h, iy * h])
    # cell (cx, cy) in row-major order: corners a, b, c, d counterclockwise
    cell = np.arange(n * n)
    cy, cx = np.divmod(cell, n)
    a = cy * (n + 1) + cx
    b, c, d = a + 1, a + n + 2, a + n + 1
    if pattern == "crossed":
        nodes = np.vstack([nodes, np.column_stack([(cx + 0.5) * h, (cy + 0.5) * h])])
        m = (n + 1) ** 2 + cell
        corners = [a, b, m, b, c, m, c, d, m, d, a, m]
    else:
        corners = [a, b, c, a, c, d]
    triangles = np.column_stack(corners).reshape(-1, 3)
    rim = (ix == 0) | (ix == n) | (iy == 0) | (iy == n)
    boundary = frozenset(np.flatnonzero(rim).tolist())
    return Mesh(nodes, triangles, {"boundary": boundary})


def _table(path, rows, convert, form, bad):
    """The tokens of ``rows`` through ``convert``, in one flat list; each
    row must have the tokens of ``form``."""
    values = []
    for lineno, toks in rows:
        if len(toks) != len(form.split()):
            raise MeshParseError(f"{path}:{lineno}: expected '{form}', got {' '.join(toks)}")
        try:
            values += [convert(t) for t in toks]
        except ValueError:
            raise MeshParseError(f"{path}:{lineno}: {bad}") from None
    return values


def load_mesh(path):
    """Read a mesh from the plain-text format.

    Format: header ``nodes N triangles T groups G``, then N ``x y`` lines,
    T ``i j k`` lines (0-based), and G blocks of ``group NAME`` followed by
    node-index lines. ``#`` starts a comment. Clockwise triangles are fixed
    by swapping two node ids. This reads the file only; :class:`Mesh` checks
    the geometry, and its errors are raised with the file path in front.
    """
    tokens_per_line = []
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                text = raw.split("#", 1)[0].strip()
                if text:
                    tokens_per_line.append((lineno, text.split()))
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise MeshParseError(f"mesh file {path} is unreadable: {reason}") from None

    if not tokens_per_line:
        raise MeshParseError(f"{path}: empty mesh file")

    lineno, header = tokens_per_line[0]
    if (
        len(header) != 6
        or header[0] != "nodes"
        or header[2] != "triangles"
        or header[4] != "groups"
    ):
        raise MeshParseError(
            f"{path}:{lineno}: expected header 'nodes N triangles T groups G'"
        )
    try:
        n_nodes, n_tris, n_groups = int(header[1]), int(header[3]), int(header[5])
    except ValueError:
        raise MeshParseError(f"{path}:{lineno}: non-integer count in header") from None
    if min(n_nodes, n_tris, n_groups) < 0:
        raise MeshParseError(f"{path}:{lineno}: negative count in header")

    rows = tokens_per_line[1:]
    if len(rows) < n_nodes + n_tris:
        raise MeshParseError(f"{path}: truncated file (expected more data lines)")

    nodes = np.array(_table(path, rows[:n_nodes], float, "x y", "bad coordinate"),
                     dtype=float).reshape(n_nodes, 2)
    tri_rows = rows[n_nodes:n_nodes + n_tris]
    ids = _table(path, tri_rows, int, "i j k", "bad node index")
    try:
        triangles = np.array(ids, dtype=np.int64).reshape(n_tris, 3)
    except OverflowError:
        k = next(k for k, i in enumerate(ids) if not -2**63 <= i < 2**63)
        raise DanglingNodeError(
            f"{path}:{tri_rows[k // 3][0]}: triangle {k // 3} references "
            f"node {ids[k]} of {n_nodes}"
        ) from None
    # swap the clockwise triangles whose ids are in range; Mesh rejects the
    # rest, and a span whose areas overflow
    inside = np.flatnonzero(((triangles >= 0) & (triangles < n_nodes)).all(axis=1))
    with np.errstate(over="ignore", invalid="ignore"):
        cw = inside[triangle_signed_area(nodes[triangles[inside]]) < 0]
    triangles[cw, 1:] = triangles[cw, 2:0:-1]

    groups = {}
    current = None
    for lineno, toks in rows[n_nodes + n_tris:]:
        if toks[0] == "group":
            if len(toks) != 2:
                raise MeshParseError(f"{path}:{lineno}: expected 'group NAME'")
            current = toks[1]
            groups.setdefault(current, set())
        else:
            if current is None:
                raise MeshParseError(
                    f"{path}:{lineno}: node indices before any 'group' line"
                )
            try:
                groups[current].update(int(t) for t in toks)
            except ValueError:
                raise MeshParseError(f"{path}:{lineno}: bad node index in group") from None

    if len(groups) != n_groups:
        raise MeshParseError(
            f"{path}: header declares {n_groups} groups, file defines {len(groups)}"
        )
    try:
        return Mesh(nodes, triangles, {k: frozenset(v) for k, v in groups.items()})
    except ValidationError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def save_mesh(mesh, path):
    """Write a mesh in the plain-text format accepted by :func:`load_mesh`."""
    lines = [
        f"nodes {mesh.n_nodes} triangles {mesh.n_triangles} groups {len(mesh.edge_groups)}"
    ]
    for x, y in mesh.nodes:
        lines.append(f"{x:.17g} {y:.17g}")
    for i, j, k in mesh.triangles:
        lines.append(f"{i} {j} {k}")
    for name in sorted(mesh.edge_groups):
        lines.append(f"group {name}")
        members = sorted(mesh.edge_groups[name])
        for start in range(0, len(members), 12):
            lines.append(" ".join(str(i) for i in members[start:start + 12]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


@dataclass(frozen=True)
class MeshStatistics:
    n_nodes: int
    n_triangles: int
    min_angle: float
    max_edge: float
    total_area: float


def mesh_statistics(mesh):
    """Counts plus minimum corner angle (degrees), longest edge and total area."""
    p = mesh.nodes[mesh.triangles]
    # at corner i: u to corner i + 1 and v to corner i + 2. np.dot of two
    # 2-vectors may fuse a multiply-add in BLAS; these products never do
    u = np.roll(p, -1, axis=1) - p
    v = np.roll(p, -2, axis=1) - p
    u_len = np.sqrt(u[..., 0] * u[..., 0] + u[..., 1] * u[..., 1])
    v_len = np.sqrt(v[..., 0] * v[..., 0] + v[..., 1] * v[..., 1])
    cosang = (u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1]) / (u_len * v_len)
    return MeshStatistics(
        n_nodes=mesh.n_nodes,
        n_triangles=mesh.n_triangles,
        min_angle=float(np.degrees(np.arccos(np.clip(cosang, -1, 1))).min()),
        max_edge=float(u_len.max()),
        total_area=mesh.total_area(),
    )
