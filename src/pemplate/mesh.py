"""Triangular meshes of planar domains with named boundary node groups.

One mesh carries both fields of the coupled problem: the bending field uses
the three corner DOFs per node, the electric field one corner DOF. Meshes are
immutable after construction and safe to share between threads.
"""

from __future__ import annotations

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
        n = len(self.nodes)
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

    def edge_incidence(self):
        """Map of undirected edge -> number of incident triangles."""
        counts = {}
        for tri in self.triangles:
            for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
                key = (int(min(a, b)), int(max(a, b)))
                counts[key] = counts.get(key, 0) + 1
        return counts

    def check_conforming(self):
        """Raise unless every edge is shared by one or two triangles."""
        for edge, count in self.edge_incidence().items():
            if count > 2:
                raise ValidationError(
                    f"edge {edge} is shared by {count} triangles (non-conforming)"
                )

    def contains_point(self, x, y, tol=1e-12):
        """Index of a triangle containing (x, y), or None."""
        for e, tri in enumerate(self.triangles):
            if _barycentric(self.nodes[tri], x, y, tol) is not None:
                return e
        return None


def _barycentric(coords, x, y, tol):
    a2 = 2.0 * triangle_signed_area(coords)
    (x1, y1), (x2, y2), (x3, y3) = coords
    l1 = ((x2 * y3 - x3 * y2) + (y2 - y3) * x + (x3 - x2) * y) / a2
    l2 = ((x3 * y1 - x1 * y3) + (y3 - y1) * x + (x1 - x3) * y) / a2
    l3 = 1.0 - l1 - l2
    if l1 >= -tol and l2 >= -tol and l3 >= -tol:
        return np.array([l1, l2, l3])
    return None


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
    grid = np.array(
        [[ix * h, iy * h] for iy in range(n + 1) for ix in range(n + 1)]
    )

    def gid(ix, iy):
        return iy * (n + 1) + ix

    triangles = []
    if pattern == "crossed":
        centroids = np.array(
            [[(cx + 0.5) * h, (cy + 0.5) * h] for cy in range(n) for cx in range(n)]
        )
        nodes = np.vstack([grid, centroids])
        for cy in range(n):
            for cx in range(n):
                a = gid(cx, cy)
                b = gid(cx + 1, cy)
                c = gid(cx + 1, cy + 1)
                d = gid(cx, cy + 1)
                m = (n + 1) ** 2 + cy * n + cx
                triangles += [(a, b, m), (b, c, m), (c, d, m), (d, a, m)]
    else:
        nodes = grid
        for cy in range(n):
            for cx in range(n):
                a = gid(cx, cy)
                b = gid(cx + 1, cy)
                c = gid(cx + 1, cy + 1)
                d = gid(cx, cy + 1)
                triangles += [(a, b, c), (a, c, d)]

    boundary = frozenset(
        gid(ix, iy)
        for iy in range(n + 1)
        for ix in range(n + 1)
        if ix in (0, n) or iy in (0, n)
    )
    return Mesh(nodes, np.array(triangles), {"boundary": boundary})


def load_mesh(path):
    """Read a mesh from the plain-text format.

    Format: header ``nodes N triangles T groups G``, then N ``x y`` lines,
    T ``i j k`` lines (0-based), and G blocks of ``group NAME`` followed by
    node-index lines. ``#`` starts a comment. Clockwise triangles are fixed
    by swapping two node ids.
    """
    tokens_per_line = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.split("#", 1)[0].strip()
            if text:
                tokens_per_line.append((lineno, text.split()))

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

    rows = tokens_per_line[1:]
    if len(rows) < n_nodes + n_tris:
        raise MeshParseError(f"{path}: truncated file (expected more data lines)")

    nodes = np.empty((n_nodes, 2))
    for k in range(n_nodes):
        lineno, toks = rows[k]
        if len(toks) != 2:
            raise MeshParseError(f"{path}:{lineno}: expected 'x y', got {' '.join(toks)}")
        try:
            nodes[k] = [float(toks[0]), float(toks[1])]
        except ValueError:
            raise MeshParseError(f"{path}:{lineno}: bad coordinate") from None

    triangles = np.empty((n_tris, 3), dtype=np.int64)
    for k in range(n_tris):
        lineno, toks = rows[n_nodes + k]
        if len(toks) != 3:
            raise MeshParseError(f"{path}:{lineno}: expected 'i j k', got {' '.join(toks)}")
        try:
            tri = [int(t) for t in toks]
        except ValueError:
            raise MeshParseError(f"{path}:{lineno}: bad node index") from None
        for i in tri:
            if not 0 <= i < n_nodes:
                raise DanglingNodeError(
                    f"{path}:{lineno}: triangle {k} references node {i} of {n_nodes}"
                )
        area = triangle_signed_area(nodes[tri])
        if abs(area) <= _AREA_TOL:
            raise ZeroAreaTriangleError(f"{path}:{lineno}: triangle {k} has zero area")
        if area < 0:
            tri[1], tri[2] = tri[2], tri[1]
        triangles[k] = tri

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
                ids = [int(t) for t in toks]
            except ValueError:
                raise MeshParseError(f"{path}:{lineno}: bad node index in group") from None
            for i in ids:
                if not 0 <= i < n_nodes:
                    raise MeshParseError(
                        f"{path}:{lineno}: group '{current}' references node {i} of {n_nodes}"
                    )
            groups[current].update(ids)

    if len(groups) != n_groups:
        raise MeshParseError(
            f"{path}: header declares {n_groups} groups, file defines {len(groups)}"
        )
    return Mesh(nodes, triangles, {k: frozenset(v) for k, v in groups.items()})


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
    min_angle = np.inf
    max_edge = 0.0
    for tri in p:
        for i in range(3):
            u = tri[(i + 1) % 3] - tri[i]
            v = tri[(i + 2) % 3] - tri[i]
            cosang = np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v))
            min_angle = min(min_angle, np.degrees(np.arccos(np.clip(cosang, -1, 1))))
            max_edge = max(max_edge, float(np.linalg.norm(u)))
    return MeshStatistics(
        n_nodes=mesh.n_nodes,
        n_triangles=mesh.n_triangles,
        min_angle=float(min_angle),
        max_edge=max_edge,
        total_area=mesh.total_area(),
    )
