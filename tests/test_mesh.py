import re
from importlib import resources

import numpy as np
import pytest

from pemplate.errors import (
    DanglingNodeError,
    MeshParseError,
    ValidationError,
    ZeroAreaTriangleError,
)
from pemplate.mesh import (
    Mesh,
    generate_structured_square,
    load_mesh,
    mesh_statistics,
    save_mesh,
)


def shoelace(coords):
    # independent signed-area formula for the oracle sums
    x, y = coords[:, 0], coords[:, 1]
    return 0.5 * (x[0] * (y[1] - y[2]) + x[1] * (y[2] - y[0]) + x[2] * (y[0] - y[1]))


def structured_square_loops(n, side=1.0, pattern="crossed"):
    """The former loop-built generator: (nodes, triangles, boundary), the
    oracle for ``generate_structured_square``."""
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
    return nodes, np.array(triangles, dtype=np.int64), boundary


class TestStructuredSquare:
    @pytest.mark.parametrize("pattern", ["crossed", "diagonal"])
    @pytest.mark.parametrize("side", [1.0, 0.3])
    @pytest.mark.parametrize("n", [1, 2, 3, 16, 64])
    def test_matches_loop_oracle_bit_for_bit(self, n, side, pattern):
        m = generate_structured_square(n, side, pattern)
        nodes, triangles, boundary = structured_square_loops(n, side, pattern)
        assert m.nodes.shape == nodes.shape
        assert m.nodes.tobytes() == nodes.tobytes()
        assert m.triangles.shape == triangles.shape
        assert m.triangles.tobytes() == triangles.tobytes()
        assert m.edge_groups == {"boundary": boundary}
        assert all(type(i) is int for i in m.edge_groups["boundary"])

    def test_single_cell_diagonal(self):
        m = generate_structured_square(1, 1.0, "diagonal")
        assert m.n_nodes == 4
        assert m.n_triangles == 2
        assert m.total_area() == pytest.approx(1.0, abs=1e-15)

    def test_two_cells_diagonal(self):
        m = generate_structured_square(2, 1.0, "diagonal")
        assert m.n_nodes == 9
        assert m.n_triangles == 8

    def test_crossed_counts(self):
        m = generate_structured_square(2, 1.0, "crossed")
        assert m.n_nodes == 9 + 4  # grid plus cell centroids
        assert m.n_triangles == 16

    @pytest.mark.parametrize("pattern", ["crossed", "diagonal"])
    def test_area_sum_oracle(self, pattern):
        m = generate_structured_square(16, 1.0, pattern)
        total = sum(shoelace(m.nodes[t]) for t in m.triangles)
        assert abs(total - 1.0) <= 1e-12

    @pytest.mark.parametrize("pattern", ["crossed", "diagonal"])
    def test_refinement_keeps_area(self, pattern):
        for n in (1, 2, 4):
            a = generate_structured_square(n, 1.0, pattern).total_area()
            b = generate_structured_square(2 * n, 1.0, pattern).total_area()
            assert abs(a - b) <= 1e-12

    def test_invalid_arguments(self):
        with pytest.raises(ValidationError):
            generate_structured_square(0, 1.0)
        with pytest.raises(ValidationError):
            generate_structured_square(2, -1.0)
        with pytest.raises(ValidationError):
            generate_structured_square(2, 1.0, "zigzag")

    def test_boundary_group(self):
        m = generate_structured_square(3, 1.0, "crossed")
        boundary = m.edge_groups["boundary"]
        assert len(boundary) == 4 * 3
        for i in boundary:
            x, y = m.nodes[i]
            assert min(x, y) == 0.0 or max(x, y) == 1.0

    @pytest.mark.parametrize("pattern", ["crossed", "diagonal"])
    def test_all_triangles_ccw(self, pattern):
        m = generate_structured_square(4, 2.0, pattern)
        assert (m.triangle_areas() > 0).all()

    @pytest.mark.parametrize("pattern", ["crossed", "diagonal"])
    def test_edge_incidence(self, pattern):
        m = generate_structured_square(3, 1.0, pattern)
        edges = np.sort(m.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
        _, counts = np.unique(edges, axis=0, return_counts=True)
        assert set(counts.tolist()) <= {1, 2}
        # boundary edges form the square perimeter
        assert np.count_nonzero(counts == 1) == 4 * 3


class TestMeshValidation:
    def test_clockwise_rejected_on_construction(self):
        with pytest.raises(ValidationError):
            Mesh(np.array([[0.0, 0], [1, 0], [0, 1]]), np.array([[0, 2, 1]]))

    def test_repeated_node_rejected(self):
        with pytest.raises(ValidationError):
            Mesh(np.array([[0.0, 0], [1, 0], [0, 1]]), np.array([[0, 1, 1]]))

    def test_no_triangles_rejected(self):
        with pytest.raises(ValidationError, match="mesh has no triangles"):
            Mesh(np.empty((0, 2)), np.empty((0, 3), dtype=np.int64),
                 {"boundary": frozenset()})

    @staticmethod
    def _faulty(faults):
        """The 2x2 diagonal square with some triangles replaced."""
        base = generate_structured_square(2, 1.0, "diagonal")
        nodes = np.vstack([base.nodes, [[0.25, 0.0]]])  # node 9 on edge 0-1
        tris = base.triangles.copy()
        for e, tri in faults.items():
            tris[e] = tri
        return nodes, tris

    # each fault sits in triangle 5, with a different fault behind it in
    # triangle 6: the message must name the first offender
    @pytest.mark.parametrize("fault, error, message", [
        ((3, 4, 3), ValidationError, r"triangle 5 repeats a node"),
        ((3, 4, 12), DanglingNodeError, r"triangle 5 references node 12 of 10"),
        ((0, 9, 1), ZeroAreaTriangleError, r"triangle 5 has zero area"),
        ((3, 7, 4), ValidationError, r"triangle 5 is clockwise"),
    ])
    def test_first_offender_named(self, fault, error, message):
        later = (0, 9, 1) if fault != (0, 9, 1) else (3, 7, 4)
        nodes, tris = self._faulty({5: fault, 6: later})
        with pytest.raises(error, match=message):
            Mesh(nodes, tris)

    def test_checks_run_in_order_within_a_triangle(self):
        # a repeated node is reported before the dangling index beside it
        nodes, tris = self._faulty({2: (4, 4, 99)})
        with pytest.raises(ValidationError, match="triangle 2 repeats") as exc:
            Mesh(nodes, tris)
        assert not isinstance(exc.value, DanglingNodeError)
        # a dangling index is reported before the area checks
        nodes, tris = self._faulty({2: (4, -1, 0)})
        with pytest.raises(DanglingNodeError, match="node -1 of 10"):
            Mesh(nodes, tris)

    def test_non_conforming_edge_named(self):
        # edges (0, 1) and (5, 6) each border two triangles above them and
        # one below; the lower node pair is named, whatever the triangle order
        nodes = np.array([[0.0, 0], [1, 0], [0.5, 1], [0.5, -1], [0.5, 2]])
        tris = np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]])
        nodes = np.vstack([nodes, nodes + [3.0, 0.0]])
        tris = np.vstack([tris + 5, tris])
        for order in (tris, tris[::-1]):
            with pytest.raises(ValidationError,
                               match=r"edge \(0, 1\) is shared by 3 triangles"):
                Mesh(nodes, order)

    def test_unreferenced_node_rejected(self):
        nodes = np.array([[0.0, 0], [1, 0], [0, 1], [5, 5]])
        with pytest.raises(ValidationError, match="node 3"):
            Mesh(nodes, np.array([[0, 1, 2]]))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_node_named(self, value):
        # a NaN area would pass both the zero-area and the clockwise test
        nodes = np.array([[0.0, 0], [1, 0], [0, 1], [1, 1]])
        nodes[2, 1] = value
        with pytest.raises(ValidationError,
                           match="node 2 has a non-finite coordinate"):
            Mesh(nodes, np.array([[0, 1, 2], [1, 3, 2]]))

    @pytest.mark.parametrize("far", [1e154, -1e300, 1.7e308])
    def test_span_whose_squares_overflow_named(self, far):
        # finite coordinates whose differences' products overflow would
        # make the element geometry inf or nan
        nodes = np.array([[0.0, 0], [1, 0], [0, 1], [far, far]])
        with pytest.raises(ValidationError, match="squared lengths overflow"):
            Mesh(nodes, np.array([[0, 1, 2], [1, 3, 2]]))

    def test_nodes_immutable(self):
        m = generate_structured_square(1, 1.0, "diagonal")
        with pytest.raises(ValueError):
            m.nodes[0, 0] = 7.0


class TestLoadMesh:
    def _write(self, tmp_path, text):
        p = tmp_path / "m.mesh"
        p.write_text(text)
        return p

    def test_roundtrip_identity(self, tmp_path):
        p = self._write(tmp_path, """
# a single CCW triangle
nodes 3 triangles 1 groups 1
0 0
1 0
0 1
0 1 2
group rim
0 1 2
""".strip())
        m = load_mesh(p)
        assert list(m.triangles[0]) == [0, 1, 2]
        assert m.edge_groups["rim"] == frozenset({0, 1, 2})

    def test_clockwise_fixed_by_swap(self, tmp_path):
        p = self._write(tmp_path, "nodes 3 triangles 1 groups 0\n0 0\n1 0\n0 1\n0 2 1\n")
        m = load_mesh(p)
        assert shoelace(m.nodes[m.triangles[0]]) > 0
        assert set(m.triangles[0]) == {0, 1, 2}

    def test_only_clockwise_triangles_swapped(self, tmp_path):
        # the 2x2 diagonal square, triangles 1, 4 and 6 written clockwise
        m = generate_structured_square(2, 1.0, "diagonal")
        tris = m.triangles.copy()
        clockwise = [1, 4, 6]
        tris[clockwise] = tris[clockwise][:, [0, 2, 1]]
        lines = [f"nodes {m.n_nodes} triangles {len(tris)} groups 0"]
        lines += [f"{x:.17g} {y:.17g}" for x, y in m.nodes]
        lines += [f"{i} {j} {k}" for i, j, k in tris]
        loaded = load_mesh(self._write(tmp_path, "\n".join(lines) + "\n"))
        assert loaded.triangles.tobytes() == m.triangles.tobytes()
        changed = np.flatnonzero((loaded.triangles != tris).any(axis=1))
        assert changed.tolist() == clockwise

    def test_dangling_index_names_element(self, tmp_path):
        p = self._write(tmp_path, "nodes 3 triangles 1 groups 0\n0 0\n1 0\n0 1\n0 1 99\n")
        with pytest.raises(DanglingNodeError, match="triangle 0 references node 99 of 3"):
            load_mesh(p)

    @pytest.mark.parametrize("index", ["99999999999999999999999",
                                       "-99999999999999999999999"])
    def test_index_beyond_int64_names_line(self, tmp_path, index):
        p = self._write(tmp_path, f"nodes 3 triangles 2 groups 0\n0 0\n1 0\n0 1\n"
                                  f"0 1 2\n0 1 {index}\n")
        with pytest.raises(DanglingNodeError, match=re.escape(
                f"{p}:6: triangle 1 references node {int(index)} of 3")):
            load_mesh(p)

    @pytest.mark.parametrize("body, message", [
        ("nodes 3 triangles 1 groups 0\n0 0\n1 0\n0 1\n0 1 1\n",
         "triangle 0 repeats a node"),
        ("nodes 3 triangles 1 groups 1\n0 0\n1 0\n0 1\n0 1 2\ngroup rim\n0 1 7\n",
         "edge group 'rim' references node 7 of 3"),
        ("nodes 0 triangles 0 groups 1\ngroup boundary\n",
         "mesh has no triangles"),
    ], ids=["repeated-node", "group-node", "no-triangles"])
    def test_mesh_error_names_file(self, tmp_path, body, message):
        p = self._write(tmp_path, body)
        with pytest.raises(ValidationError, match=re.escape(f"{p}: {message}")):
            load_mesh(p)

    def test_zero_area_named(self, tmp_path):
        p = self._write(
            tmp_path,
            "nodes 4 triangles 2 groups 0\n0 0\n1 0\n2 0\n0 1\n0 1 3\n0 1 2\n",
        )
        with pytest.raises(ZeroAreaTriangleError, match="triangle 1"):
            load_mesh(p)

    def test_bad_header(self, tmp_path):
        p = self._write(tmp_path, "vertices 3 triangles 1 groups 0\n")
        with pytest.raises(MeshParseError, match="header"):
            load_mesh(p)

    @pytest.mark.parametrize("header", [
        "nodes -1 triangles 0 groups 0",
        "nodes 3 triangles -1 groups 0",
    ])
    def test_negative_header_count_names_line(self, tmp_path, header):
        p = self._write(tmp_path, f"# counts\n{header}\n0 0\n1 0\n0 1\n")
        with pytest.raises(MeshParseError,
                           match=re.escape(f"{p}:2: negative count in header")):
            load_mesh(p)

    def test_bad_coordinate_names_line(self, tmp_path):
        p = self._write(tmp_path, "nodes 3 triangles 1 groups 0\n0 zero\n1 0\n0 1\n0 1 2\n")
        with pytest.raises(MeshParseError, match=":2"):
            load_mesh(p)

    def test_truncated_file(self, tmp_path):
        p = self._write(tmp_path, "nodes 3 triangles 1 groups 0\n0 0\n1 0\n")
        with pytest.raises(MeshParseError, match="truncated"):
            load_mesh(p)

    def test_group_count_mismatch(self, tmp_path):
        p = self._write(tmp_path, "nodes 3 triangles 1 groups 2\n0 0\n1 0\n0 1\n0 1 2\ngroup rim\n0 1\n")
        with pytest.raises(MeshParseError, match="groups"):
            load_mesh(p)

    def test_overflowing_span_names_file(self, tmp_path):
        p = self._write(tmp_path, "nodes 3 triangles 1 groups 0\n"
                                  "0 0\n1e300 0\n0 1e300\n0 1 2\n")
        with pytest.raises(ValidationError, match=re.escape(
                f"{p}: the nodes span 1e+300 x 1e+300")):
            load_mesh(p)

    def test_nan_coordinate_named(self, tmp_path):
        p = self._write(tmp_path, "nodes 3 triangles 1 groups 0\n0 0\nnan 0.5\n0 1\n0 1 2\n")
        with pytest.raises(ValidationError, match="node 1 has a non-finite"):
            load_mesh(p)

    @pytest.mark.parametrize("kind", ["directory", "non-utf8"])
    def test_unreadable_file_named(self, tmp_path, kind):
        p = tmp_path / "m.mesh"
        if kind == "directory":
            p.mkdir()
        else:
            p.write_bytes(b"# \xff\xfe\nnodes 3 triangles 1 groups 0\n0 0\n1 0\n0 1\n0 1 2\n")
        with pytest.raises(MeshParseError,
                           match=re.escape(f"mesh file {p} is unreadable")):
            load_mesh(p)

    def test_save_load_roundtrip(self, tmp_path):
        # %.17g round-trips every float64 exactly
        for n, side in [(3, 1.5), (7, 0.3)]:
            m = generate_structured_square(n, side, "crossed")
            p = tmp_path / "sq.mesh"
            save_mesh(m, p)
            m2 = load_mesh(p)
            assert m2.nodes.tobytes() == m.nodes.tobytes()
            assert m2.triangles.tobytes() == m.triangles.tobytes()
            assert m.edge_groups == m2.edge_groups


BUILTIN_L_SHAPE = resources.files("pemplate") / "data" / "l_shape.mesh"


def statistics_loop(mesh):
    """The former per-corner loop: (min angle, max edge), the oracle for
    ``mesh_statistics``."""
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
    return float(min_angle), max_edge


class TestStatistics:
    @pytest.mark.parametrize("mesh", [
        generate_structured_square(16, 1.0, "crossed"),
        generate_structured_square(7, 2.3, "diagonal"),
        load_mesh(BUILTIN_L_SHAPE),
    ], ids=["crossed", "diagonal", "file"])
    def test_matches_loop_exactly(self, mesh):
        s = mesh_statistics(mesh)
        assert (s.min_angle, s.max_edge) == statistics_loop(mesh)

    def test_matches_loop_on_jittered_mesh(self):
        # np.dot of 2-vectors may fuse a multiply-add where the vectorized
        # products round twice, so off-grid coordinates agree to round-off
        m = generate_structured_square(6, 1.7, "crossed")
        rng = np.random.default_rng(1)
        m = Mesh(m.nodes + rng.uniform(-0.02, 0.02, m.nodes.shape), m.triangles)
        s = mesh_statistics(m)
        angle, edge = statistics_loop(m)
        assert s.min_angle == pytest.approx(angle, rel=1e-13)
        assert s.max_edge == pytest.approx(edge, rel=1e-15)

    def test_counts_single_cell(self):
        s = mesh_statistics(generate_structured_square(1, 1.0, "diagonal"))
        assert s.n_nodes == 4 and s.n_triangles == 2

    def test_unit_right_triangle(self):
        m = Mesh(np.array([[0.0, 0], [1, 0], [0, 1]]), np.array([[0, 1, 2]]))
        s = mesh_statistics(m)
        assert s.min_angle == pytest.approx(45.0, abs=1e-9)
        assert s.total_area == pytest.approx(0.5, abs=1e-15)
        assert s.max_edge == pytest.approx(np.sqrt(2), abs=1e-12)

    def test_area_scales_with_side(self):
        s = mesh_statistics(generate_structured_square(4, 2.0, "crossed"))
        total = sum(
            shoelace(generate_structured_square(4, 2.0, "crossed").nodes[t])
            for t in generate_structured_square(4, 2.0, "crossed").triangles
        )
        assert s.total_area == pytest.approx(4.0, abs=1e-12)
        assert s.total_area == pytest.approx(total, abs=1e-12)


def first_triangle_holding(mesh, x, y):
    # one triangle at a time, with the area-coordinate formula written out
    for e, ((x1, y1), (x2, y2), (x3, y3)) in enumerate(mesh.nodes[mesh.triangles]):
        a2 = (x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1)
        l1 = ((x2 * y3 - x3 * y2) + (y2 - y3) * x + (x3 - x2) * y) / a2
        l2 = ((x3 * y1 - x1 * y3) + (y3 - y1) * x + (x1 - x3) * y) / a2
        l3 = 1.0 - l1 - l2
        if min(l1, l2, l3) >= -1e-12:
            return e, np.array([l1, l2, l3])
    return None


@pytest.mark.parametrize("mesh", [
    generate_structured_square(2, 1.0, "crossed"),
    load_mesh(resources.files("pemplate") / "data" / "l_shape.mesh"),
], ids=["square", "lshape"])
def test_locate(mesh):
    # nodes, edge midpoints and random points, some outside the domain
    rng = np.random.default_rng(4)
    p = mesh.nodes[mesh.triangles]
    lo, hi = mesh.nodes.min(axis=0), mesh.nodes.max(axis=0)
    points = [*mesh.nodes, *(0.5 * (p + np.roll(p, 1, axis=1))).reshape(-1, 2),
              *rng.uniform(lo - 0.2 * (hi - lo), hi + 0.2 * (hi - lo), (60, 2))]
    misses = 0
    for x, y in points:
        expect = first_triangle_holding(mesh, x, y)
        found = mesh.locate(x, y)
        if expect is None:
            assert found is None
            misses += 1
        else:
            assert found[0] == expect[0]
            assert np.array_equal(found[1], expect[1])
    assert 0 < misses < len(points)
