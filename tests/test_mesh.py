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


class TestStructuredSquare:
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
        counts = m.edge_incidence()
        assert set(counts.values()) <= {1, 2}
        m.check_conforming()
        # boundary edges form the square perimeter
        n_boundary = sum(1 for c in counts.values() if c == 1)
        assert n_boundary == 4 * 3


class TestMeshValidation:
    def test_clockwise_rejected_on_construction(self):
        with pytest.raises(ValidationError):
            Mesh(np.array([[0.0, 0], [1, 0], [0, 1]]), np.array([[0, 2, 1]]))

    def test_repeated_node_rejected(self):
        with pytest.raises(ValidationError):
            Mesh(np.array([[0.0, 0], [1, 0], [0, 1]]), np.array([[0, 1, 1]]))

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

    def test_unreferenced_node_rejected(self):
        nodes = np.array([[0.0, 0], [1, 0], [0, 1], [5, 5]])
        with pytest.raises(ValidationError, match="node 3"):
            Mesh(nodes, np.array([[0, 1, 2]]))

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

    def test_dangling_index_names_element(self, tmp_path):
        p = self._write(tmp_path, "nodes 3 triangles 1 groups 0\n0 0\n1 0\n0 1\n0 1 99\n")
        with pytest.raises(DanglingNodeError, match="triangle 0 references node 99 of 3"):
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

    def test_save_load_roundtrip(self, tmp_path):
        m = generate_structured_square(3, 1.5, "crossed")
        p = tmp_path / "sq.mesh"
        save_mesh(m, p)
        m2 = load_mesh(p)
        assert np.allclose(m.nodes, m2.nodes)
        assert np.array_equal(m.triangles, m2.triangles)
        assert m.edge_groups == m2.edge_groups


class TestStatistics:
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


def test_contains_point():
    m = generate_structured_square(2, 1.0, "crossed")
    assert m.contains_point(0.3, 0.4) is not None
    assert m.contains_point(1.4, 0.4) is None
