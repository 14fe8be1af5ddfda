import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import roots_jacobi, roots_legendre

from pemplate import assembly
from pemplate import element as el
from pemplate.element import (
    _monomials,
    p_coefficients,
    specht_shape_functions,
    triangle_geometry,
    triangle_quadrature,
)
from pemplate.errors import ValidationError

ROOT = Path(__file__).resolve().parents[1]


def random_ccw_triangle(rng, scale=2.0):
    while True:
        coords = rng.normal(size=(3, 2)) * scale
        u, v = coords[1] - coords[0], coords[2] - coords[0]
        area = 0.5 * (u[0] * v[1] - u[1] * v[0])
        if abs(area) > 0.2:
            if area < 0:
                coords[[1, 2]] = coords[[2, 1]]
            return coords


def barycentric(coords, x, y):
    # unconditional affine inversion; fine slightly outside the triangle
    # because the interpolant is a polynomial
    a = np.column_stack([coords[1] - coords[0], coords[2] - coords[0]])
    l23 = np.linalg.solve(a, np.array([x, y]) - coords[0])
    return np.array([1.0 - l23.sum(), l23[0], l23[1]])


def interpolate(geom, dofs, L):
    return specht_shape_functions(geom, L).value @ dofs


def side_lengths(coords):
    """Length of the side opposite each vertex."""
    return np.hypot(*(coords[[1, 2, 0]] - coords[[2, 0, 1]]).T)


def p_vector(geom, L):
    """The 9 P-polynomials of the Specht expansion at the points ``L``."""
    return _monomials(np.atleast_2d(L)) @ p_coefficients(geom.mu).T


def electric_slots(geom):
    """Linear-triangle values (npts, 3) and gradients (3, 2) as assembled."""
    quad = triangle_quadrature()
    slots = assembly._chunk_slots(geom, quad, assembly._monomial_tables(quad))
    return slots[0, :, 0, 9:], slots[0, 0, 1:3, 9:].T


def integrate_monomial_exact(a, b, c, area):
    """Integral of L1^a L2^b L3^c over a triangle: a! b! c! / (a+b+c+2)! 2A."""
    return (math.factorial(a) * math.factorial(b) * math.factorial(c)
            / math.factorial(a + b + c + 2) * 2.0 * area)


class TestGeometry:
    def test_cyclic_b_c(self):
        g = triangle_geometry(np.array([[0.0, 0], [2, 0], [0, 3]]))
        # b1 = y2 - y3, c1 = x3 - x2 and cyclic
        assert g.b[0] == 0 - 3 and g.c[0] == 0 - 2
        assert g.b[1] == 3 - 0 and g.c[1] == 0 - 0
        assert g.b[2] == 0 - 0 and g.c[2] == 2 - 0
        assert g.area == pytest.approx(3.0)

    def test_mu_right_isoceles(self):
        # legs 1, hypotenuse sqrt(2), right angle at vertex 1
        coords = np.array([[0.0, 0], [1, 0], [0, 1]])
        g = triangle_geometry(coords)
        assert side_lengths(coords)[0] == pytest.approx(np.sqrt(2))
        assert np.array_equal(g.mu, [0.0, 1.0, -1.0])

    def test_mu_equilateral_zero(self):
        g = triangle_geometry(np.array([[0.0, 0], [1, 0], [0.5, np.sqrt(3) / 2]]))
        assert np.allclose(g.mu, 0.0, atol=1e-14)

    def test_mu_cycles_with_vertices(self):
        rng = np.random.default_rng(5)
        coords = random_ccw_triangle(rng)
        g = triangle_geometry(coords)
        g_rot = triangle_geometry(coords[[1, 2, 0]])
        assert np.allclose(g_rot.mu, g.mu[[1, 2, 0]], atol=1e-13)

    def test_mu_negates_under_swap(self):
        # swapping two vertices flips orientation; verify on the lengths
        # formula directly: l2 <-> l3 negates mu1 and swaps/negates the rest
        rng = np.random.default_rng(6)
        coords = random_ccw_triangle(rng)
        g = triangle_geometry(coords)
        l1, l2, l3 = side_lengths(coords)
        swapped = np.array([
            (l2**2 - l3**2) / l1**2,
            (l1**2 - l2**2) / l3**2,
            (l3**2 - l1**2) / l2**2,
        ])
        assert np.allclose(swapped, -g.mu[[0, 2, 1]], atol=1e-13)

    def test_degenerate_rejected(self):
        with pytest.raises(ValidationError):
            triangle_geometry(np.array([[0.0, 0], [1, 0], [2, 0]]))

    def test_stack_matches_single_triangles_bitwise(self):
        # assembly builds the geometry of a whole batch at once, the impulse
        # load that of one triangle; both must give the same bits
        rng = np.random.default_rng(11)
        coords = np.stack([random_ccw_triangle(rng) for _ in range(6)])
        stack = triangle_geometry(coords)
        for e in range(len(coords)):
            one = triangle_geometry(coords[e])
            for name in ("area", "b", "c", "mu"):
                assert np.array_equal(getattr(stack, name)[e],
                                      getattr(one, name))

    def test_degenerate_triangle_in_stack_rejected(self):
        coords = np.array([[[0.0, 0], [1, 0], [0, 1]],
                           [[0.0, 0], [0, 1], [1, 0]]])
        with pytest.raises(ValidationError, match="non-positive area"):
            triangle_geometry(coords)


class TestPVector:
    def test_vertex_kills_products(self):
        rng = np.random.default_rng(0)
        g = triangle_geometry(random_ccw_triangle(rng))
        p = p_vector(g, np.array([1.0, 0.0, 0.0]))[0]
        assert np.allclose(p, [1, 0, 0, 0, 0, 0, 0, 0, 0], atol=1e-15)

    def test_equilateral_centroid(self):
        g = triangle_geometry(np.array([[0.0, 0], [1, 0], [0.5, np.sqrt(3) / 2]]))
        p = p_vector(g, np.array([1, 1, 1]) / 3)[0]
        assert np.allclose(p[3:6], 1.0 / 9.0, atol=1e-15)
        # with all mu = 0: 1/27 + (1/54)(3/3 - 1/3 + 1/3) = 1/18
        assert np.allclose(p[6:], 1.0 / 18.0, atol=1e-15)

    def test_against_printed_formula(self):
        # independent re-transcription of the bracketed quartic terms
        rng = np.random.default_rng(1)
        g = triangle_geometry(random_ccw_triangle(rng))
        L = rng.dirichlet(np.ones(3), size=7)
        p = p_vector(g, L)
        l1, l2, l3 = L[:, 0], L[:, 1], L[:, 2]
        m1, m2, m3 = g.mu
        bubble = l1 * l2 * l3
        p7 = l1**2 * l2 + 0.5 * bubble * (3 * (1 - m3) * l1
                                          - (1 + 3 * m3) * l2 + (1 + 3 * m3) * l3)
        p8 = l2**2 * l3 + 0.5 * bubble * (3 * (1 - m1) * l2
                                          - (1 + 3 * m1) * l3 + (1 + 3 * m1) * l1)
        p9 = l3**2 * l1 + 0.5 * bubble * (3 * (1 - m2) * l3
                                          - (1 + 3 * m2) * l1 + (1 + 3 * m2) * l2)
        assert np.allclose(p[:, 6], p7, atol=1e-14)
        assert np.allclose(p[:, 7], p8, atol=1e-14)
        assert np.allclose(p[:, 8], p9, atol=1e-14)


class TestShapeFunctions:
    def test_kronecker_delta(self):
        rng = np.random.default_rng(2)
        for _ in range(3):
            g = triangle_geometry(random_ccw_triangle(rng))
            ev = specht_shape_functions(g, np.eye(3))
            for m in range(3):
                for i in range(3):
                    assert ev.value[m, 3 * i] == pytest.approx(
                        1.0 if i == m else 0.0, abs=1e-10)
                    assert abs(ev.value[m, 3 * i + 1]) < 1e-10
                    assert abs(ev.value[m, 3 * i + 2]) < 1e-10

    def test_slope_consistency_finite_difference(self):
        rng = np.random.default_rng(3)
        for _ in range(3):
            coords = random_ccw_triangle(rng)
            g = triangle_geometry(coords)
            dofs = rng.normal(size=9)
            h = 1e-6 * side_lengths(coords).max()
            scale = max(1.0, np.abs(dofs).max())
            for m in range(3):
                x0, y0 = coords[m]

                def w_at(x, y):
                    return interpolate(g, dofs, barycentric(coords, x, y)[None])[0]

                wx = (w_at(x0 + h, y0) - w_at(x0 - h, y0)) / (2 * h)
                wy = (w_at(x0, y0 + h) - w_at(x0, y0 - h)) / (2 * h)
                assert wx == pytest.approx(dofs[3 * m + 1], abs=1e-6 * scale)
                assert wy == pytest.approx(dofs[3 * m + 2], abs=1e-6 * scale)

    def test_constant_field_reproduced(self):
        rng = np.random.default_rng(4)
        g = triangle_geometry(random_ccw_triangle(rng))
        dofs = np.zeros(9)
        dofs[[0, 3, 6]] = 1.0  # w = 1, zero slopes
        L = rng.dirichlet(np.ones(3), size=20)
        w = interpolate(g, dofs, L)
        assert np.allclose(w, 1.0, atol=1e-12)

    def test_linear_field_zero_curvature(self):
        rng = np.random.default_rng(7)
        coords = random_ccw_triangle(rng)
        g = triangle_geometry(coords)
        dofs = np.zeros(9)
        for i in range(3):
            dofs[3 * i] = coords[i, 0]  # w = x
            dofs[3 * i + 1] = 1.0
        ev = specht_shape_functions(g, triangle_quadrature().points)
        for arr in (ev.dxx, ev.dyy, ev.dxy):
            assert np.abs(arr @ dofs).max() < 1e-10

    def test_quadratic_state_constant_curvature(self):
        # the patch-test identity the quartic corrections are designed for
        rng = np.random.default_rng(8)
        states = [
            (lambda x, y: 0.5 * x * x, lambda x, y: (x, 0.0), (1.0, 0.0, 0.0)),
            (lambda x, y: 0.5 * y * y, lambda x, y: (0.0, y), (0.0, 1.0, 0.0)),
            (lambda x, y: x * y, lambda x, y: (y, x), (0.0, 0.0, 1.0)),
        ]
        for _ in range(5):
            coords = random_ccw_triangle(rng)
            g = triangle_geometry(coords)
            pts = rng.dirichlet(np.ones(3), size=15)
            ev = specht_shape_functions(g, pts)
            for f, df, curv in states:
                dofs = np.zeros(9)
                for i in range(3):
                    dofs[3 * i] = f(*coords[i])
                    dofs[3 * i + 1], dofs[3 * i + 2] = df(*coords[i])
                assert np.abs(ev.dxx @ dofs - curv[0]).max() < 1e-9
                assert np.abs(ev.dyy @ dofs - curv[1]).max() < 1e-9
                assert np.abs(ev.dxy @ dofs - curv[2]).max() < 1e-9

    def test_second_derivatives_match_finite_differences(self):
        rng = np.random.default_rng(9)
        coords = random_ccw_triangle(rng)
        g = triangle_geometry(coords)
        h = 1e-5
        dofs = rng.normal(size=9)
        for _ in range(10):
            p = coords.T @ rng.dirichlet(np.ones(3))
            x, y = p

            def w_at(xx, yy):
                return interpolate(g, dofs, barycentric(coords, xx, yy)[None])[0]

            fxx = (w_at(x + h, y) - 2 * w_at(x, y) + w_at(x - h, y)) / h**2
            fyy = (w_at(x, y + h) - 2 * w_at(x, y) + w_at(x, y - h)) / h**2
            fxy = (w_at(x + h, y + h) - w_at(x + h, y - h)
                   - w_at(x - h, y + h) + w_at(x - h, y - h)) / (4 * h**2)
            L = barycentric(coords, x, y)
            ev = specht_shape_functions(g, L[None])
            assert ev.dxx[0] @ dofs == pytest.approx(fxx, abs=1e-5 * max(1, abs(fxx)))
            assert ev.dyy[0] @ dofs == pytest.approx(fyy, abs=1e-5 * max(1, abs(fyy)))
            assert ev.dxy[0] @ dofs == pytest.approx(fxy, abs=1e-5 * max(1, abs(fxy)))


class TestLinearShapes:
    def test_vertex_values(self):
        g = triangle_geometry(np.array([[[0.0, 0], [1, 0], [0, 1]]]))
        vals, _ = electric_slots(g)
        # the value slots are the area coordinates of the points
        assert np.array_equal(vals, triangle_quadrature().points)

    def test_gradients_sum_to_zero(self):
        rng = np.random.default_rng(10)
        g = triangle_geometry(random_ccw_triangle(rng)[None])
        _, grads = electric_slots(g)
        assert np.allclose(grads.sum(axis=0), 0.0, atol=1e-14)

    def test_unit_right_triangle_gradient(self):
        g = triangle_geometry(np.array([[[0.0, 0], [1, 0], [0, 1]]]))
        _, grads = electric_slots(g)
        assert np.allclose(grads[1], [1.0, 0.0], atol=1e-14)


class TestQuadrature:
    def test_tabulated_nodes_are_scipys(self):
        # scipy.special stays the oracle of the tabulated Gauss rules
        xu, wu = roots_jacobi(5, 1.0, 0.0)
        xv, wv = roots_legendre(5)
        for literals, want in ((el._JACOBI_NODES, xu), (el._JACOBI_WEIGHTS, wu),
                               (el._LEGENDRE_NODES, xv),
                               (el._LEGENDRE_WEIGHTS, wv)):
            got = el._tabulated(literals)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_rule_is_scipys_bitwise(self):
        # the rule as it was built from scipy's nodes and weights
        xu, wu = roots_jacobi(5, 1.0, 0.0)
        xv, wv = roots_legendre(5)
        uu, vv = np.meshgrid(0.5 * (xu + 1.0), 0.5 * (xv + 1.0), indexing="ij")
        x, y = uu.ravel(), (vv * (1.0 - uu)).ravel()
        base = np.column_stack([1.0 - x - y, x, y])
        w = 2.0 * np.outer(0.25 * wu, 0.5 * wv).ravel()
        pts = np.vstack([base, np.roll(base, 1, axis=1),
                         np.roll(base, 2, axis=1)])
        wts = np.concatenate([w, w, w]) / 3.0
        q = triangle_quadrature()
        assert q.points.shape == (75, 3)
        assert np.array_equal(q.points.view(np.int64), pts.view(np.int64))
        assert np.array_equal(q.weights.view(np.int64), wts.view(np.int64))

    def test_linear_monomial(self):
        # integral of L1 over any triangle is A/3
        q = triangle_quadrature()
        val = (q.weights * q.points[:, 0]).sum()
        assert val == pytest.approx(1 / 3, abs=1e-15)
        assert val == pytest.approx(integrate_monomial_exact(1, 0, 0, 1.0), abs=1e-15)

    def test_degree8_quartic_product(self):
        q = triangle_quadrature()
        val = (q.weights * q.points[:, 0] ** 4 * q.points[:, 1] ** 4).sum()
        exact = integrate_monomial_exact(4, 4, 0, 1.0)
        assert abs(val - exact) / exact < 1e-14

    @pytest.mark.parametrize("degree", range(1, 10))
    def test_factorial_identity_all_monomials(self, degree):
        # 5 Gauss points per axis: exact through degree 9; the element
        # integrands reach degree 8
        q = triangle_quadrature()
        assert q.weights.sum() == pytest.approx(1.0, abs=1e-14)
        for a in range(degree + 1):
            for b in range(degree + 1 - a):
                c = degree - a - b
                val = (q.weights * q.points[:, 0] ** a * q.points[:, 1] ** b
                       * q.points[:, 2] ** c).sum()
                exact = integrate_monomial_exact(a, b, c, 1.0)
                assert abs(val - exact) / exact < 1e-13

    def test_cyclic_symmetry(self):
        q = triangle_quadrature()
        rolled = np.roll(q.points, 1, axis=1)
        # the point set is invariant under cyclic rotation of the corners
        a = {tuple(np.round(p, 12)) for p in q.points}
        b = {tuple(np.round(p, 12)) for p in rolled}
        assert a == b


def test_a_run_never_loads_scipy_special(tmp_path):
    # the rule is tabulated: a whole pipeline, in a fresh interpreter, runs
    # without importing scipy.special
    code = (
        "import sys\n"
        "import pemplate.cli as cli\n"
        "rc = cli.main(['pipeline', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
        "assert rc == 0, rc\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.special')))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    res = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "benchmarks/tests/tiny.cfg"),
         str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "[]"
