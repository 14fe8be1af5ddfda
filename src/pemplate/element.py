"""Triangle shape functions for the coupled fourth/second-order problem.

The bending field uses the 9-DOF non-conforming triangle of Specht: corner
values plus corner slopes, with quartic bubble corrections tuned so that
constant-curvature states are reproduced exactly (the element passes the
patch test identically). The electric field uses the plain linear triangle
on the same three corner nodes.

Everything is expressed in area coordinates (L1, L2, L3). The map from area
to Cartesian coordinates is affine on a straight-edged triangle, so Cartesian
derivatives follow from the constant gradients dLi/dx = b_i/(2A) and
dLi/dy = c_i/(2A).

Nodal DOF convention for the bending field: (w, dw/dx, dw/dy) per corner.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class TriangleGeometry:
    """Geometric constants of one triangle, or of a stack of them.

    ``b[..., i] = y_j - y_k`` and ``c[..., i] = x_k - x_j`` with (i, j, k)
    cyclic, ``area`` is the area and

        mu_1 = (l3^2 - l2^2) / l1^2   (cyclically for mu_2, mu_3),

    with ``l_i`` the side opposite vertex i.
    """

    area: np.ndarray
    b: np.ndarray
    c: np.ndarray
    mu: np.ndarray


def triangle_geometry(coords):
    """Build :class:`TriangleGeometry` from a (..., 3, 2) vertex array.

    The vertices must be counterclockwise (positive area). The squared side
    lengths are summed from their coordinate differences, never through
    ``hypot``, so mu is the same to the last bit for every caller.
    """
    coords = np.asarray(coords, dtype=float)
    x, y = coords[..., 0], coords[..., 1]
    jj, kk = [1, 2, 0], [2, 0, 1]
    b = y[..., jj] - y[..., kk]
    c = x[..., kk] - x[..., jj]
    area = 0.5 * (b[..., 0] * c[..., 1] - b[..., 1] * c[..., 0])
    if np.any(area <= 0):
        raise ValidationError(
            f"triangle has non-positive area {np.min(area):g}")
    l2 = (x[..., jj] - x[..., kk]) ** 2 + (y[..., jj] - y[..., kk]) ** 2
    mu = (l2[..., kk] - l2[..., jj]) / l2
    return TriangleGeometry(area=area, b=b, c=c, mu=mu)


# Monomial basis spanning the Specht polynomial space: exponents of
# L1^a L2^b L3^c for the linear, quadratic-product, cubic and quartic terms.
_EXP = np.array([
    (1, 0, 0), (0, 1, 0), (0, 0, 1),
    (1, 1, 0), (0, 1, 1), (1, 0, 1),
    (2, 1, 0), (0, 2, 1), (1, 0, 2),
    (2, 1, 1), (1, 2, 1), (1, 1, 2),
], dtype=np.int64)


def p_coefficients(mu):
    """Coefficients of the 9 P-polynomials in the monomial basis (9 x 12).

    Components 1-3 are L1, L2, L3; 4-6 are L1L2, L2L3, L3L1; 7-9 are the
    quartic-corrected cubics

        P7 = L1^2 L2 + (1/2) L1L2L3 {3(1-mu3)L1 - (1+3mu3)L2 + (1+3mu3)L3}

    and its cyclic permutations (with mu1 for P8, mu2 for P9). ``mu`` of
    shape (..., 3) gives coefficients of shape (..., 9, 12).
    """
    mu = np.asarray(mu, dtype=float)
    m1, m2, m3 = mu[..., 0], mu[..., 1], mu[..., 2]
    coef = np.zeros(mu.shape[:-1] + (9, 12))
    diag = np.arange(9)
    coef[..., diag, diag] = 1.0
    # columns 6..8: L1^2 L2, L2^2 L3, L3^2 L1; columns 9..11: L1L2L3 * (L1, L2, L3)
    coef[..., 6, 9] = 1.5 * (1.0 - m3)
    coef[..., 6, 10] = -0.5 * (1.0 + 3.0 * m3)
    coef[..., 6, 11] = 0.5 * (1.0 + 3.0 * m3)
    coef[..., 7, 10] = 1.5 * (1.0 - m1)
    coef[..., 7, 11] = -0.5 * (1.0 + 3.0 * m1)
    coef[..., 7, 9] = 0.5 * (1.0 + 3.0 * m1)
    coef[..., 8, 11] = 1.5 * (1.0 - m2)
    coef[..., 8, 9] = -0.5 * (1.0 + 3.0 * m2)
    coef[..., 8, 10] = 0.5 * (1.0 + 3.0 * m2)
    return coef


def _monomials(L):
    """Monomial values at the points ``L`` (shape (npts, 3)) -> (npts, 12)."""
    return (L[:, 0:1] ** _EXP[:, 0]) * (L[:, 1:2] ** _EXP[:, 1]) * (L[:, 2:3] ** _EXP[:, 2])


def _monomial_first(L):
    """d(monomials)/dL_l -> array (3, npts, 12)."""
    out = np.empty((3, len(L), 12))
    for l in range(3):
        e = _EXP.copy()
        fac = e[:, l].astype(float)
        e[:, l] = np.maximum(e[:, l] - 1, 0)
        out[l] = fac * (L[:, 0:1] ** e[:, 0]) * (L[:, 1:2] ** e[:, 1]) * (L[:, 2:3] ** e[:, 2])
    return out


def _monomial_second(L):
    """d2(monomials)/dL_l dL_m -> array (3, 3, npts, 12)."""
    out = np.empty((3, 3, len(L), 12))
    for l in range(3):
        for m in range(3):
            e = _EXP.copy()
            if l == m:
                fac = (e[:, l] * (e[:, l] - 1)).astype(float)
                e[:, l] = np.maximum(e[:, l] - 2, 0)
            else:
                fac = (e[:, l] * e[:, m]).astype(float)
                e[:, l] = np.maximum(e[:, l] - 1, 0)
                e[:, m] = np.maximum(e[:, m] - 1, 0)
            out[l, m] = fac * (L[:, 0:1] ** e[:, 0]) * (L[:, 1:2] ** e[:, 1]) * (L[:, 2:3] ** e[:, 2])
    return out


def shape_combination(geom):
    """Matrix mapping P components to nodal shape functions (9 x 9).

    Row order is (w, dw/dx, dw/dy) for each corner node. The raw printed
    combination produces rotation-type slope rows with unit y-slope resp.
    negative unit x-slope at the owning vertex; the rows are remapped here so
    that the DOFs are the Cartesian slopes directly. A geometry with a
    leading element axis gives a (nel, 9, 9) stack.
    """
    b, c = np.asarray(geom.b), np.asarray(geom.c)
    S = np.zeros(b.shape[:-1] + (9, 9))
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        w, dx, dy = 3 * i, 3 * i + 1, 3 * i + 2
        S[..., w, i] = 1.0
        S[..., w, i + 3] = -1.0
        S[..., w, k + 3] = 1.0
        S[..., w, i + 6] = 2.0
        S[..., w, k + 6] = -2.0
        # dw/dx row: the negated rotation row with unit -dw/dx at vertex i
        S[..., dx, k + 6] = c[..., j]
        S[..., dx, k + 3] = -c[..., j]
        S[..., dx, i + 6] = c[..., k]
        # dw/dy row: the rotation row with unit dw/dy at vertex i
        S[..., dy, k + 6] = -b[..., j]
        S[..., dy, k + 3] = b[..., j]
        S[..., dy, i + 6] = -b[..., k]
    return S


@dataclass(frozen=True)
class ShapeEval:
    """Bending shape functions and Cartesian derivatives at a point batch.

    Every array has shape (npts, 9); columns follow the nodal DOF order
    (w, dw/dx, dw/dy) x 3 corner nodes.
    """

    value: np.ndarray
    dx: np.ndarray
    dy: np.ndarray
    dxx: np.ndarray
    dyy: np.ndarray
    dxy: np.ndarray


def specht_shape_functions(geom, L):
    """The nine bending shape functions with all derivatives at the points
    ``L``, an (npts, 3) array of area coordinates."""
    coef = p_coefficients(geom.mu)
    comb = shape_combination(geom) @ coef  # (9 dof, 12 monomials)

    val = _monomials(L) @ comb.T
    dL = _monomial_first(L)  # (3, npts, 12)
    d2L = _monomial_second(L)  # (3, 3, npts, 12)

    gx = geom.b / (2.0 * geom.area)
    gy = geom.c / (2.0 * geom.area)
    dx = np.einsum("l,lpm,dm->pd", gx, dL, comb)
    dy = np.einsum("l,lpm,dm->pd", gy, dL, comb)
    dxx = np.einsum("l,m,lmpq,dq->pd", gx, gx, d2L, comb)
    dyy = np.einsum("l,m,lmpq,dq->pd", gy, gy, d2L, comb)
    dxy = np.einsum("l,m,lmpq,dq->pd", gx, gy, d2L, comb)
    return ShapeEval(val, dx, dy, dxx, dyy, dxy)


# The 5-point Gauss-Jacobi (alpha = 1, beta = 0) and Gauss-Legendre rules on
# [-1, 1], nodes and weights to the last bit as SciPy computes them (the
# tests compare the bits), so that no run has to import SciPy's special
# functions.
_JACOBI_NODES = (
    "-0x1.d73c15b79f3d3p-1", "-0x1.353bf8784132fp-1", "-0x1.fc1c403080601p-4",
    "0x1.904f92acb8e03p-2", "0x1.9b199e53f1236p-1")
_JACOBI_WEIGHTS = (
    "0x1.8c6ada4e0dafap-2", "0x1.565fa81ab0087p-1", "0x1.2bccf0d0b5846p-1",
    "0x1.2ebb113d8a0aep-2", "0x1.02038a7674af7p-4")
_LEGENDRE_NODES = (
    "-0x1.cff6ce0533a69p-1", "-0x1.13b23fd99b705p-1", "0x0.0p+0",
    "0x1.13b23fd99b705p-1", "0x1.cff6ce0533a69p-1")
_LEGENDRE_WEIGHTS = (
    "0x1.e539ec36e0388p-3", "0x1.ea1da25ae415cp-2", "0x1.23456789abce0p-1",
    "0x1.ea1da25ae415cp-2", "0x1.e539ec36e0388p-3")


def _tabulated(literals):
    return np.array([float.fromhex(v) for v in literals])


@dataclass(frozen=True)
class TriangleQuadrature:
    """Barycentric quadrature rule, weights normalized to sum to one.

    The physical integral over a triangle of area A is
    ``A * sum(weights * f(points))``.
    """

    points: np.ndarray
    weights: np.ndarray


@lru_cache(maxsize=None)
def triangle_quadrature():
    """The 75-point cyclically symmetric rule, exact through degree 9.

    The element integrands have degree at most 8. Duffy map x = u,
    y = v(1 - u) with the Jacobi weight (1 - u) in u and 5 Gauss points per
    axis; cyclic symmetrization keeps the rule invariant under vertex
    rotation.
    """
    u = 0.5 * (_tabulated(_JACOBI_NODES) + 1.0)
    lu = 0.25 * _tabulated(_JACOBI_WEIGHTS)
    v = 0.5 * (_tabulated(_LEGENDRE_NODES) + 1.0)
    lv = 0.5 * _tabulated(_LEGENDRE_WEIGHTS)

    uu, vv = np.meshgrid(u, v, indexing="ij")
    x = uu.ravel()
    y = (vv * (1.0 - uu)).ravel()
    base = np.column_stack([1.0 - x - y, x, y])
    w = 2.0 * np.outer(lu, lv).ravel()

    pts = np.vstack([base, np.roll(base, 1, axis=1), np.roll(base, 2, axis=1)])
    wts = np.concatenate([w, w, w]) / 3.0
    pts.setflags(write=False)
    wts.setflags(write=False)
    return TriangleQuadrature(points=pts, weights=wts)
