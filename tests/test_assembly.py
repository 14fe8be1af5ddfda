import dataclasses
import math
import tracemalloc
from contextlib import nullcontext
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from pemplate import assembly, blas, cli
from pemplate import element as el
from pemplate.assembly import (
    BoundaryCondition,
    assemble,
    build_dof_map,
    local_matrices,
    patch_test,
    patch_test_mesh,
    scatter_plan,
)
from pemplate.element import (
    specht_shape_functions,
    triangle_geometry,
    triangle_quadrature,
)
from pemplate.config import load_config
from pemplate.errors import NumericalError, ValidationError
from pemplate.material import NetworkParams, PlateParams, build_material
from pemplate.mesh import Mesh, generate_structured_square
from pemplate.modal import solve_family_modes

import oracle


def material(coupling=(0.1, 0.1, 0.0), l_n=1.0, r_n=0.0, c_n=1.0, g_n=0.0):
    plate = PlateParams.isotropic(1e-3, 500.0, 1.0, 0.3, coupling=coupling)
    return build_material(plate, NetworkParams(
        inductance=l_n, resistance=r_n, capacitance=c_n, conductance=g_n))


def bcs_ss():
    return [BoundaryCondition("boundary", "simply_supported"),
            BoundaryCondition("boundary", "grounded")]


def random_ccw(rng, scale=1.5):
    while True:
        coords = rng.normal(size=(3, 2)) * scale
        u, v = coords[1] - coords[0], coords[2] - coords[0]
        if 0.5 * (u[0] * v[1] - u[1] * v[0]) > 0.2:
            return coords


def single_local(geom, mat):
    """``local_matrices`` of a single triangle's geometry."""
    stack = dataclasses.replace(geom, **{
        name: np.asarray(getattr(geom, name))[None]
        for name in ("area", "b", "c", "mu")})
    loc = local_matrices(stack, mat)
    return assembly.LocalMatrices(k2=loc.k2[0], k1=loc.k1[0], k0=loc.k0[0])


# ---------------------------------------------------------------------------
# Independent exact-monomial oracle: polynomials over area coordinates stored
# as {(a, b, c): coefficient}, differentiated via the constant gradients of
# the area coordinates and integrated with the factorial identity.

def poly_mul(p, q):
    out = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            key = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            out[key] = out.get(key, 0.0) + ca * cb
    return out


def poly_scale(p, s):
    return {e: s * c for e, c in p.items()}


def poly_add(p, q):
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0.0) + c
    return out


def poly_dL(p, axis):
    out = {}
    for e, c in p.items():
        if e[axis] > 0:
            f = list(e)
            f[axis] -= 1
            out[tuple(f)] = out.get(tuple(f), 0.0) + c * e[axis]
    return out


def poly_cart(p, geom, direction):
    g = (geom.b if direction == "x" else geom.c) / (2.0 * geom.area)
    out = {}
    for axis in range(3):
        out = poly_add(out, poly_scale(poly_dL(p, axis), g[axis]))
    return out


def poly_integral(p, area):
    total = 0.0
    for (a, b, c), coef in p.items():
        total += coef * (math.factorial(a) * math.factorial(b) * math.factorial(c)
                         / math.factorial(a + b + c + 2)) * 2.0 * area
    return total


def specht_polynomials(geom):
    """The nine bending shapes as area-coordinate polynomials, written from
    the printed expansion independently of the element module internals."""
    m1, m2, m3 = geom.mu
    e = lambda *exps: {exps: 1.0}
    P = [e(1, 0, 0), e(0, 1, 0), e(0, 0, 1),
         e(1, 1, 0), e(0, 1, 1), e(1, 0, 1)]
    bubble = (1, 1, 1)

    def quartic(lead, mu, perm):
        # lead + (1/2) L1L2L3 (3(1-mu) L_i - (1+3mu) L_j + (1+3mu) L_k)
        out = dict(lead)
        coeffs = (1.5 * (1 - mu), -0.5 * (1 + 3 * mu), 0.5 * (1 + 3 * mu))
        for which, cf in zip(perm, coeffs):
            key = tuple(bubble[k] + (1 if k == which else 0) for k in range(3))
            out[key] = out.get(key, 0.0) + cf
        return out

    P.append(quartic(e(2, 1, 0), m3, (0, 1, 2)))
    P.append(quartic(e(0, 2, 1), m1, (1, 2, 0)))
    P.append(quartic(e(1, 0, 2), m2, (2, 0, 1)))

    shapes = []
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        w = poly_add(
            poly_add(P[i], poly_scale(P[i + 3], -1.0)),
            poly_add(P[k + 3], poly_add(poly_scale(P[i + 6], 2.0),
                                        poly_scale(P[k + 6], -2.0))),
        )
        rb = poly_add(
            poly_scale(poly_add(P[k + 6], poly_scale(P[k + 3], -1.0)), -geom.b[j]),
            poly_scale(P[i + 6], -geom.b[k]),
        )
        rc = poly_add(
            poly_scale(poly_add(P[k + 6], poly_scale(P[k + 3], -1.0)), -geom.c[j]),
            poly_scale(P[i + 6], -geom.c[k]),
        )
        shapes += [w, poly_scale(rc, -1.0), rb]  # (w, dw/dx, dw/dy)
    return shapes


def oracle_bending_k0(geom, e_bend):
    shapes = specht_polynomials(geom)
    curv = []
    for s in shapes:
        sxx = poly_cart(poly_cart(s, geom, "x"), geom, "x")
        syy = poly_cart(poly_cart(s, geom, "y"), geom, "y")
        sxy = poly_cart(poly_cart(s, geom, "x"), geom, "y")
        curv.append([poly_scale(sxx, -1.0), poly_scale(syy, -1.0),
                     poly_scale(sxy, -2.0)])
    k = np.zeros((9, 9))
    for i in range(9):
        for j in range(i, 9):
            total = 0.0
            for a in range(3):
                for b in range(3):
                    if e_bend[a, b] != 0.0:
                        total += e_bend[a, b] * poly_integral(
                            poly_mul(curv[i][a], curv[j][b]), geom.area)
            k[i, j] = k[j, i] = total
    return k


def oracle_bending_k2(geom, mass, rotary):
    shapes = specht_polynomials(geom)
    k = np.zeros((9, 9))
    for i in range(9):
        for j in range(i, 9):
            total = mass * poly_integral(poly_mul(shapes[i], shapes[j]), geom.area)
            for d in ("x", "y"):
                total += rotary * poly_integral(
                    poly_mul(poly_cart(shapes[i], geom, d),
                             poly_cart(shapes[j], geom, d)), geom.area)
            k[i, j] = k[j, i] = total
    return k


def quadrature_oracle(geom, mat):
    """K2, K1, K0 of one element from the weak forms, point by point.

    Evaluates N, its derivatives and N_eps at the points of the degree-8
    rule (exact for every integrand) from ``specht_shape_functions`` and
    sums the three forms directly, without the assembly's slot arrays and
    structured matmuls.
    """
    q = triangle_quadrature()
    ev = specht_shape_functions(geom, q.points)
    lin = q.points  # linear-triangle values are the area coordinates
    grad = np.column_stack([geom.b, geom.c]) / (2.0 * geom.area)
    bend, alpha = [0, 1, 2, 4, 5, 6, 8, 9, 10], [3, 7, 11]

    def field(bending, electric=0.0):
        out = np.zeros((len(q.weights), 2, 12))
        out[:, 0, bend] = bending
        out[:, 1, alpha] = electric
        return out

    slots = [field(ev.value, lin), field(ev.dx, grad[:, 0]),
             field(ev.dy, grad[:, 1]), field(ev.dxx), field(ev.dyy),
             field(ev.dxy)]
    n, nx, ny = slots[:3]
    neps = sum(np.einsum("sf,pfi->psi", mat.H[h], slots[h]) for h in range(6))
    l_n = mat.network.inductance
    w_u = np.diag([1.0, l_n])
    w_eps = np.diag([1.0, 1.0, 1.0, l_n, l_n])

    def form(test, core, trial):
        return geom.area * np.einsum("p,pfi,fg,pgj->ij", q.weights, test, core,
                                     trial)

    k2 = -(form(n, w_u @ mat.G, n) + form(nx, w_u @ mat.G_B, nx)
           + form(ny, w_u @ mat.G_B, ny))
    k1 = -(form(n, w_u @ mat.S, n) + form(n, w_u @ mat.V, neps)
           - form(neps, w_eps @ mat.C, n))
    k0 = -(form(n, w_u @ mat.T, n) - form(neps, w_eps @ mat.E, neps)
           - form(neps, w_eps @ mat.R, n))
    return k2, k1, k0


def dense_random_material(rng):
    """A material whose every weak-form matrix is dense and random."""
    mat = material(l_n=0.37, r_n=0.3, g_n=0.2)
    names = ("G", "S", "T", "V", "E", "C", "R", "G_B")
    return dataclasses.replace(
        mat, **{k: rng.normal(size=getattr(mat, k).shape) for k in names})


def assert_matches_oracle(loc, geom, mat, rel=1e-13):
    for got, want in zip((loc.k2, loc.k1, loc.k0), quadrature_oracle(geom, mat)):
        assert np.abs(got - want).max() <= rel * np.abs(want).max()


def padded_field_local_matrices(coords, mat):
    """K2, K1, K0 (nel, 12, 12) by the padded two-field formulation.

    Builds N, N_x, N_y, N_xx, N_yy, N_xy as (nel, npts, 2, 12) arrays with
    zeros off each DOF's field, N_eps through the full selector stack, and
    each form as core-then-points products over the merged (point, field)
    axis, every sum in index order. The assembly leaves out the structural
    zeros and uses other array layouts; with a BLAS that sums each product
    in index order (as OpenBLAS does) the results agree to the last bit,
    which keeps outputs reproducible against stored references.
    """
    quad = triangle_quadrature()
    nel, pts = len(coords), quad.points
    npts = len(pts)
    x, y = coords[:, :, 0], coords[:, :, 1]
    jj, kk = [1, 2, 0], [2, 0, 1]
    b = y[:, jj] - y[:, kk]
    c = x[:, kk] - x[:, jj]
    area = 0.5 * (b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0])
    l2 = (x[:, jj] - x[:, kk]) ** 2 + (y[:, jj] - y[:, kk]) ** 2
    mu = (l2[:, kk] - l2[:, jj]) / l2
    comb = np.stack([
        el.shape_combination(geom) @ el.p_coefficients(mu[e])
        for e, geom in enumerate(map(triangle_geometry, coords))])
    combt = np.ascontiguousarray(comb.transpose(0, 2, 1))
    gx = b / (2.0 * area[:, None])
    gy = c / (2.0 * area[:, None])
    val = np.matmul(el._monomials(pts)[None], combt)
    d1 = np.stack([np.matmul(m[None], combt)
                   for m in el._monomial_first(pts)])
    dx = np.einsum("el,lepi->epi", gx, d1)
    dy = np.einsum("el,lepi->epi", gy, d1)
    m2 = el._monomial_second(pts)
    dxx, dyy, dxy = (np.zeros_like(val) for _ in range(3))
    for l in range(3):
        for m in range(l, 3):
            d2 = np.matmul(m2[l, m][None], combt)
            sym = 1.0 if l == m else 2.0
            dxx += (sym * gx[:, l] * gx[:, m])[:, None, None] * d2
            dyy += (sym * gy[:, l] * gy[:, m])[:, None, None] * d2
            cross = (gx[:, l] * gy[:, m] if l == m
                     else gx[:, l] * gy[:, m] + gx[:, m] * gy[:, l])
            dxy += cross[:, None, None] * d2
    bend, alpha = [0, 1, 2, 4, 5, 6, 8, 9, 10], [3, 7, 11]

    def place(bending, electric=None):
        out = np.zeros((nel, npts, 2, 12))
        out[:, :, 0, bend] = bending
        if electric is not None:
            out[:, :, 1, alpha] = electric
        return out

    n = place(val, np.broadcast_to(pts, (nel, npts, 3)))
    n1 = place(dx, np.broadcast_to(gx[:, None, :], (nel, npts, 3)))
    n2 = place(dy, np.broadcast_to(gy[:, None, :], (nel, npts, 3)))
    slots = np.stack([n, n1, n2, place(dxx), place(dyy), place(dxy)])
    neps = np.einsum("hsf,hepfd->epsd", mat.H, slots, optimize=True)
    l_n = mat.network.inductance
    w_u = np.diag([1.0, l_n])
    w_eps = np.diag([1.0, 1.0, 1.0, l_n, l_n])

    def form(test, core, trial):
        tb = np.tensordot(core, trial, axes=([1], [2]))
        tb = np.moveaxis(tb, 0, 2) * quad.weights[None, :, None, None]
        f = tb.shape[2]
        lhs = test.reshape(nel, npts * f, 12).transpose(0, 2, 1)
        return np.matmul(lhs, tb.reshape(nel, npts * f, 12)) * area[:, None, None]

    k2 = -(form(n, w_u @ mat.G, n) + form(n1, w_u @ mat.G_B, n1)
           + form(n2, w_u @ mat.G_B, n2))
    k1 = -(form(n, w_u @ mat.S, n) + form(n, w_u @ mat.V, neps)
           - form(neps, w_eps @ mat.C, n))
    k0 = -(form(n, w_u @ mat.T, n) - form(neps, w_eps @ mat.E, neps)
           - form(neps, w_eps @ mat.R, n))
    return k2, k1, k0


class TestLocalMatrices:
    def test_electric_stiffness_is_laplacian(self):
        g = triangle_geometry(np.array([[0.0, 0], [1, 0], [0, 1]]))
        loc = single_local(g, material(coupling=(0, 0, 0)))
        ai = [3, 7, 11]
        lap = 0.5 * np.array([[2.0, -1, -1], [-1, 1, 0], [-1, 0, 1]])
        assert np.abs(loc.k0[np.ix_(ai, ai)] - lap).max() < 1e-13

    def test_electric_stiffness_scales_with_inductance(self):
        # electric test rows carry the L_N weight
        g = triangle_geometry(np.array([[0.0, 0], [1, 0], [0, 1]]))
        loc = single_local(g, material(coupling=(0, 0, 0), l_n=2.0))
        ai = [3, 7, 11]
        lap = 0.5 * np.array([[2.0, -1, -1], [-1, 1, 0], [-1, 0, 1]])
        assert np.abs(loc.k0[np.ix_(ai, ai)] - 2.0 * lap).max() < 1e-13

    def test_electric_mass_is_consistent_mass(self):
        g = triangle_geometry(np.array([[0.0, 0], [1, 0], [0, 1]]))
        loc = single_local(g, material(coupling=(0, 0, 0), l_n=1.0, c_n=1.0))
        ai = [3, 7, 11]
        ref = (0.5 / 12.0) * np.array([[2.0, 1, 1], [1, 2, 1], [1, 1, 2]])
        assert np.abs(loc.k2[np.ix_(ai, ai)] - ref).max() < 1e-13

    def test_decoupled_k0_block_diagonal(self):
        rng = np.random.default_rng(0)
        g = triangle_geometry(random_ccw(rng))
        loc = single_local(g, material(coupling=(0, 0, 0)))
        bend = [i for i in range(12) if i % 4 != 3]
        ai = [3, 7, 11]
        assert np.abs(loc.k0[np.ix_(bend, ai)]).max() < 1e-14
        assert np.abs(loc.k0[np.ix_(ai, bend)]).max() < 1e-14

    def test_cyclic_relabel_permutation_similarity(self):
        rng = np.random.default_rng(1)
        coords = random_ccw(rng)
        mat = material()
        loc = single_local(triangle_geometry(coords), mat)
        loc2 = single_local(triangle_geometry(coords[[1, 2, 0]]), mat)
        perm = np.r_[4:8, 8:12, 0:4]
        for a, b in ((loc.k0, loc2.k0), (loc.k1, loc2.k1), (loc.k2, loc2.k2)):
            assert np.abs(b - a[np.ix_(perm, perm)]).max() < 1e-12

    def test_local_skew_duality_conservative(self):
        rng = np.random.default_rng(2)
        g = triangle_geometry(random_ccw(rng))
        loc = single_local(g, material(l_n=0.37))
        bend = [i for i in range(12) if i % 4 != 3]
        ai = [3, 7, 11]
        b_me = loc.k1[np.ix_(bend, ai)]
        b_em = loc.k1[np.ix_(ai, bend)]
        assert np.abs(b_me + b_em.T).max() < 1e-12

    def test_quadrature_oracle_five_random_triangles(self):
        rng = np.random.default_rng(7)
        coupled_damped = material(l_n=0.37, r_n=0.3, g_n=0.2)
        for _ in range(5):
            g = triangle_geometry(random_ccw(rng))
            for mat in (coupled_damped, dense_random_material(rng)):
                assert_matches_oracle(single_local(g, mat), g, mat)

    def test_padded_field_formulation_bitwise(self):
        # a batch large enough for BLAS's regular kernels; dense random
        # matrices, selectors included, make every sum a long one. The
        # conservative and the uncoupled material have all-zero cores (S, T,
        # R; also V, C), whose forms the assembly leaves out
        rng = np.random.default_rng(12)
        coords = np.stack([random_ccw(rng) for _ in range(24)])
        coupled_damped = material(l_n=0.37, r_n=0.3, g_n=0.2)
        conservative = material(l_n=0.37)
        uncoupled = material(coupling=(0.0, 0.0, 0.0), l_n=0.37)
        random_h = dense_random_material(rng)
        random_h = dataclasses.replace(
            random_h, H=rng.normal(size=random_h.H.shape))
        quad = triangle_quadrature()
        geom = triangle_geometry(coords)
        slots = assembly._chunk_slots(geom, quad,
                                      assembly._monomial_tables(quad))
        back = np.argsort(assembly._FIELD_ORDER)
        for mat in (coupled_damped, conservative, uncoupled, random_h):
            want = padded_field_local_matrices(coords, mat)
            got = assembly._local_matrix_batch(slots, geom.area, mat, quad)
            for g, w in zip(got, want):
                # bit patterns, so that a -0 for a +0 fails too
                assert np.array_equal(g[:, back][:, :, back].view(np.int64),
                                      w.view(np.int64))

    def test_mu_override_is_honored(self):
        # the corrupt_mu negative control feeds mu values that disagree with
        # the vertices; the local matrices must follow geom.mu, not recompute it
        rng = np.random.default_rng(9)
        g = triangle_geometry(random_ccw(rng))
        mat = dense_random_material(rng)
        for mu in (-g.mu, rng.uniform(-1.0, 1.0, size=3)):
            bad = dataclasses.replace(g, mu=mu)
            loc = single_local(bad, mat)
            assert_matches_oracle(loc, bad, mat)
            assert np.abs(loc.k0 - single_local(g, mat).k0).max() > 1e-3

    def test_degenerate_triangle_rejected(self):
        with pytest.raises(ValidationError):
            triangle_geometry(np.array([[0.0, 0], [1, 0], [0.5, 0]]))

    def test_oracle_k0_k2_five_random_triangles(self):
        # acceptance-grade check against the independent polynomial oracle
        rng = np.random.default_rng(42)
        mat = material(coupling=(0, 0, 0))
        bend = [i for i in range(12) if i % 4 != 3]
        h, rho = 1e-3, 500.0
        for _ in range(5):
            g = triangle_geometry(random_ccw(rng))
            loc = single_local(g, mat)
            k0 = oracle_bending_k0(g, mat.E[:3, :3])
            k2 = oracle_bending_k2(g, 2 * h * rho, 2 * h**3 * rho / 3)
            got0 = loc.k0[np.ix_(bend, bend)]
            got2 = loc.k2[np.ix_(bend, bend)]
            assert np.abs(got0 - k0).max() <= 1e-12 * np.abs(k0).max()
            assert np.abs(got2 - k2).max() <= 1e-12 * np.abs(k2).max()


class TestDofMap:
    def test_free_count_clamped_grounded(self):
        mesh = generate_structured_square(2, 1.0, "crossed")
        bcs = [BoundaryCondition("boundary", "clamped"),
               BoundaryCondition("boundary", "grounded")]
        dm = build_dof_map(mesh, bcs)
        interior = mesh.n_nodes - len(mesh.edge_groups["boundary"])
        assert dm.n_free == 4 * interior

    def test_unknown_group(self):
        mesh = generate_structured_square(2, 1.0)
        with pytest.raises(ValidationError, match="unknown edge group"):
            build_dof_map(mesh, [BoundaryCondition("rim", "clamped")])

    def test_conflicting_constraints(self):
        mesh = generate_structured_square(2, 1.0)
        with pytest.raises(ValidationError, match="constrained by both"):
            build_dof_map(mesh, [BoundaryCondition("boundary", "clamped"),
                                 BoundaryCondition("boundary", "simply_supported")])

    def test_free_kind_constrains_nothing(self):
        mesh = generate_structured_square(2, 1.0)
        dm = build_dof_map(mesh, [BoundaryCondition("boundary", "free")])
        assert dm.n_free == 4 * mesh.n_nodes

    def test_bad_kind(self):
        with pytest.raises(ValidationError, match="unknown boundary-condition"):
            BoundaryCondition("boundary", "welded")


def jittered_square(n, rng, amount=0.04):
    """Crossed n x n unit square with every interior node moved at random."""
    base = generate_structured_square(n, 1.0, "crossed")
    nodes = base.nodes.copy()
    inner = [i for i in range(base.n_nodes)
             if i not in base.edge_groups["boundary"]]
    nodes[inner] += rng.uniform(-amount, amount, size=(len(inner), 2))
    return Mesh(nodes, base.triangles, base.edge_groups)


def coo_oracle(mesh, mat, bcs):
    """Free-DOF K2, K1, K0 from per-element local matrices, summed by
    scipy's COO -> CSR on all DOFs, constrained rows and columns sliced out."""
    local = local_matrices(
        triangle_geometry(mesh.nodes[mesh.triangles]), mat)
    g = (4 * mesh.triangles[:, :, None] + np.arange(4)).reshape(-1, 12)
    rows = np.repeat(g, 12, axis=1).ravel()
    cols = np.tile(g, (1, 12)).ravel()
    n_full = 4 * mesh.n_nodes
    free = build_dof_map(mesh, bcs).free_to_full
    want = {}
    for name in ("k2", "k1", "k0"):
        data = getattr(local, name).ravel()
        full = sp.coo_matrix((data, (rows, cols)),
                             shape=(n_full, n_full)).tocsr()
        want[name] = full[free][:, free].tocsr()
    return want


def assert_bits_equal(sys, want):
    """Each field block the system stores has the data, indices and indptr
    of the block sliced out of the oracle, explicit zeros included; each
    block it leaves out is all zeros in the oracle."""
    for name in ("k2", "k1", "k0"):
        parts = getattr(sys, f"{name}_blocks").parts
        for part, ref in oracle.field_blocks(want[name], sys.dof_map).items():
            got = parts.get(part)
            if got is None:
                assert not ref.data.any(), (name, part)
                continue
            assert np.array_equal(got.indptr, ref.indptr), (name, part)
            assert np.array_equal(got.indices, ref.indices), (name, part)
            assert np.array_equal(got.data, ref.data), (name, part)


def count_local_batches(monkeypatch):
    """The element count of every later ``_local_matrix_batch`` call."""
    sizes = []
    batch = assembly._local_matrix_batch

    def counted(slots, area, *args):
        sizes.append(len(area))
        return batch(slots, area, *args)

    monkeypatch.setattr(assembly, "_local_matrix_batch", counted)
    return sizes


class TestAssemble:
    def test_single_triangle_global_equals_local(self):
        mesh = Mesh(np.array([[0.0, 0], [1, 0], [0, 1]]), np.array([[0, 1, 2]]))
        mat = material()
        sys = assemble(mesh, mat)
        loc = single_local(triangle_geometry(mesh.nodes), mat)
        for full, local in ((sys.k0, loc.k0), (sys.k2, loc.k2), (sys.k1, loc.k1)):
            scale = max(1.0, np.abs(local).max())
            assert np.abs(full.toarray() - local).max() < 1e-14 * scale

    def test_overflowing_material_raises_without_a_warning(self):
        # rigidity 1e306 overflows K0's local matrices, and their sums meet
        # inf + -inf; the assembled system names K0, and no RuntimeWarning
        # (an error under this suite) fires on the way
        plate = PlateParams.isotropic(1e-3, 500.0, 1e306, 0.3,
                                      coupling=(0.1, 0.1, 0.0))
        mat = build_material(plate, NetworkParams(inductance=1.0))
        mesh = generate_structured_square(4, 1.0, "crossed")
        with pytest.raises(NumericalError,
                           match=r"non-finite K0 .*max \|E\| = 1e\+306"):
            assemble(mesh, mat, bcs_ss())

    def test_overflowing_k1_fails_on_its_first_read(self):
        # g_me = 1e307 overflows only K1's coupling forms: the system, whose
        # K2 and K0 the modal analysis reads, is made, and the read that
        # sums K1 names it and its blocks
        mesh = generate_structured_square(4, 1.0, "crossed")
        sys = assemble(mesh, material(coupling=(1e307, 1e307, 0.0)), bcs_ss())
        for _ in range(2):
            with pytest.raises(NumericalError, match=r"^non-finite K1 .*"
                               r"max \|V\| = 1e\+307, max \|C\| = 1e\+307"):
                sys.k1

    def test_overflowing_geometry_names_the_mesh_span(self):
        # a valid mesh on a unit material can still overflow K2's rotary
        # and slope entries; the message gives the span, not only the material
        mesh = generate_structured_square(4, 1e100, "crossed")
        with pytest.raises(NumericalError, match=r"non-finite K2 .*max \|G\| = 1,"
                           r" .* on a mesh spanning 1e\+100 x 1e\+100"):
            assemble(mesh, material(), bcs_ss())

    def test_k2_symmetry_on_jittered_mesh(self):
        mesh = jittered_square(4, np.random.default_rng(3))
        sys = assemble(mesh, material(), bcs_ss())
        assert np.abs((sys.k2 - sys.k2.T)).max() <= 1e-12
        assert np.abs((sys.k0 - sys.k0.T)).max() <= 1e-10 * np.abs(sys.k0).max()

    def test_positive_definite_after_constraints(self):
        mesh = generate_structured_square(4, 1.0, "crossed")
        bcs = [BoundaryCondition("boundary", "clamped"),
               BoundaryCondition("boundary", "grounded")]
        sys = assemble(mesh, material(), bcs)
        for m in (sys.k2, sys.k0):
            evals = sla.eigh(m.toarray(), eigvals_only=True,
                             subset_by_index=[0, 0])
            assert evals[0] > 0

    def test_skew_duality_assembled(self):
        mesh = generate_structured_square(3, 1.0, "crossed")
        sys = assemble(mesh, material(l_n=0.21), bcs_ss())
        k1 = sys.k1.toarray()
        mech = np.flatnonzero(sys.dof_map.mechanical_mask)
        elec = np.flatnonzero(sys.dof_map.electric_mask)
        b_me = k1[np.ix_(mech, elec)]
        b_em = k1[np.ix_(elec, mech)]
        assert np.abs(b_me + b_em.T).max() <= 1e-12 * max(1, np.abs(b_me).max())

    def test_cross_field_blocks_of_k2_k0_are_zero(self):
        # the energy partition relies on K2 and the conservative K0 being
        # block-diagonal across the two fields; assert rather than assume:
        # the element entries of their cross-field blocks are all zero, so
        # the system stores none, and the oracle's are zero too
        mesh = generate_structured_square(3, 1.0, "crossed")
        bcs = bcs_ss()
        sys = assemble(mesh, material(l_n=0.37), bcs)
        want = coo_oracle(mesh, material(l_n=0.37), bcs)
        assert set(sys.k2_blocks.parts) == set(sys.k0_blocks.parts) \
            == {"mm", "ee"}
        assert set(sys.k1_blocks.parts) == {"me", "em"}
        for name in ("k2", "k0"):
            for part in ("me", "em"):
                ref = oracle.field_blocks(want[name], sys.dof_map)[part]
                assert ref.nnz and not ref.data.any()
        # R_N fills K0's mechanical-row block, and R_N or G_N K1's electric
        # block (S); neither fills the electric-row block of K0
        sys = assemble(mesh, material(l_n=0.37, r_n=0.3, g_n=0.2), bcs)
        assert set(sys.k0_blocks.parts) == {"mm", "me", "ee"}
        assert set(sys.k1_blocks.parts) == {"me", "em", "ee"}

    def test_workspace_reuse_is_exact(self):
        mesh = generate_structured_square(3, 1.0, "crossed")
        plan = scatter_plan(mesh, bcs_ss(), build_dof_map(mesh, bcs_ss()))
        a = assemble(mesh, material(r_n=0.3), bcs_ss(), workspace=plan)
        b = assemble(mesh, material(r_n=0.3), bcs_ss(), workspace=plan)
        c = assemble(mesh, material(r_n=0.3), bcs_ss())
        assert (a.k0 - b.k0).nnz == 0
        assert np.abs((b.k0 - c.k0)).max() == 0.0
        assert a.dof_map is plan.dof_map

    def test_workspace_serves_one_mesh(self):
        # a plan is one mesh's under one boundary-condition set
        mesh = generate_structured_square(2, 1.0)
        plan = scatter_plan(mesh, bcs_ss(), build_dof_map(mesh, bcs_ss()))
        assemble(mesh, material(), bcs_ss(), workspace=plan)
        with pytest.raises(ValidationError, match="scatter plan serves"):
            assemble(generate_structured_square(2, 1.0), material(), bcs_ss(),
                     workspace=plan)
        clamped = [BoundaryCondition("boundary", "clamped")]
        with pytest.raises(ValidationError, match="scatter plan serves"):
            assemble(mesh, material(), clamped, workspace=plan)

    def test_bits_match_full_coo_assembly(self, monkeypatch):
        # element by element, summed by scipy's COO -> CSR on all DOFs, then
        # the free rows and columns sliced out: the batched assembly and its
        # direct free-DOF summation must agree to the last bit, whatever the
        # batch size and numpy's BLAS thread count. Every geometry of the
        # jittered mesh is distinct, so every triangle goes through the
        # element stage.
        mesh = jittered_square(3, np.random.default_rng(11))
        mat = material(l_n=0.37, r_n=0.3, g_n=0.2)
        bcs = [BoundaryCondition("boundary", "clamped")]
        want = coo_oracle(mesh, mat, bcs)
        # K1 read after a family solve, as a run reads it
        sys = assemble(mesh, mat, bcs)
        solve_family_modes(sys, "mechanical", 2)
        assert_bits_equal(sys, want)
        sizes = count_local_batches(monkeypatch)
        # 36 triangles: 8 batches of 5, or one batch of 512, in each pass:
        # K2 and K0's when the system is made, K1's on its first read only
        for chunk in (5, 512):
            monkeypatch.setattr(assembly, "_CHUNK", chunk)
            for pinned in (True, False):
                sizes.clear()
                with blas.numpy_blas_single_thread() if pinned else nullcontext():
                    sys = assemble(mesh, mat, bcs)
                    one_pass = list(sizes)
                    sys.k1
                assert_bits_equal(sys, want)
                assert sum(one_pass) == mesh.n_triangles
                assert len(one_pass) == -(-mesh.n_triangles // chunk)
                assert sizes == 2 * one_pass

    @pytest.mark.parametrize("preset", ["paper-square", "clamped-demo"])
    @pytest.mark.parametrize("resistive", [False, True])
    def test_preset_blocks_match_full_coo_assembly(self, preset, resistive):
        # each preset's system as a run assembles it (conservative), and
        # with R_N and G_N set, which fill K0's mechanical-row block and
        # K1's electric one: every stored block is the oracle's slice, and
        # every block left out is zero in the oracle
        ref = resources.files("pemplate") / "presets" / f"{preset}.cfg"
        with resources.as_file(ref) as path:
            cfg = load_config(Path(path))
        plan = cli.Run(cfg).plan()
        net = cfg.network
        if resistive:
            net = dataclasses.replace(net, resistance=0.3, conductance=0.2)
        mat = build_material(cfg.plate, net)
        sys = assemble(plan.mesh, mat, cfg.bcs, workspace=plan)
        assert_bits_equal(sys, coo_oracle(plan.mesh, mat, cfg.bcs))
        assert len(sys.k1_blocks.parts) == 2 + resistive

    @pytest.mark.parametrize("n, side, distinct", [
        (4, 1.0, 4),  # dyadic: every coordinate difference is exact
        (4, 0.3, None),
        (3, 1.0, None),
    ])
    def test_congruent_triangles_computed_once(self, monkeypatch, n, side,
                                               distinct):
        # triangles whose geometry agrees bit for bit share one local matrix
        # computation; the matrices still match the element-by-element
        # oracle to the last bit
        mesh = generate_structured_square(n, side, "crossed")
        mat = material(l_n=0.37, r_n=0.3, g_n=0.2)
        bcs = [BoundaryCondition("boundary", "clamped")]
        want = coo_oracle(mesh, mat, bcs)
        sizes = count_local_batches(monkeypatch)
        sys = assemble(mesh, mat, bcs)
        made = sum(sizes)
        assert_bits_equal(sys, want)
        # each distinct geometry once per pass: K2 and K0's when the system
        # is made, K1's on its first read
        assert sum(sizes) == 2 * made == 2 * len(scatter_plan(
            mesh, bcs, build_dof_map(mesh, bcs)).first)
        if distinct is not None:
            assert made == distinct

    def test_gather_takes_the_smallest_index_type(self):
        # 484 distinct geometries hold 69,696 entries, past uint16: the
        # wide plan still sums to the oracle's bits
        mesh = jittered_square(11, np.random.default_rng(7), amount=0.01)
        mat = material(l_n=0.37, r_n=0.3, g_n=0.2)
        bcs = [BoundaryCondition("boundary", "clamped")]
        plan = scatter_plan(mesh, bcs, build_dof_map(mesh, bcs))
        assert len(plan.first) == mesh.n_triangles == 484
        assert_bits_equal(assemble(mesh, mat, bcs, workspace=plan),
                          coo_oracle(mesh, mat, bcs))
        square = generate_structured_square(11, 1.0, "crossed")
        small = scatter_plan(square, bcs, build_dof_map(square, bcs))
        for p, dtype in ((plan, np.uint32), (small, np.uint16)):
            assert np.min_scalar_type(144 * len(p.first) - 1) == dtype
            assert {g.dtype for b in p.blocks.values()
                    for g in b.gather} == {np.dtype(dtype)}

    def test_plan_build_memory(self):
        # per COO entry (144 per triangle): the build's traced peak and the
        # arrays the plan holds; int64 temporaries and int32 gathers took
        # 63.7 and 7.06 bytes
        mesh = generate_structured_square(32, 1.0, "crossed")
        bcs = [BoundaryCondition("boundary", "simply_supported")]
        dof_map = build_dof_map(mesh, bcs)
        tracemalloc.start()
        try:
            plan = scatter_plan(mesh, bcs, dof_map)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        entries = 144 * mesh.n_triangles
        held = plan.first.nbytes + sum(
            a.nbytes for b in plan.blocks.values()
            for a in (b.indptr, b.indices, b.position, *b.gather))
        assert peak <= 32 * entries
        assert held <= 5.5 * entries

    def test_failing_batch_stops_assembly(self, monkeypatch):
        # batches 3 and 4 fail: batch 3's error is raised and batch 4 is
        # never computed. Every geometry of the jittered mesh is distinct,
        # so its 36 triangles make 9 batches of 4.
        mesh = jittered_square(3, np.random.default_rng(5))
        monkeypatch.setattr(assembly, "_CHUNK", 4)
        slots = assembly._chunk_slots

        # a full run tells each batch by the bits of its first triangle
        first = {}

        def record(geom, quad, tables):
            first[geom.b[0].tobytes()] = len(first)
            return slots(geom, quad, tables)

        with monkeypatch.context() as m:
            m.setattr(assembly, "_chunk_slots", record)
            assemble(mesh, material(), bcs_ss())
        assert len(first) == 9
        computed = []

        def failing(geom, quad, tables):
            batch = first[geom.b[0].tobytes()]
            computed.append(batch)
            if batch in (3, 4):
                raise ValidationError(f"batch {batch} failed")
            return slots(geom, quad, tables)

        monkeypatch.setattr(assembly, "_chunk_slots", failing)
        with pytest.raises(ValidationError, match="batch 3 failed"):
            assemble(mesh, material(), bcs_ss())
        assert computed == [0, 1, 2, 3]

    def test_free_scatter_matches_oracle_sum(self):
        # dense sum of the per-element oracle, then the constrained rows and
        # columns dropped: the direct free-DOF scatter must agree
        rng = np.random.default_rng(10)
        mesh = jittered_square(2, rng, 0.05)
        mat = dense_random_material(rng)
        bcs = [BoundaryCondition("boundary", "simply_supported")]
        sys = assemble(mesh, mat, bcs)
        n_full = 4 * mesh.n_nodes
        want = [np.zeros((n_full, n_full)) for _ in range(3)]
        for tri in mesh.triangles:
            g = (4 * tri[:, None] + np.arange(4)[None, :]).ravel()
            local = quadrature_oracle(triangle_geometry(mesh.nodes[tri]), mat)
            for full, loc in zip(want, local):
                full[np.ix_(g, g)] += loc
        free = sys.dof_map.free_to_full
        for got, full in zip((sys.k2, sys.k1, sys.k0), want):
            ref = full[np.ix_(free, free)]
            assert np.abs(got.toarray() - ref).max() <= 1e-13 * np.abs(ref).max()


class TestPatchTest:
    def test_quadratic_states_exact(self):
        rep = patch_test(material(coupling=(0, 0, 0)))
        assert rep.passed
        assert rep.max_error <= 1e-9
        assert rep.max_rigid_error <= 1e-12

    def test_requires_uncoupled_material(self):
        with pytest.raises(ValidationError, match="uncoupled"):
            patch_test(material())

    def test_corrupted_mu_fails(self):
        rep = patch_test(material(coupling=(0, 0, 0)), corrupt_mu=True)
        assert not rep.passed
        assert rep.max_error > 1e-4
        # rigid modes survive the corruption: they carry no curvature
        assert rep.max_rigid_error <= 1e-12

    def test_patch_mesh_is_valid(self):
        mesh = patch_test_mesh()  # construction validates it, conformity too
        assert mesh.n_nodes == 6 and mesh.n_triangles == 5


def test_convergence_simply_supported_monotone():
    # first bending eigenfrequency error strictly decreases with refinement
    # (n >= 4: the coarsest crossed meshes are still pre-asymptotic); the
    # full {4, 8, 16} sweep for both supports runs in the acceptance suite
    mat = material(coupling=(0, 0, 0))
    exact = 2.0 * np.pi**2
    errors = []
    for n in (4, 8):
        mesh = generate_structured_square(n, 1.0, "crossed")
        sys = assemble(mesh, mat, bcs_ss())
        mech = np.flatnonzero(sys.dof_map.mechanical_mask)
        k0 = sys.k0.toarray()[np.ix_(mech, mech)]
        k2 = sys.k2.toarray()[np.ix_(mech, mech)]
        w2 = sla.eigh(k0, k2, eigvals_only=True, subset_by_index=[0, 0])[0]
        errors.append(abs(np.sqrt(w2) - exact) / exact)
    assert errors[0] > errors[1]
