"""Local element matrices, global assembly and boundary-condition reduction.

The element contribution integrates the weak-problem matrices against the
two-field shape matrix N (bending row, electric row) and the generalized
strain interpolation N_eps built from the compatibility selectors:

    K2e = -( <G N, N> + <G_B1 N_x, N_x> + <G_B2 N_y, N_y> )
    K1e = -( <S N, N> + <V N_eps, N> - <C N, N_eps> )
    K0e = -( <T N, N> - <E N_eps, N_eps> - <R N, N_eps> )

The leading minus signs move the (negative-definite) inertia terms to the
left-hand side so the assembled K2 is positive definite. Test rows of the
electric field are weighted by the net inductance L_N: the electric test
descriptor enters the power balance through the network branch relation, and
this constant row weight is exactly what makes the conservative coupling
blocks skew (B_me = -B_em^T) and the quadratic-form energies conserved.

Integration uses a cyclically symmetric rule that is exact for all the
(at most degree 8) polynomial integrands, so the only discretization error
left is the non-conformity of the bending element.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from . import element as el
from .errors import ValidationError
from .mesh import Mesh

DOFS_PER_NODE = 4  # (w, theta_x, theta_y, alpha)
MECH_COMPONENTS = (0, 1, 2)
ELEC_COMPONENT = 3
DEFAULT_QUADRATURE_DEGREE = 8

_BC_COMPONENTS = {
    "simply_supported": (0,),
    "clamped": (0, 1, 2),
    "grounded": (3,),
    "free": (),
}

_CHUNK = 512  # elements per batch, bounds the batched-matmul working set


@dataclass(frozen=True)
class BoundaryCondition:
    """One kinematic constraint applied to a named edge group."""

    group: str
    kind: str

    def __post_init__(self):
        if self.kind not in _BC_COMPONENTS:
            raise ValidationError(
                f"unknown boundary-condition kind '{self.kind}' "
                f"(expected one of {sorted(_BC_COMPONENTS)})"
            )

    @property
    def components(self):
        return _BC_COMPONENTS[self.kind]


@dataclass(frozen=True)
class DofMap:
    """Free/constrained bookkeeping: full dof = 4*node + component."""

    n_nodes: int
    full_to_free: np.ndarray
    free_to_full: np.ndarray

    @property
    def n_full(self):
        return DOFS_PER_NODE * self.n_nodes

    @property
    def n_free(self):
        return len(self.free_to_full)

    def full_index(self, node, component):
        return DOFS_PER_NODE * node + component

    def free_index(self, node, component):
        """Free index of a nodal DOF, or -1 if constrained."""
        return int(self.full_to_free[self.full_index(node, component)])

    @property
    def free_components(self):
        return self.free_to_full % DOFS_PER_NODE

    @property
    def free_nodes(self):
        return self.free_to_full // DOFS_PER_NODE

    @property
    def mechanical_mask(self):
        """Boolean mask over free DOFs selecting the bending family."""
        return self.free_components != ELEC_COMPONENT

    @property
    def electric_mask(self):
        return self.free_components == ELEC_COMPONENT


def build_dof_map(mesh, bcs=()):
    """Eliminate constrained DOFs; free indices stay dense and ordered."""
    constrained_by = {}
    for bc in bcs:
        if bc.group not in mesh.edge_groups:
            raise ValidationError(
                f"boundary condition references unknown edge group '{bc.group}'"
            )
        for node in sorted(mesh.edge_groups[bc.group]):
            for comp in bc.components:
                dof = DOFS_PER_NODE * node + comp
                other = constrained_by.get(dof)
                if other is not None and other is not bc:
                    raise ValidationError(
                        f"DOF (node {node}, component {comp}) constrained by both "
                        f"'{other.group}/{other.kind}' and '{bc.group}/{bc.kind}'"
                    )
                constrained_by[dof] = bc
    n_full = DOFS_PER_NODE * mesh.n_nodes
    full_to_free = np.full(n_full, -1, dtype=np.int64)
    free = np.array(
        [d for d in range(n_full) if d not in constrained_by], dtype=np.int64
    )
    full_to_free[free] = np.arange(len(free))
    return DofMap(n_nodes=mesh.n_nodes, full_to_free=full_to_free, free_to_full=free)


@dataclass(frozen=True)
class AssembledSystem:
    """Reduced global system K2 q'' + K1 q' + K0 q = F on the free DOFs."""

    k2: sp.csr_matrix
    k1: sp.csr_matrix
    k0: sp.csr_matrix
    f: np.ndarray
    dof_map: DofMap
    mesh: Mesh
    material: object

    @property
    def n_free(self):
        return self.dof_map.n_free


@dataclass(frozen=True)
class LocalMatrices:
    k2: np.ndarray
    k1: np.ndarray
    k0: np.ndarray
    f: np.ndarray


def _field_arrays(coords, quad, mu_override=None):
    """Shape matrices at the quadrature points of an element batch.

    ``coords`` has shape (nel, 3, 2). Returns N, N_x, N_y of shape
    (nel, npts, 2, 12) and N_eps of shape (nel, npts, 5, 12) with the local
    DOF order (w, tx, ty, alpha) per corner node. ``mu_override`` replaces
    the geometric mu parameters (test hook for corrupted elements).
    """
    nel = len(coords)
    pts = quad.points
    npts = len(pts)

    x, y = coords[:, :, 0], coords[:, :, 1]
    jj, kk = [1, 2, 0], [2, 0, 1]
    b = y[:, jj] - y[:, kk]
    c = x[:, kk] - x[:, jj]
    area = 0.5 * (b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0])
    if np.any(area <= 0):
        bad = int(np.flatnonzero(area <= 0)[0])
        raise ValidationError(f"degenerate element {bad}: non-positive area")
    l2 = (x[:, jj] - x[:, kk]) ** 2 + (y[:, jj] - y[:, kk]) ** 2
    mu = (l2[:, kk] - l2[:, jj]) / l2 if mu_override is None else mu_override

    comb = np.empty((nel, 9, 12))
    for e in range(nel):
        geom = el.TriangleGeometry(
            x=x[e], y=y[e], area=float(area[e]), b=b[e], c=c[e],
            lengths=np.sqrt(l2[e]), mu=mu[e],
        )
        comb[e] = el.shape_combination(geom) @ el.p_coefficients(geom.mu)

    m0 = el._monomials(pts)
    m1 = el._monomial_first(pts)
    m2 = el._monomial_second(pts)
    gx = b / (2.0 * area[:, None])
    gy = c / (2.0 * area[:, None])

    # batched matmuls: first/second area-coordinate derivatives of the nine
    # bending shapes, then chain rule through the constant gradients of L
    combt = np.ascontiguousarray(comb.transpose(0, 2, 1))  # (nel, 12, 9)
    val = np.matmul(m0[None, :, :], combt)
    d1 = np.stack([np.matmul(m1[l][None, :, :], combt) for l in range(3)])
    dx = np.einsum("el,lepi->epi", gx, d1)
    dy = np.einsum("el,lepi->epi", gy, d1)
    dxx = np.zeros_like(val)
    dyy = np.zeros_like(val)
    dxy = np.zeros_like(val)
    for l in range(3):
        for m in range(l, 3):
            d2 = np.matmul(m2[l, m][None, :, :], combt)
            sym = 1.0 if l == m else 2.0
            dxx += (sym * gx[:, l] * gx[:, m])[:, None, None] * d2
            dyy += (sym * gy[:, l] * gy[:, m])[:, None, None] * d2
            if l == m:
                dxy += (gx[:, l] * gy[:, m])[:, None, None] * d2
            else:
                dxy += (gx[:, l] * gy[:, m]
                        + gx[:, m] * gy[:, l])[:, None, None] * d2

    bend = np.arange(12).reshape(3, 4)[:, :3].ravel()  # local dofs of the w field
    alpha = np.array([3, 7, 11])

    def place(pack_b, pack_a):
        out = np.zeros((nel, npts, 2, 12))
        out[:, :, 0, bend] = pack_b
        if pack_a is not None:
            out[:, :, 1, alpha] = pack_a
        return out

    lin_val = np.broadcast_to(pts, (nel, npts, 3))
    n = place(val, lin_val)
    n1 = place(dx, np.broadcast_to(gx[:, None, :], (nel, npts, 3)))
    n2 = place(dy, np.broadcast_to(gy[:, None, :], (nel, npts, 3)))
    n11 = place(dxx, None)
    n22 = place(dyy, None)
    n12 = place(dxy, None)

    return n, n1, n2, n11, n22, n12, area


def _strain_matrix(h_stack, derivative_stack):
    """N_eps = sum_h H_h * (h-th derivative of N) via the selector stack."""
    nd = np.stack(derivative_stack)  # (6, nel, npts, 2, 12)
    return np.einsum("hsf,hepfd->epsd", h_stack, nd, optimize=True)


def _chunk_geometry(coords, quad, h_stack, mu_override=None):
    """Material-independent shape data of one element chunk."""
    n, n1, n2, n11, n22, n12, area = _field_arrays(coords, quad, mu_override)
    neps = _strain_matrix(h_stack, (n, n1, n2, n11, n22, n12))
    return n, n1, n2, neps, area


def _local_matrix_batch(coords, mat, quad, mu_override=None, geometry=None):
    if geometry is None:
        geometry = _chunk_geometry(coords, quad, mat.H, mu_override)
    n, n1, n2, neps, area = geometry

    l_n = mat.network.inductance
    w_u = np.diag([1.0, l_n])
    w_eps = np.diag([1.0, 1.0, 1.0, l_n, l_n])

    w = quad.weights

    def bilin(test, core, trial):
        # integral of (W test)^T core trial; output rows are test DOFs.
        # Contract the small core first, then one batched matmul over the
        # merged (point, field) axis.
        tb = np.tensordot(core, trial, axes=([1], [2]))  # (f, nel, npts, 12)
        tb = np.moveaxis(tb, 0, 2) * w[None, :, None, None]
        nel, npts, f, q = tb.shape
        lhs = test.reshape(nel, npts * f, test.shape[-1]).transpose(0, 2, 1)
        out = np.matmul(lhs, tb.reshape(nel, npts * f, q))
        return out * area[:, None, None]

    k2 = -(bilin(n, w_u @ mat.G, n)
           + bilin(n1, w_u @ mat.G_B1, n1)
           + bilin(n2, w_u @ mat.G_B2, n2))
    k1 = -(bilin(n, w_u @ mat.S, n)
           + bilin(n, w_u @ mat.V, neps)
           - bilin(neps, w_eps @ mat.C, n))
    k0 = -(bilin(n, w_u @ mat.T, n)
           - bilin(neps, w_eps @ mat.E, neps)
           - bilin(neps, w_eps @ mat.R, n))
    return k2, k1, k0


def local_matrices(geom, mat, quad=None):
    """Local K2, K1, K0 (12x12) and load vector for one triangle.

    ``geom`` is a :class:`~pemplate.element.TriangleGeometry`; its mu values
    are honored even when they disagree with the vertex coordinates, so tests
    can probe deliberately corrupted elements. Distributed loads are out of
    scope, so the local load vector is zero.
    """
    if quad is None:
        quad = el.triangle_quadrature(DEFAULT_QUADRATURE_DEGREE)
    coords = np.stack([geom.x, geom.y], axis=1)[None, :, :]
    k2, k1, k0 = _local_matrix_batch(coords, mat, quad, geom.mu[None, :])
    return LocalMatrices(k2=k2[0], k1=k1[0], k0=k0[0], f=np.zeros(12))


class AssemblyWorkspace:
    """Caches material-independent shape data for repeated assembly.

    The per-element shape matrices and strain interpolation do not depend on
    the material, so they are computed once per (mesh, quadrature) and
    reused. The resistance search assembles the same mesh twice (R_N = 0 and
    R_N = 1, see :func:`pemplate.dynamics.resistance_family`); the second
    assembly skips the geometry stage.
    """

    def __init__(self):
        self._chunks = {}

    def chunk(self, key, build):
        if key not in self._chunks:
            self._chunks[key] = build()
        return self._chunks[key]


def assemble(mesh, mat, bcs=(), quad_degree=DEFAULT_QUADRATURE_DEGREE,
             point_loads=(), workspace=None):
    """Assemble the global system and eliminate constrained DOFs.

    ``point_loads`` is an optional sequence of (node, component, value)
    nodal forces feeding the load vector F. Pass an
    :class:`AssemblyWorkspace` to reuse the geometry stage across repeated
    assemblies of the same mesh.
    """
    if quad_degree < DEFAULT_QUADRATURE_DEGREE:
        raise ValidationError(
            f"quadrature degree must be >= {DEFAULT_QUADRATURE_DEGREE} to keep "
            "the mass-type integrands exact"
        )
    quad = el.triangle_quadrature(quad_degree)
    dof_map = build_dof_map(mesh, bcs)

    gdofs = (DOFS_PER_NODE * mesh.triangles[:, :, None]
             + np.arange(DOFS_PER_NODE)[None, None, :]).reshape(-1, 12)

    n_full = dof_map.n_full
    h_stack = mat.H
    mats = {"k2": [], "k1": [], "k0": []}
    rows_all, cols_all = [], []
    for start in range(0, mesh.n_triangles, _CHUNK):
        stop = min(start + _CHUNK, mesh.n_triangles)

        def build(start=start, stop=stop):
            coords = mesh.nodes[mesh.triangles[start:stop]]
            return _chunk_geometry(coords, quad, h_stack)

        if workspace is not None:
            geometry = workspace.chunk((quad_degree, start, stop), build)
        else:
            geometry = build()
        k2, k1, k0 = _local_matrix_batch(None, mat, quad, geometry=geometry)
        g = gdofs[start:stop]
        rows_all.append(np.repeat(g, 12, axis=1).ravel())
        cols_all.append(np.tile(g, (1, 12)).ravel())
        mats["k2"].append(k2.ravel())
        mats["k1"].append(k1.ravel())
        mats["k0"].append(k0.ravel())

    rows = np.concatenate(rows_all)
    cols = np.concatenate(cols_all)
    free = dof_map.free_to_full

    def collect(chunks):
        full = sp.coo_matrix(
            (np.concatenate(chunks), (rows, cols)), shape=(n_full, n_full)
        ).tocsr()
        return full[free][:, free].tocsr()

    f_full = np.zeros(n_full)
    for node, comp, value in point_loads:
        f_full[DOFS_PER_NODE * node + comp] += value

    return AssembledSystem(
        k2=collect(mats["k2"]), k1=collect(mats["k1"]), k0=collect(mats["k0"]),
        f=f_full[free], dof_map=dof_map, mesh=mesh, material=mat,
    )


# ---------------------------------------------------------------------------
# Patch test

# Irregular five-triangle patch: pentagon boundary around one interior node.
_PATCH_BOUNDARY = np.array([
    [0.00, 0.00],
    [1.25, 0.12],
    [1.55, 1.05],
    [0.60, 1.45],
    [-0.25, 0.80],
])
_PATCH_INTERIOR = np.array([0.55, 0.62])

_PATCH_STATES = {
    "w=x^2/2": (lambda x, y: 0.5 * x * x, lambda x, y: (x, 0.0)),
    "w=y^2/2": (lambda x, y: 0.5 * y * y, lambda x, y: (0.0, y)),
    "w=xy": (lambda x, y: x * y, lambda x, y: (y, x)),
}
_PATCH_RIGID = {
    "w=a+bx+cy": (lambda x, y: 0.3 + 0.7 * x - 0.4 * y, lambda x, y: (0.7, -0.4)),
}


@dataclass(frozen=True)
class PatchTestReport:
    passed: bool
    max_error: float
    max_rigid_error: float
    per_state: dict


def patch_test_mesh():
    nodes = np.vstack([_PATCH_BOUNDARY, _PATCH_INTERIOR])
    tris = np.array([(i, (i + 1) % 5, 5) for i in range(5)])
    return Mesh(nodes, tris, {"rim": frozenset(range(5))})


def patch_test(mat, tol=1e-9, rigid_tol=1e-12, corrupt_mu=False):
    """Constant-curvature reproduction on the irregular one-interior-node patch.

    Imposes boundary DOFs sampled from each quadratic state, solves the pure
    bending stiffness for the interior node, and reports the worst relative
    deviation. Requires an uncoupled material (g_me = 0). ``corrupt_mu`` flips
    the sign of the element mu parameters and serves as a negative control.
    """
    if mat.coupled:
        raise ValidationError("patch test requires an uncoupled material (g_me = 0)")
    mesh = patch_test_mesh()

    if not corrupt_mu:
        sys = assemble(mesh, mat)
        k0 = sys.k0.toarray()
        free = sys.dof_map.free_to_full
    else:
        # negative control: rebuild local matrices with mu sign flipped
        quad = el.triangle_quadrature(DEFAULT_QUADRATURE_DEGREE)
        n_full = DOFS_PER_NODE * mesh.n_nodes
        k0 = np.zeros((n_full, n_full))
        for tri in mesh.triangles:
            geom = el.triangle_geometry(mesh.nodes[tri])
            geom = replace(geom, mu=-geom.mu)
            loc = local_matrices(geom, mat, quad)
            g = (DOFS_PER_NODE * tri[:, None] + np.arange(4)[None, :]).ravel()
            k0[np.ix_(g, g)] += loc.k0
        free = np.arange(n_full)

    # bending DOFs only: columns (w, tx, ty) of every node, in free numbering
    comp = free % DOFS_PER_NODE
    node = free // DOFS_PER_NODE
    bend = comp != ELEC_COMPONENT
    inner = bend & (node == 5)
    outer = bend & (node != 5)
    k_ii = k0[np.ix_(np.flatnonzero(inner), np.flatnonzero(inner))]
    k_ib = k0[np.ix_(np.flatnonzero(inner), np.flatnonzero(outer))]

    def run(states):
        worst = 0.0
        details = {}
        for name, (f, df) in states.items():
            ub = []
            for i in range(5):
                xx, yy = mesh.nodes[i]
                gx, gy = df(xx, yy)
                ub.extend([f(xx, yy), gx, gy])
            ub = np.array(ub)
            xi, yi = mesh.nodes[5]
            gxi, gyi = df(xi, yi)
            exact = np.array([f(xi, yi), gxi, gyi])
            sol = np.linalg.solve(k_ii, -k_ib @ ub)
            scale = max(np.abs(ub).max(), np.abs(exact).max())
            err = float(np.abs(sol - exact).max() / scale)
            details[name] = err
            worst = max(worst, err)
        return worst, details

    quad_err, quad_detail = run(_PATCH_STATES)
    rigid_err, rigid_detail = run(_PATCH_RIGID)
    return PatchTestReport(
        passed=bool(quad_err <= tol and rigid_err <= rigid_tol),
        max_error=quad_err,
        max_rigid_error=rigid_err,
        per_state={**quad_detail, **rigid_detail},
    )
