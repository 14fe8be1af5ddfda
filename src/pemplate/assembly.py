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

The element stage works on the derivative slots h = (1, x, y, xx, yy, xy)
of the local shape functions at the quadrature points. Every local DOF
belongs to one field, so N_eps = sum_h H_h N_h and core @ N are matmuls of
the slot rows with structured matrices that hold one nonzero per output
entry and summed slot, and each form is a batched matmul over the points.
Every sum runs in a fixed index order and leaves out only terms that are
zero by the field structure. BLAS kernels that add each product in index
order (OpenBLAS's do, except its small-matrix kernels, which the batch size
keeps out of the way) therefore give the same matrices, to the last bit, as
the plain padded two-field evaluation, whatever the batching. Local
matrices are summed straight into the free-DOF CSR pattern, in the order in
which converting the full COO matrix to CSR would add them. Last bits
matter here: the eigenvalues of the ill-conditioned bending pencil amplify
a last-bit change of the matrices to ~1e-9 relative.
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
QUADRATURE_DEGREE = 8  # exact for the degree-8 mass-type integrands

_BC_COMPONENTS = {
    "simply_supported": (0,),
    "clamped": (0, 1, 2),
    "grounded": (3,),
    "free": (),
}

_CHUNK = 64  # elements per batch, keeps the per-batch arrays in cache

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

    def free_index(self, node, component):
        """Free index of a nodal DOF, or -1 if constrained."""
        return int(self.full_to_free[DOFS_PER_NODE * node + component])

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
    """Reduced global system K2 q'' + K1 q' + K0 q = 0 on the free DOFs."""

    k2: sp.csr_matrix
    k1: sp.csr_matrix
    k0: sp.csr_matrix
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


# Local DOFs in the order the element matrices are computed: the nine
# bending DOFs (w, tx, ty per corner) first, then alpha per corner.
_FIELD_ORDER = np.r_[0, 1, 2, 4, 5, 6, 8, 9, 10, 3, 7, 11]
_FIELD = np.r_[np.zeros(9, dtype=int), np.ones(3, dtype=int)]  # 1: electric


def _monomial_tables(quad):
    """Value, d/dL_l and d2/dL_l dL_m (l <= m) of the monomials, stacked.

    Shape (10 * npts, 12): row block t is the value (t = 0), the first
    derivatives (t = 1..3) and the second derivatives in the order (0, 0),
    (0, 1), (0, 2), (1, 1), (1, 2), (2, 2) (t = 4..9).
    """
    m2 = el._monomial_second(quad.points)
    pairs = [m2[l, m] for l in range(3) for m in range(l, 3)]
    return np.concatenate([el._monomials(quad.points)[None],
                           el._monomial_first(quad.points),
                           np.stack(pairs)]).reshape(-1, 12)


def _chunk_slots(coords, quad, tables, mu_override=None):
    """Derivative slots of the local shape functions over one element chunk.

    ``coords`` has shape (nel, 3, 2). Returns ``slots`` of shape
    (nel, npts, 6, 12): slot h = (1, x, y, xx, yy, xy) of the shape function
    of each local DOF (in ``_FIELD_ORDER``) at the quadrature points, and the
    element areas. ``mu_override`` replaces the geometric mu parameters
    (test hook for corrupted elements).
    """
    nel = len(coords)
    npts = len(quad.points)

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

    geom = el.TriangleGeometry(x=x, y=y, area=area, b=b, c=c,
                               lengths=np.sqrt(l2), mu=mu)
    comb = el.shape_combination(geom) @ el.p_coefficients(geom.mu)
    gx = b / (2.0 * area[:, None])
    gy = c / (2.0 * area[:, None])

    # area-coordinate derivatives of the nine bending shapes, one batched
    # matmul over all tables; then the chain rule through the constant
    # gradients of L, term by term in a fixed order
    combt = np.ascontiguousarray(comb.transpose(0, 2, 1))  # (nel, 12, 9)
    d = np.matmul(tables[None], combt).reshape(nel, 10, npts, 9)
    pairs = [(l, m) for l in range(3) for m in range(l, 3)]
    sym = np.array([1.0 if l == m else 2.0 for l, m in pairs])
    l_, m_ = np.array(pairs).T
    cross = gx[:, l_] * gy[:, m_]
    off = l_ != m_
    cross[:, off] += gx[:, m_[off]] * gy[:, l_[off]]
    second = d[:, 4:]
    bending = (d[:, 0],
               np.einsum("el,elpi->epi", gx, d[:, 1:4]),
               np.einsum("el,elpi->epi", gy, d[:, 1:4]),
               np.einsum("et,etpi->epi", sym * gx[:, l_] * gx[:, m_], second),
               np.einsum("et,etpi->epi", sym * gy[:, l_] * gy[:, m_], second),
               np.einsum("et,etpi->epi", cross, second))

    slots = np.empty((nel, npts, 6, 12))
    for h, values in enumerate(bending):
        slots[:, :, h, :9] = values
    slots[:, :, 0, 9:] = quad.points
    slots[:, :, 1, 9:] = gx[:, None, :]
    slots[:, :, 2, 9:] = gy[:, None, :]
    slots[:, :, 3:, 9:] = 0.0
    return slots, area


def _entrywise(scale):
    """(12, f * 12) map taking a row of 12 DOF values v to scale[f, j] v[j].

    Each output column has a single nonzero coefficient, so its matmul is
    one exact product per entry.
    """
    out = np.zeros((12, len(scale), 12))
    out[np.arange(12), :, np.arange(12)] = scale.T
    return out.reshape(12, -1)


def _slot_contraction(coef):
    """(k * 12, f * 12) map of slot-major DOF rows through coef[k, f, j].

    Output column (f, j) sums coef[k, f, j] times slot k of DOF j over k in
    ascending order, one term per slot.
    """
    k, f, _ = coef.shape
    out = np.zeros((k, 12, f, 12))
    for j in range(12):
        out[:, j, :, j] = coef[:, :, j]
    return out.reshape(k * 12, f * 12)


def _local_matrix_batch(slots, area, mat, quad):
    """Local K2, K1, K0 (nel, 12, 12), DOFs in ``_FIELD_ORDER``.

    Every DOF lives in one field, so the two-field shape matrix N of slot h
    is the slot's values spread over the field rows; N_eps = sum_h H_h N_h
    and core @ N are then small structured matmuls of the slot rows, and
    each form is one batched matmul over the points (and strain rows, for an
    N_eps test side). Sums run over slots, points and fields in ascending
    order; terms that are zero by the field structure are left out.
    """
    nel, npts = slots.shape[:2]
    rows = slots.reshape(nel * npts, -1)

    def slot(h):
        return rows[:, 12 * h:12 * h + 12]

    eps = rows @ _slot_contraction(mat.H[:, :, _FIELD])
    n, n1, n2, neps = range(4)

    l_n = mat.network.inductance
    w_u = np.diag([1.0, l_n])
    w_eps = np.diag([1.0, 1.0, 1.0, l_n, l_n])
    w = quad.weights[None, :, None]

    def bilin(test, core, trial):
        # integral of (W test)^T core trial; output rows are test DOFs
        f = len(core)
        if trial == neps:
            tb = eps @ _slot_contraction(np.repeat(core.T[:, :, None], 12, 2))
        else:
            tb = slot(trial) @ _entrywise(core[:, _FIELD])
        tb = tb.reshape(nel, npts, f * 12)
        tb *= w
        if test == neps:
            lhs = eps.reshape(nel, npts * 5, 12).transpose(0, 2, 1)
            out = np.matmul(lhs, tb.reshape(nel, npts * f, 12))
        else:
            # a DOF's N row is its slot value in its own field's row only
            v = slot(test).reshape(nel, npts, 12).transpose(0, 2, 1)
            tb = tb.reshape(nel, npts, f, 12)
            out = np.empty((nel, 12, 12))
            out[:, :9] = np.matmul(v[:, :9], tb[:, :, 0])
            out[:, 9:] = np.matmul(v[:, 9:], tb[:, :, 1])
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
    """Local K2, K1, K0 (12x12) for one triangle.

    ``geom`` is a :class:`~pemplate.element.TriangleGeometry`; its mu values
    are honored even when they disagree with the vertex coordinates, so tests
    can probe deliberately corrupted elements. A single element is too small
    for BLAS's regular kernels, so the entries can differ from the
    assembled ones in the last bit.
    """
    if quad is None:
        quad = el.triangle_quadrature(QUADRATURE_DEGREE)
    coords = np.stack([geom.x, geom.y], axis=1)[None, :, :]
    slots, area = _chunk_slots(coords, quad, _monomial_tables(quad),
                               geom.mu[None, :])
    back = np.argsort(_FIELD_ORDER)
    k2, k1, k0 = (k[0][np.ix_(back, back)]
                  for k in _local_matrix_batch(slots, area, mat, quad))
    return LocalMatrices(k2=k2, k1=k1, k0=k0)


@dataclass(frozen=True)
class _ScatterPlan:
    """Element entries -> free-DOF CSR, summed in scipy's COO -> CSR order.

    Runs of entries that meet in one matrix position are summed left to
    right, the i-th addend of every run of length > i at once: ``gather[i]``
    holds those addends' element-entry indices for the ``gather[i]``-long
    head of the runs ordered by decreasing length, and ``position`` puts each
    run's sum at its CSR slot.
    """

    indptr: np.ndarray
    indices: np.ndarray
    gather: tuple
    position: np.ndarray
    n_free: int

    def collect(self, entries):
        total = entries[self.gather[0]]
        for idx in self.gather[1:]:
            total[:len(idx)] += entries[idx]
        data = np.empty_like(total)
        data[self.position] = total
        return sp.csr_matrix((data, self.indices, self.indptr),
                             shape=(self.n_free, self.n_free))


def _scatter_plan(mesh, dof_map):
    """The CSR pattern of the free-DOF system and how to sum into it.

    The summation order is the one ``coo_matrix.tocsr`` gives the full
    matrix (a stable bucket sort by row, then scipy's sort of each row by
    column, then left-to-right sums of equal columns), so the sums are the
    same to the last bit as assembling the full matrix and slicing out the
    free DOFs.
    """
    n_full = dof_map.n_full
    gdofs = (DOFS_PER_NODE * mesh.triangles[:, :, None]
             + np.arange(DOFS_PER_NODE, dtype=mesh.triangles.dtype)).ravel()
    # COO entry (e, i, j) sits at (gdofs[12 e + i], gdofs[12 e + j]) in the
    # order e, i, j; bucketing by row keeps the order of appearance
    incidence = np.argsort(gdofs, kind="stable")
    indptr = np.zeros(n_full + 1, dtype=np.int32)
    np.cumsum(12 * np.bincount(gdofs, minlength=n_full), out=indptr[1:])
    cols = gdofs.reshape(-1, 12)[incidence // 12].ravel()
    # tag each entry with its index in the element matrices, whose DOFs are
    # stored in _FIELD_ORDER
    pos = np.argsort(_FIELD_ORDER)
    row_start = 12.0 * (incidence - incidence % 12 + pos[incidence % 12])
    tags = (row_start[:, None] + pos).ravel()
    full = sp.csr_matrix((tags, cols.astype(np.int32), indptr),
                         shape=(n_full, n_full))
    full.sort_indices()
    entry = full.data.astype(np.int64)
    col = full.indices

    new_run = np.empty(len(col), dtype=bool)
    new_run[0] = True
    np.not_equal(col[1:], col[:-1], out=new_run[1:])
    new_run[indptr[1:-1]] = True
    first = np.flatnonzero(new_run)
    length = np.diff(np.r_[first, len(col)])
    row = np.repeat(np.arange(n_full), np.diff(indptr))
    free_row = dof_map.full_to_free[row[first]]
    free_col = dof_map.full_to_free[col[first]]
    keep = (free_row >= 0) & (free_col >= 0)
    first, length = first[keep], length[keep]
    free_row, free_col = free_row[keep], free_col[keep]

    n_free = dof_map.n_free
    out_ptr = np.zeros(n_free + 1, dtype=np.int32)
    np.cumsum(np.bincount(free_row, minlength=n_free), out=out_ptr[1:])
    by_length = np.argsort(-length.astype(np.int16), kind="stable")
    first, length = first[by_length], length[by_length]
    depth = length[0] if len(length) else 1
    # int32 (entry indices stay below 144 n_triangles): a run keeps its
    # plan for as long as it keeps its systems
    gather = tuple(entry[first[length > i] + i].astype(np.int32)
                   for i in range(depth))
    return _ScatterPlan(indptr=out_ptr, indices=free_col.astype(np.int32),
                        gather=gather, position=by_length.astype(np.int32),
                        n_free=n_free)


class AssemblyWorkspace:
    """Reuses the mesh-dependent stages of assembly across repeated calls.

    One workspace serves one mesh: it keeps the free-DOF sparsity pattern
    and summation plan of each boundary-condition set, so a repeated
    assembly only computes the local matrices. The CLI keeps one per run
    (:class:`pemplate.cli.Run`), shared by every network that run assembles.
    """

    def __init__(self):
        self._mesh = None
        self._plans = {}

    def scatter_plan(self, mesh, bcs, dof_map):
        if self._mesh is None:
            self._mesh = mesh
        elif mesh is not self._mesh:
            raise ValidationError("an AssemblyWorkspace serves a single mesh")
        key = tuple(bcs)
        if key not in self._plans:
            self._plans[key] = _scatter_plan(mesh, dof_map)
        return self._plans[key]


def assemble(mesh, mat, bcs=(), workspace=None):
    """Assemble the global system and eliminate constrained DOFs.

    Pass an :class:`AssemblyWorkspace` to reuse the sparsity pattern across
    repeated assemblies of the same mesh.
    """
    quad = el.triangle_quadrature(QUADRATURE_DEGREE)
    dof_map = build_dof_map(mesh, bcs)
    if workspace is None:
        workspace = AssemblyWorkspace()
    plan = workspace.scatter_plan(mesh, bcs, dof_map)

    tables = _monomial_tables(quad)
    entries = np.empty((3, mesh.n_triangles, 12, 12))
    # near-equal batches: a much smaller last batch would go through BLAS's
    # small-matrix kernels, which need not add products in index order
    n_batches = -(-mesh.n_triangles // _CHUNK)
    edges = np.linspace(0, mesh.n_triangles, n_batches + 1).round().astype(int)
    for start, stop in zip(edges[:-1], edges[1:]):
        coords = mesh.nodes[mesh.triangles[start:stop]]
        slots, area = _chunk_slots(coords, quad, tables)
        entries[:, start:stop] = _local_matrix_batch(slots, area, mat, quad)
    k2, k1, k0 = (plan.collect(e.ravel()) for e in entries)
    return AssembledSystem(k2=k2, k1=k1, k0=k0, dof_map=dof_map, mesh=mesh,
                           material=mat)


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
        n_full = DOFS_PER_NODE * mesh.n_nodes
        k0 = np.zeros((n_full, n_full))
        for tri in mesh.triangles:
            geom = el.triangle_geometry(mesh.nodes[tri])
            geom = replace(geom, mu=-geom.mu)
            loc = local_matrices(geom, mat)
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
