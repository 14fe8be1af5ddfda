"""Local element matrices, global assembly and boundary-condition reduction.

The element contribution integrates the weak-problem matrices against the
two-field shape matrix N (bending row, electric row) and the generalized
strain interpolation N_eps built from the compatibility selectors:

    K2e = -( <G N, N> + <G_B N_x, N_x> + <G_B N_y, N_y> )
    K1e = -( <S N, N> + <V N_eps, N> - <C N, N_eps> )
    K0e = -( <T N, N> - <E N_eps, N_eps> - <R N, N_eps> )

The leading minus signs move the (negative-definite) inertia terms to the
left-hand side so the assembled K2 is positive definite. Test rows of the
electric field are weighted by the net inductance L_N: the electric test
descriptor enters the power balance through the network branch relation, and
this constant row weight is exactly what makes the conservative coupling
blocks skew (B_me = -B_em^T) and the quadratic-form energies conserved.

Integration uses the one cyclically symmetric rule of
:func:`pemplate.element.triangle_quadrature`, exact for all the (at most
degree 8) polynomial integrands, so the only discretization error left is
the non-conformity of the bending element.

The element stage works on the derivative slots h = (1, x, y, xx, yy, xy)
of the local shape functions at the quadrature points. Every local DOF
belongs to one field, so N_eps = sum_h H_h N_h and core @ N are matmuls of
the slot rows with structured matrices that hold one nonzero per output
entry and summed slot, and each form is a batched matmul over the points.
Every sum runs in a fixed index order and leaves out only terms that are
zero by the field structure. BLAS kernels that add each product in index
order (OpenBLAS's do, except its small-matrix kernels, which the batch size
keeps out of the way) therefore give the same matrices, to the last bit, as
the plain padded two-field evaluation, whatever the batching. So
triangles whose geometry (b, c, area, mu) agrees bit for bit have bit-equal
local matrices, and each assembly pass computes them once per distinct
geometry: a crossed square on a dyadic grid (side 1.0, n a power of 2) has
4, whatever n, and a mesh of all-distinct triangles computes every one.
``assemble`` makes one pass for K2 and K0; K1, which the modal analysis
never reads, gets its own pass on its first read. (So few
geometries make a batch small enough for BLAS's small-matrix kernels where
it has any; OpenBLAS's Haswell kernels give the same bits down to a single
geometry.) Each triangle's entries are read from its geometry's local
matrices, with no per-triangle copy, and summed straight into the free-DOF
CSR pattern, in the order in which converting the full COO matrix to CSR
would add them.
Last bits matter here: the eigenvalues of the ill-conditioned bending
pencil amplify a last-bit change of the matrices to ~1e-9 relative.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from . import element as el
from .errors import NumericalError, ValidationError
from .mesh import Mesh

DOFS_PER_NODE = 4  # (w, theta_x, theta_y, alpha)
ELEC_COMPONENT = 3

_BC_COMPONENTS = {
    "simply_supported": (0,),
    "clamped": (0, 1, 2),
    "grounded": (3,),
    "free": (),
}

# geometries per batch. A batch's temporaries cost ~0.15 MiB per geometry:
# at 32, clamped-demo's warm assembly (186 geometries, 6 batches) peaks at
# 5.7 MiB traced, against 10.7 MiB at 64, in the same time and with the
# same K bits (also at 16 and 8)
_CHUNK = 32

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
            groups = ", ".join(map(repr, sorted(mesh.edge_groups))) or "none"
            raise ValidationError(
                f"boundary condition references unknown edge group "
                f"'{bc.group}' (the mesh's groups: {groups})"
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


# the material blocks each matrix is formed from
_MATRIX_BLOCKS = {"k2": ("G", "G_B"), "k1": ("S", "V", "C"),
                  "k0": ("T", "E", "R")}


@dataclass(frozen=True)
class AssembledSystem:
    """Reduced global system K2 q'' + K1 q' + K0 q = 0 on the free DOFs.

    K2 and K0 are summed when the system is made. K1, which only the
    coupling table and the reduced dynamics read, is summed by one more
    pass over ``plan`` on the first read of ``k1``, and kept.

    Its stored entries are finite: one that is not raises a NumericalError
    where its matrix is summed, naming the matrix, its material blocks'
    sizes and the mesh's span, since their products overflow, not either
    alone."""

    k2: sp.csr_matrix
    k0: sp.csr_matrix
    plan: ScatterPlan
    material: object

    def __post_init__(self):
        self._check_finite("k2", self.k2)
        self._check_finite("k0", self.k0)

    def _check_finite(self, name, m):
        if not np.isfinite(m.data).all():
            sizes = ", ".join(
                f"max |{b}| = {np.abs(getattr(self.material, b)).max():.3g}"
                for b in _MATRIX_BLOCKS[name])
            dx, dy = np.ptp(self.mesh.nodes, axis=0)
            raise NumericalError(
                f"non-finite {name.upper()} entries: the material's magnitudes "
                f"({sizes}) on a mesh spanning {dx:.3g} x {dy:.3g} "
                "overflow float64; rescale the material parameters or "
                "the mesh"
            )

    @cached_property
    def k1(self):
        k1, = _sum_matrices(self.plan, self.material, ("k1",))
        self._check_finite("k1", k1)
        return k1

    @property
    def mesh(self):
        return self.plan.mesh

    @property
    def dof_map(self):
        return self.plan.dof_map

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


def _chunk_slots(geom, quad, tables):
    """Derivative slots of the local shape functions over one element chunk.

    ``geom`` is the :class:`~pemplate.element.TriangleGeometry` of a stack of
    nel triangles. Returns ``slots`` of shape (nel, npts, 6, 12): slot
    h = (1, x, y, xx, yy, xy) of the shape function of each local DOF (in
    ``_FIELD_ORDER``) at the quadrature points.
    """
    nel = len(geom.area)
    npts = len(quad.points)
    b, c, area = geom.b, geom.c, geom.area

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
    return slots


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


def _local_matrix_batch(slots, area, mat, quad, names=("k2", "k1", "k0")):
    """The local matrices ``names`` (nel, 12, 12), DOFs in ``_FIELD_ORDER``.

    Every DOF lives in one field, so the two-field shape matrix N of slot h
    is the slot's values spread over the field rows; N_eps = sum_h H_h N_h
    and core @ N are then small structured matmuls of the slot rows, and
    each form is one batched matmul over the points (and strain rows, for an
    N_eps test side). Sums run over slots, points and fields in ascending
    order; terms that are zero by the field structure are left out, and so
    are forms whose core matrix is zero.
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
        if not core.any():
            # e.g. the resistive blocks at R_N = G_N = 0: every sum below
            # would add only zero products, which BLAS sums to +0
            return np.zeros((nel, 12, 12))
        f = len(core)
        if trial == neps:
            tb = eps @ _slot_contraction(np.repeat(core.T[:, :, None], 12, 2))
        else:
            tb = slot(trial) @ _slot_contraction(core[None, :, _FIELD])
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

    forms = {
        "k2": lambda: -(bilin(n, w_u @ mat.G, n)
                        + bilin(n1, w_u @ mat.G_B, n1)
                        + bilin(n2, w_u @ mat.G_B, n2)),
        "k1": lambda: -(bilin(n, w_u @ mat.S, n)
                        + bilin(n, w_u @ mat.V, neps)
                        - bilin(neps, w_eps @ mat.C, n)),
        "k0": lambda: -(bilin(n, w_u @ mat.T, n)
                        - bilin(neps, w_eps @ mat.E, neps)
                        - bilin(neps, w_eps @ mat.R, n)),
    }
    return tuple(forms[name]() for name in names)


def local_matrices(geom, mat):
    """Local K2, K1, K0 (nel, 12, 12) of a stack of triangles.

    ``geom`` is the :class:`~pemplate.element.TriangleGeometry` of the stack;
    its mu values are honored even when they disagree with the vertices, so
    tests can probe deliberately corrupted elements. A stack too small for
    BLAS's regular kernels can differ from the assembled entries in the last
    bit.
    """
    quad = el.triangle_quadrature()
    slots = _chunk_slots(geom, quad, _monomial_tables(quad))
    back = np.argsort(_FIELD_ORDER)
    k2, k1, k0 = (k[:, back][:, :, back]
                  for k in _local_matrix_batch(slots, geom.area, mat, quad))
    return LocalMatrices(k2=k2, k1=k1, k0=k0)


@dataclass(frozen=True)
class ScatterPlan:
    """How one mesh's element entries sum into its free-DOF CSR under one
    boundary-condition set, in scipy's COO -> CSR order.

    ``first`` holds one triangle of each bit-distinct geometry; the entries
    summed are those of the local matrices of these triangles, in this order.
    Runs of entries that meet in one matrix position are summed left to
    right, the i-th addend of every run of length > i at once: ``gather[i]``
    holds those addends' indices in the distinct local matrices for the
    ``gather[i]``-long head of the runs ordered by decreasing length, and
    ``position`` puts each run's sum at its CSR slot.

    ``gather`` holds the smallest unsigned type that indexes every entry of
    the distinct local matrices (uint16 up to 455 distinct geometries, as
    on a crossed dyadic square or the bundled L-shape; uint32 beyond);
    ``indptr``, ``indices`` and ``position`` are int32. The build sorts
    int32 entry tags with int32 columns: scipy sorts each CSR row by column
    alone, so the tags' type moves no entry, and the plan is the one that
    float64 tags and int64 keys give.
    """

    mesh: Mesh
    bcs: tuple
    dof_map: DofMap
    first: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    gather: tuple
    position: np.ndarray

    def collect(self, entries):
        total = entries[self.gather[0]]
        for idx in self.gather[1:]:
            total[:len(idx)] += entries[idx]
        data = np.empty_like(total)
        data[self.position] = total
        n_free = self.dof_map.n_free
        return sp.csr_matrix((data, self.indices, self.indptr),
                             shape=(n_free, n_free))


def scatter_plan(mesh, bcs, dof_map):
    """The plan of ``mesh`` under ``bcs``, whose DOF map is ``dof_map``: the
    distinct geometries, the CSR pattern of the free-DOF system and how to
    sum into it.

    The summation order is the one ``coo_matrix.tocsr`` gives the full
    matrix (a stable bucket sort by row, then scipy's sort of each row by
    column, then left-to-right sums of equal columns), so the sums are the
    same to the last bit as assembling the full matrix and slicing out the
    free DOFs.
    """
    # triangles whose (b, c, area, mu) agree bit for bit have bit-equal
    # local matrices: each element entry is read from its geometry's first
    # triangle. Keys are bit patterns, not values, so -0.0 and +0.0 stay
    # apart.
    geom = el.triangle_geometry(mesh.nodes[mesh.triangles])
    keys = np.column_stack([geom.b, geom.c, geom.area, geom.mu])
    _, distinct, inverse = np.unique(keys.view(np.int64), axis=0,
                                     return_index=True, return_inverse=True)
    del geom, keys
    # the whole-COO temporaries are int32 (the CSR indices already bound
    # the DOF count, and an entry index is below 144 n_triangles), and each
    # goes once it has been read
    n_full = dof_map.n_full
    gdofs = (DOFS_PER_NODE * mesh.triangles[:, :, None]
             + np.arange(DOFS_PER_NODE)).astype(np.int32).ravel()
    # COO entry (e, i, j) sits at (gdofs[12 e + i], gdofs[12 e + j]) in the
    # order e, i, j; bucketing by row keeps the order of appearance
    incidence = np.argsort(gdofs, kind="stable")
    indptr = np.zeros(n_full + 1, dtype=np.int32)
    np.cumsum(12 * np.bincount(gdofs, minlength=n_full), out=indptr[1:])
    col = gdofs.reshape(-1, 12)[incidence // 12].ravel()
    # tag each entry with its index in the local matrices of its triangle's
    # distinct geometry, whose DOFs are stored in _FIELD_ORDER
    pos = np.argsort(_FIELD_ORDER).astype(np.int32)
    row_start = 12 * (12 * inverse.astype(np.int32)[incidence // 12]
                      + pos[incidence % 12])
    del gdofs, incidence
    entry = (row_start[:, None] + pos).ravel()
    del row_start
    # sorts each row of ``col`` by column, and ``entry`` with it, in place
    sp.csr_matrix((entry, col, indptr), shape=(n_full, n_full)).sort_indices()

    new_run = np.empty(len(col), dtype=bool)
    new_run[0] = True
    np.not_equal(col[1:], col[:-1], out=new_run[1:])
    new_run[indptr[1:-1]] = True
    first = np.flatnonzero(new_run).astype(np.int32)
    del new_run
    length = np.diff(first, append=np.int32(len(col)))
    free_col = dof_map.full_to_free[col[first]]
    del col
    free_row = dof_map.full_to_free[np.searchsorted(indptr, first, "right") - 1]
    keep = (free_row >= 0) & (free_col >= 0)
    first, length = first[keep], length[keep]
    free_row, free_col = free_row[keep], free_col[keep]

    n_free = dof_map.n_free
    out_ptr = np.zeros(n_free + 1, dtype=np.int32)
    np.cumsum(np.bincount(free_row, minlength=n_free), out=out_ptr[1:])
    del free_row
    by_length = np.argsort(-length.astype(np.int16), kind="stable")
    first, length = first[by_length], length[by_length]
    depth = length[0] if len(length) else 1
    # the smallest index type: a run keeps its plan as long as its systems
    index_type = np.min_scalar_type(144 * len(distinct) - 1)
    gather = tuple(entry[first[length > i] + i].astype(index_type)
                   for i in range(depth))
    return ScatterPlan(mesh=mesh, bcs=tuple(bcs), dof_map=dof_map,
                       first=distinct, indptr=out_ptr,
                       indices=free_col.astype(np.int32), gather=gather,
                       position=by_length.astype(np.int32))


def _sum_matrices(plan, mat, names):
    """The free-DOF CSR matrices ``names`` of ``mat`` on ``plan``'s mesh:
    one pass over its distinct geometries, in near-equal batches of at most
    ``_CHUNK``, and ``plan.collect``'s sums. Each matrix's forms are
    computed on their own, so a pass gives the same bits whatever else it
    sums."""
    quad = el.triangle_quadrature()
    mesh, first = plan.mesh, plan.first
    tables = _monomial_tables(quad)
    local = np.empty((len(names), len(first), 12, 12))
    # near-equal batches: a much smaller last batch would go through BLAS's
    # small-matrix kernels, which need not add products in index order
    n_batches = -(-len(first) // _CHUNK)
    edges = np.linspace(0, len(first), n_batches + 1).round().astype(int)
    # an overflowing material is reported by AssembledSystem, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for part in map(slice, edges[:-1], edges[1:]):
            chunk = el.triangle_geometry(mesh.nodes[mesh.triangles[first[part]]])
            slots = _chunk_slots(chunk, quad, tables)
            local[:, part] = _local_matrix_batch(slots, chunk.area, mat, quad,
                                                 names)
        return tuple(plan.collect(m.ravel()) for m in local)


def assemble(mesh, mat, bcs=(), workspace=None):
    """Assemble the global system and eliminate constrained DOFs: K2 and K0
    here, K1 on its first read (:class:`AssembledSystem`).

    ``workspace`` is the :class:`ScatterPlan` of ``mesh`` under ``bcs``, for
    callers that assemble several materials on one mesh (the CLI builds one
    per run); without one, the plan is built here; the system keeps it,
    for K1. A plan of another mesh or other boundary conditions raises
    ``ValidationError``. Raises ``NumericalError`` when the material's
    magnitudes on the mesh's lengths overflow K2 or K0 (K1: its first read).
    """
    plan = workspace
    if plan is None:
        plan = scatter_plan(mesh, bcs, build_dof_map(mesh, bcs))
    elif plan.mesh is not mesh or plan.bcs != tuple(bcs):
        raise ValidationError("a scatter plan serves the mesh and the boundary "
                              "conditions it was built for")
    k2, k0 = _sum_matrices(plan, mat, ("k2", "k0"))
    return AssembledSystem(k2=k2, k0=k0, plan=plan, material=mat)


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

    # the patch has no constraints: K0 spans every DOF of the mesh
    n_full = DOFS_PER_NODE * mesh.n_nodes
    k0 = np.zeros((n_full, n_full))
    geom = el.triangle_geometry(mesh.nodes[mesh.triangles])
    if corrupt_mu:
        geom = replace(geom, mu=-geom.mu)
    for tri, local in zip(mesh.triangles, local_matrices(geom, mat).k0):
        g = (DOFS_PER_NODE * tri[:, None] + np.arange(4)[None, :]).ravel()
        k0[np.ix_(g, g)] += local

    # bending DOFs only: columns (w, tx, ty) of every node
    comp = np.arange(n_full) % DOFS_PER_NODE
    node = np.arange(n_full) // DOFS_PER_NODE
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
