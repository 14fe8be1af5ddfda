"""Undamped modal analysis, truncated projection, coupling tables and tuning.

The modal basis neglects the first-order matrix K1, so the conservative
eigenproblem K0 a = omega^2 K2 a decouples into the pure bending and pure
electric families: K0 and K2 of the conservative network (R_N = G_N = 0)
are block-diagonal across the two fields. Every mode is solved in one family
and is field-pure; the retained basis is the merge of the two family solves.
Eigenvectors are K2-orthonormal; the reduced model follows by projecting all
three matrices (and the symmetric part of K0, for the energies) on the
retained rows. Field-pure vectors make each family's energy form the family
block of a reduced matrix. One conservative reduction serves every R_N and
G_N: they only scale blocks it holds (:func:`.dynamics.resistance_family`).

One rule settles every tie: :func:`_clusters` groups frequencies closer
than ``CLUSTER_RELATIVE_GAP``. Inside a family's cluster the eigenvectors
are fixed only as a subspace, so the basis is rotated to diagonalize a fixed
anisotropic node-coordinate moment and each vector's first significant
component is made positive (see :func:`_orient_modes`). Inside a cluster of
the merged basis (a tuned mechanical/electric pair) the mechanical mode comes
first, whatever the round-off order of the two frequencies.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as sla

from .blas import scipy_blas_single_thread
from .errors import NumericalError, ValidationError

CLUSTER_RELATIVE_GAP = 1e-6
_DENSE_LIMIT = 2600


@dataclass(frozen=True)
class ModeSet:
    """Sorted eigenpairs of the undamped problem.

    ``vectors`` holds one K2-orthonormal, field-pure eigenvector per column
    in the free-DOF numbering; ``labels`` names the family ("mechanical" or
    "electric") each mode was solved in.
    """

    omegas: np.ndarray
    vectors: np.ndarray
    labels: tuple

    @property
    def n_modes(self):
        return len(self.omegas)

    def mechanical_indices(self):
        return [i for i, lab in enumerate(self.labels) if lab == "mechanical"]

    def electric_indices(self):
        return [i for i, lab in enumerate(self.labels) if lab == "electric"]


def _solve_pencil(k0, k2, n):
    """Smallest-n eigenpairs of K0 a = w^2 K2 a with K2-orthonormal vectors.

    ``k0`` and ``k2`` are CSC; a pencil of at most ``_DENSE_LIMIT`` rows is
    solved dense, a larger one by shift-invert Lanczos. The dense solve
    holds exactly two n x n arrays, built in Fortran order and factored and
    reduced in place by LAPACK's ``dsygvx`` (~40 MB at 1,571 rows, ~108 MB
    at ``_DENSE_LIMIT``); it keeps scipy's default thread count, which
    speeds it up. Its second thread sleeps within about 0.5 ms of its last
    call (``OPENBLAS_THREAD_TIMEOUT``, set by :mod:`pemplate.cli`): over a
    paper-square run that thread's CPU fell from 0.59 s to 0.31 s, the
    solves' own work, and their wall time did not change. Neither solve
    checks for inf or nan: the entries of ``k0`` and ``k2`` must be finite,
    as those of an :class:`~.assembly.AssembledSystem` are. The Lanczos solve
    runs with scipy's OpenBLAS on one thread (:mod:`pemplate.blas`): a
    second thread gains nothing in its level-1/2 calls and triangular
    solves, and one thread makes its result independent of the thread
    count.
    """
    size = k0.shape[0]
    if size <= _DENSE_LIMIT:
        # eigh factors K2 itself and fails when it is not positive definite;
        # Fortran-ordered blocks are what LAPACK takes without a copy
        try:
            vals, vecs = sla.eigh(k0.toarray(order="F"), k2.toarray(order="F"),
                                  subset_by_index=[0, n - 1],
                                  overwrite_a=True, overwrite_b=True,
                                  check_finite=False)
        except np.linalg.LinAlgError:
            raise NumericalError(
                "K2 is not positive definite; check boundary conditions and "
                "material parameters"
            ) from None
        # an underflowed or overflowed pencil can have none in range
        if len(vals) < n:
            raise NumericalError(
                f"the dense eigensolve returned {len(vals)} of the {n} lowest "
                "eigenpairs; check the material parameters")
    else:
        # imported here: it takes 15-24 ms, and dense-only runs never use it
        import scipy.sparse.linalg as spla

        v0 = np.ones(size)
        try:
            with scipy_blas_single_thread():
                vals, vecs = spla.eigsh(k0, k=n, M=k2, sigma=0.0, which="LM",
                                        v0=v0)
        except RuntimeError as exc:
            raise NumericalError(f"sparse eigensolve failed: {exc}") from None
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
        # enforce K2-orthonormality (ARPACK returns it only approximately);
        # the Ritz Gram fails to factor exactly when K2 is not definite
        gram = vecs.T @ (k2 @ vecs)
        try:
            chol = np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            raise NumericalError(
                "K2 is not positive definite (Ritz Gram matrix of the sparse "
                "eigensolve); check boundary conditions and material "
                "parameters"
            ) from None
        vecs = vecs @ np.linalg.inv(chol.T)
    if vals[0] <= 0:
        raise NumericalError(
            f"smallest eigenvalue {vals[0]:g} is not positive; K0 appears "
            "singular or indefinite (missing constraints?)"
        )
    return np.sqrt(vals), vecs


def most_modes(size):
    """The most modes a family of ``size`` DOFs gives: all of them when it is
    solved dense, one fewer by shift-invert Lanczos, which needs k < N."""
    return size if size <= _DENSE_LIMIT else size - 1


def _clusters(omegas):
    groups = [[0]]
    for i in range(1, len(omegas)):
        if omegas[i] - omegas[i - 1] <= CLUSTER_RELATIVE_GAP * max(omegas[i], 1e-300):
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def _orient_modes(omegas, vectors, dof_map, mesh):
    """Deterministic orientation of every cluster and sign.

    A cluster's eigenvectors are fixed only as a subspace; the node-moment
    rotation picks one basis of it that does not depend on the solver's.
    """
    # weight each free DOF by x^2 - y^2 of its node: an anisotropic moment
    # whose restriction separates the (m, n)/(n, m) pairs of symmetric
    # domains (the orthogonality of the 1-D factors kills the cross terms,
    # and the diagonal gap is antisymmetric under the x/y swap)
    moment = (mesh.nodes[dof_map.free_nodes, 0] ** 2
              - mesh.nodes[dof_map.free_nodes, 1] ** 2)
    for group in _clusters(omegas):
        if len(group) < 2:
            continue
        block = vectors[:, group]
        c = block.T @ (block * moment[:, None])
        _, q = np.linalg.eigh(0.5 * (c + c.T))
        vectors[:, group] = block @ q
    # deterministic sign: first significant component positive
    for i in range(vectors.shape[1]):
        v = vectors[:, i]
        nz = np.flatnonzero(np.abs(v) > 1e-8 * np.abs(v).max())
        if len(nz) and v[nz[0]] < 0:
            vectors[:, i] = -v
    return vectors


def _mode_set(sys, family, omegas, vectors):
    vectors = _orient_modes(omegas, vectors, sys.dof_map, sys.mesh)
    omegas.setflags(write=False)
    vectors.setflags(write=False)
    return ModeSet(omegas=omegas, vectors=vectors,
                   labels=(family,) * len(omegas))


def solve_family_modes(sys, family, n):
    """Eigenpairs of one decoupled field family, embedded in the free space.

    ``family`` is "mechanical" (the other field held to zero) or "electric".
    The pencil is the family's diagonal field blocks of K0 and K2, read as
    the system holds them: CSC, the form the sparse solve factors.
    """
    field = {"mechanical": "m", "electric": "e"}[family]
    idx = sys.dof_map.field_dofs[field]
    most = most_modes(len(idx))
    if not 1 <= n <= most:
        raise ValidationError(
            f"retained mode count {n} out of range 1..{most} for {family}")
    try:
        omegas, sub = _solve_pencil(sys.k0_blocks.block(2 * field),
                                    sys.k2_blocks.block(2 * field), n)
    except NumericalError as exc:
        raise type(exc)(f"{family} family solve: {exc}") from None
    vectors = np.zeros((sys.n_free, n))
    vectors[idx] = sub
    return _mode_set(sys, family, omegas, vectors)


def build_modal_basis(mech, elec):
    """Family-balanced retained basis: the merge of two family mode sets.

    ``mech`` and ``elec`` are :func:`solve_family_modes` results of the same
    system (8 + 8 modes match the reporting depth of the benchmark tables).
    The merged set is sorted by frequency cluster (:func:`_clusters`), with
    mechanical modes first inside a cluster, then by frequency: a tuned pair
    agrees to round-off, which must not decide its order.
    """
    n_mech, n_elec = mech.n_modes, elec.n_modes
    omegas = np.concatenate([mech.omegas, elec.omegas])
    family = np.concatenate([np.zeros(n_mech, dtype=int), np.ones(n_elec, dtype=int)])
    vectors = np.concatenate([mech.vectors, elec.vectors], axis=1)
    labels = mech.labels + elec.labels
    by_omega = np.argsort(omegas, kind="stable")
    cluster = np.empty(len(omegas), dtype=int)
    for k, group in enumerate(_clusters(omegas[by_omega])):
        cluster[by_omega[group]] = k
    order = np.lexsort((omegas, family, cluster))
    omegas = omegas[order]
    omegas.setflags(write=False)
    vectors = vectors[:, order]
    vectors.setflags(write=False)
    return ModeSet(omegas=omegas, vectors=vectors,
                   labels=tuple(labels[i] for i in order))


@dataclass(frozen=True)
class ReducedSystem:
    """Projection of the assembled system on a retained modal basis.

    ``k2red`` is the identity whenever the basis rows are K2-orthonormal and
    the projected system is the one the basis was built from. ``k0sym``
    projects the symmetric part of K0: its family blocks, with those of
    ``k2red``, are the per-family energy forms (``modes.labels`` names each
    row's family). ``cross_ratio`` is R_N / L_N, the coefficient of the
    capacitor cross-energy.
    """

    k2red: np.ndarray
    k1red: np.ndarray
    k0red: np.ndarray
    k0sym: np.ndarray
    modes: ModeSet
    cross_ratio: float

    @property
    def n_modes(self):
        return len(self.k2red)


def reduce(sys, modes):
    """Project K2, K1, K0 and K0's symmetric part on the retained rows
    (Galerkin reduction).

    Each K V is formed from the field blocks (``FieldBlocks.dot``) into a
    C-ordered array, the layout of a sparse product's result, so that
    ``V.T @ (K V)`` takes the same BLAS path; on a field-pure basis the
    products have the bits of the full matrices'."""
    if modes.vectors.shape[0] != sys.n_free:
        raise ValidationError(
            f"mode basis has {modes.vectors.shape[0]} rows, system has "
            f"{sys.n_free} free DOFs"
        )
    v = modes.vectors
    k0 = sys.k0_blocks
    net = sys.material.network
    return ReducedSystem(
        k2red=v.T @ sys.k2_blocks.dot(v), k1red=v.T @ sys.k1_blocks.dot(v),
        k0red=v.T @ k0.dot(v), k0sym=v.T @ k0.symmetric().dot(v),
        modes=modes, cross_ratio=net.resistance / net.inductance,
    )


@dataclass(frozen=True)
class CouplingTable:
    """Modal coupling magnitudes |phi_e^T B phi_m| (raw and max-normalized)."""

    raw: np.ndarray
    normalized: np.ndarray


def coupling_table(mech_modes, elec_modes, sys):
    """Coupling of decoupled electric modes (rows) vs mechanical modes (cols).

    B is the mechanical-to-electric block of K1; with field-pure embedded
    eigenvectors the product phi_e^T K1 phi_m picks exactly that block.
    """
    raw = np.abs(elec_modes.vectors.T @ sys.k1_blocks.dot(mech_modes.vectors))
    peak = raw.max()
    normalized = raw / peak if peak > 0 else raw.copy()
    return CouplingTable(raw=raw, normalized=normalized)


def tuning_factor(mech_modes, elec_modes, mech_index, elec_index):
    """Inductance factor (w_e / w_m)^2 that lines the chosen pair up."""
    try:
        w_m = mech_modes.omegas[mech_index]
        w_e = elec_modes.omegas[elec_index]
    except IndexError:
        raise ValidationError(
            f"tuning target out of range (mech {mech_index}, elec {elec_index})"
        ) from None
    return float((w_e / w_m) ** 2)


def tune_inductance(mech_modes, elec_modes, network, mech_index=0, elec_index=0):
    """Network parameters with L_N rescaled so w_e[elec_index] = w_m[mech_index].

    The electric eigenfrequencies scale exactly as 1/sqrt(L_N), so the
    returned parameters match the target to solver precision on re-solve.
    """
    factor = tuning_factor(mech_modes, elec_modes, mech_index, elec_index)
    return replace(network, inductance=network.inductance * factor)
