"""Undamped modal analysis, truncated projection, coupling tables and tuning.

The modal basis neglects the first-order matrix K1, so the conservative
eigenproblem K0 a = omega^2 K2 a decouples into the pure bending and pure
electric families (K0 and K2 are block-diagonal across the two fields).
Eigenvectors are K2-orthonormal; the reduced model follows by projecting all
three matrices and the load on the retained rows.

Degenerate eigenvalue clusters are re-oriented deterministically: first the
cluster basis is rotated to diagonalize the mechanical-energy fraction (so a
tuned mechanical/electric pair comes out field-pure), then same-family pairs
are rotated to diagonalize a fixed anisotropic node-coordinate moment, and
finally each vector's first significant component is made positive.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import NumericalError, ValidationError

DEFAULT_RETAINED_PER_FAMILY = 8
CLUSTER_RELATIVE_GAP = 1e-6
MECHANICAL_FRACTION_THRESHOLD = 0.9
_DENSE_LIMIT = 2600


@dataclass(frozen=True)
class ModeSet:
    """Sorted eigenpairs of the undamped problem.

    ``vectors`` holds one K2-orthonormal eigenvector per column; ``labels``
    classifies each mode by the fraction of its K2-energy carried by the
    bending DOFs.
    """

    omegas: np.ndarray
    vectors: np.ndarray
    mech_fraction: np.ndarray
    labels: tuple
    dof_map: object

    @property
    def n_modes(self):
        return len(self.omegas)

    @property
    def projection(self):
        """The reduction matrix T whose rows are the retained eigenvectors."""
        return self.vectors.T

    def mechanical_indices(self):
        return [i for i, lab in enumerate(self.labels) if lab == "mechanical"]

    def electric_indices(self):
        return [i for i, lab in enumerate(self.labels) if lab == "electric"]


def _dense(a):
    return a.toarray() if sp.issparse(a) else np.asarray(a)


def _check_symmetric(a, name):
    if sp.issparse(a):
        diff = (a - a.T).tocoo()
        asym = np.abs(diff.data).max() if diff.nnz else 0.0
        scale = max(np.abs(a.data).max() if a.nnz else 0.0, 1.0)
    else:
        asym = np.abs(a - a.T).max()
        scale = max(np.abs(a).max(), 1.0)
    if asym > 1e-10 * scale:
        raise NumericalError(
            f"{name} is not symmetric (did you assemble with R_N > 0 and "
            "coupling? solve modes on the conservative twin instead)"
        )


def _solve_pencil(k0, k2, n):
    """Smallest-n eigenpairs of K0 a = w^2 K2 a with K2-orthonormal vectors."""
    size = k0.shape[0]
    if size <= _DENSE_LIMIT:
        d0 = _dense(k0)
        d2 = _dense(k2)
        try:
            np.linalg.cholesky(d2)
        except np.linalg.LinAlgError:
            raise NumericalError(
                "K2 is not positive definite; check boundary conditions and "
                "material parameters"
            ) from None
        vals, vecs = sla.eigh(d0, d2, subset_by_index=[0, n - 1])
    else:
        s0 = sp.csc_matrix(k0)
        s2 = sp.csc_matrix(k2)
        v0 = np.ones(size)
        try:
            vals, vecs = spla.eigsh(s0, k=n, M=s2, sigma=0.0, which="LM", v0=v0)
        except RuntimeError as exc:
            raise NumericalError(f"sparse eigensolve failed: {exc}") from None
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
        # enforce K2-orthonormality (ARPACK returns it only approximately);
        # the Ritz Gram fails to factor exactly when K2 is not definite
        gram = vecs.T @ (s2 @ vecs)
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


def _clusters(omegas, rel_gap=CLUSTER_RELATIVE_GAP):
    groups = [[0]]
    for i in range(1, len(omegas)):
        if omegas[i] - omegas[i - 1] <= rel_gap * max(omegas[i], 1e-300):
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def _rotate_cluster(block, operator):
    """Diagonalize a symmetric operator restricted to the cluster basis."""
    c = block.T @ operator(block)
    c = 0.5 * (c + c.T)
    _, q = np.linalg.eigh(c)
    return block @ q


def _orient_modes(omegas, vectors, k2, dof_map, mesh):
    mech = dof_map.mechanical_mask
    # weight each free DOF by x^2 - y^2 of its node: an anisotropic moment
    # whose restriction separates the (m, n)/(n, m) pairs of symmetric
    # domains (the orthogonality of the 1-D factors kills the cross terms,
    # and the diagonal gap is antisymmetric under the x/y swap)
    moment = (mesh.nodes[dof_map.free_nodes, 0] ** 2
              - mesh.nodes[dof_map.free_nodes, 1] ** 2)
    for group in _clusters(omegas):
        if len(group) < 2:
            continue
        idx = np.array(group)
        block = _rotate_cluster(
            vectors[:, idx], lambda b: (k2 @ (b * mech[:, None])) * mech[:, None]
        )
        # order mechanical-dominant first inside the cluster
        frac = np.einsum("di,di->i", block * mech[:, None],
                         k2 @ (block * mech[:, None]))
        order = np.argsort(-frac, kind="stable")
        block = block[:, order]
        frac = frac[order]
        # same-fraction sub-blocks: orient by the node moment
        sub_start = 0
        for j in range(1, len(group) + 1):
            if j == len(group) or abs(frac[j] - frac[sub_start]) > 1e-6:
                if j - sub_start > 1:
                    block[:, sub_start:j] = _rotate_cluster(
                        block[:, sub_start:j], lambda b: b * moment[:, None]
                    )
                sub_start = j
        vectors[:, idx] = block
    # deterministic sign: first significant component positive
    for i in range(vectors.shape[1]):
        v = vectors[:, i]
        nz = np.flatnonzero(np.abs(v) > 1e-8 * np.abs(v).max())
        if len(nz) and v[nz[0]] < 0:
            vectors[:, i] = -v
    return vectors


def _classify(fraction):
    if fraction >= MECHANICAL_FRACTION_THRESHOLD:
        return "mechanical"
    if fraction <= 1.0 - MECHANICAL_FRACTION_THRESHOLD:
        return "electric"
    return "mixed"


def _mode_set(sys, omegas, vectors):
    dm = sys.dof_map
    vectors = _orient_modes(omegas, vectors, sys.k2, dm, sys.mesh)
    mech = dm.mechanical_mask
    vm = vectors * mech[:, None]
    frac = np.einsum("di,di->i", vm, sys.k2 @ vm)
    labels = tuple(_classify(f) for f in frac)
    omegas = omegas.copy()
    omegas.setflags(write=False)
    vectors.setflags(write=False)
    return ModeSet(omegas=omegas, vectors=vectors, mech_fraction=frac,
                   labels=labels, dof_map=dm)


def solve_modes(sys, n):
    """The n lowest eigenpairs of the full conservative system.

    Requires symmetric K0/K2 (assemble the conservative twin when the damped
    K0 picks up the resistance coupling block).
    """
    if not 1 <= n <= sys.n_free:
        raise ValidationError(
            f"retained mode count {n} out of range 1..{sys.n_free}"
        )
    _check_symmetric(sys.k0, "K0")
    _check_symmetric(sys.k2, "K2")
    omegas, vectors = _solve_pencil(sys.k0, sys.k2, n)
    return _mode_set(sys, omegas, vectors)


def solve_family_modes(sys, family, n):
    """Eigenpairs of one decoupled field family, embedded in the free space.

    ``family`` is "mechanical" (the other field held to zero) or "electric".
    """
    dm = sys.dof_map
    mask = dm.mechanical_mask if family == "mechanical" else dm.electric_mask
    idx = np.flatnonzero(mask)
    if not 1 <= n <= len(idx):
        raise ValidationError(
            f"retained mode count {n} out of range 1..{len(idx)} for {family}"
        )
    k0 = sys.k0.tocsr()[idx][:, idx]
    k2 = sys.k2.tocsr()[idx][:, idx]
    if len(idx) <= _DENSE_LIMIT:
        k0, k2 = k0.toarray(), k2.toarray()
    omegas, sub = _solve_pencil(k0, k2, n)
    vectors = np.zeros((dm.n_free, n))
    vectors[idx] = sub
    return _mode_set(sys, omegas, vectors)


def build_modal_basis(sys, n_mech=DEFAULT_RETAINED_PER_FAMILY,
                      n_elec=DEFAULT_RETAINED_PER_FAMILY):
    """Family-balanced retained basis: n_mech bending + n_elec electric modes.

    Matches the reporting depth of the benchmark tables (8 + 8 by default).
    The merged set is sorted by frequency with mechanical modes first on ties.
    """
    mech = solve_family_modes(sys, "mechanical", n_mech)
    elec = solve_family_modes(sys, "electric", n_elec)
    omegas = np.concatenate([mech.omegas, elec.omegas])
    family = np.concatenate([np.zeros(n_mech, dtype=int), np.ones(n_elec, dtype=int)])
    vectors = np.concatenate([mech.vectors, elec.vectors], axis=1)
    frac = np.concatenate([mech.mech_fraction, elec.mech_fraction])
    labels = mech.labels + elec.labels
    order = np.lexsort((family, omegas))
    omegas = omegas[order]
    omegas.setflags(write=False)
    vectors = vectors[:, order]
    vectors.setflags(write=False)
    return ModeSet(omegas=omegas, vectors=vectors,
                   mech_fraction=frac[order],
                   labels=tuple(labels[i] for i in order),
                   dof_map=mech.dof_map)


@dataclass(frozen=True)
class ReducedSystem:
    """Projection of the assembled system on a retained modal basis.

    ``k2red`` is the identity whenever the basis rows are K2-orthonormal and
    the projected system is the one the basis was built from. The partition
    forms (``m2_mech`` etc.) evaluate the per-family energies of recovered
    full-space states directly in reduced coordinates; ``cross_ratio`` is
    R_N / L_N, the coefficient of the capacitor cross-energy.
    """

    k2red: np.ndarray
    k1red: np.ndarray
    k0red: np.ndarray
    f_red: np.ndarray
    modes: ModeSet
    m2_mech: np.ndarray
    k0_mech: np.ndarray
    m2_elec: np.ndarray
    k0_elec: np.ndarray
    cross_ratio: float

    @property
    def n_modes(self):
        return len(self.f_red)


def reduce(sys, modes):
    """Project K2, K1, K0 and F on the retained rows (Galerkin reduction)."""
    if modes.vectors.shape[0] != sys.n_free:
        raise ValidationError(
            f"mode basis has {modes.vectors.shape[0]} rows, system has "
            f"{sys.n_free} free DOFs"
        )
    v = modes.vectors
    k2red = v.T @ (sys.k2 @ v)
    k1red = v.T @ (sys.k1 @ v)
    k0red = v.T @ (sys.k0 @ v)
    f_red = v.T @ sys.f

    dm = sys.dof_map
    mech = dm.mechanical_mask
    vm = v * mech[:, None]
    ve = v * (~mech)[:, None]
    k0sym = 0.5 * (sys.k0 + sys.k0.T)
    net = sys.material.network
    return ReducedSystem(
        k2red=k2red, k1red=k1red, k0red=k0red, f_red=f_red, modes=modes,
        m2_mech=vm.T @ (sys.k2 @ vm), k0_mech=vm.T @ (k0sym @ vm),
        m2_elec=ve.T @ (sys.k2 @ ve), k0_elec=ve.T @ (k0sym @ ve),
        cross_ratio=net.resistance / net.inductance,
    )


@dataclass(frozen=True)
class CouplingTable:
    """Modal coupling magnitudes |phi_e^T B phi_m| (raw and max-normalized)."""

    raw: np.ndarray
    normalized: np.ndarray
    mech_omegas: np.ndarray
    elec_omegas: np.ndarray


def coupling_table(mech_modes, elec_modes, sys):
    """Coupling of decoupled electric modes (rows) vs mechanical modes (cols).

    B is the mechanical-to-electric block of K1; with field-pure embedded
    eigenvectors the product phi_e^T K1 phi_m picks exactly that block.
    """
    raw = np.abs(elec_modes.vectors.T @ (sys.k1 @ mech_modes.vectors))
    peak = raw.max()
    normalized = raw / peak if peak > 0 else raw.copy()
    return CouplingTable(raw=raw, normalized=normalized,
                         mech_omegas=mech_modes.omegas.copy(),
                         elec_omegas=elec_modes.omegas.copy())


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
