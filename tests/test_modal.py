import dataclasses
import json
import os
import subprocess
import tracemalloc
from importlib import resources
from pathlib import Path
from sys import executable

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from pemplate import assembly, blas, cli, modal
from pemplate.assembly import BoundaryCondition, assemble
from pemplate.config import load_config
from pemplate.errors import NumericalError, ValidationError
from pemplate.material import (
    NetworkParams,
    PlateParams,
    build_material,
    conservative_twin,
)
from pemplate.mesh import generate_structured_square, load_mesh
from pemplate.modal import (
    ModeSet,
    build_modal_basis,
    coupling_table,
    reduce,
    solve_family_modes,
    tune_inductance,
    tuning_factor,
)


def material(coupling=(0.1, 0.1, 0.0), l_n=1.0, r_n=0.0, rho=500.0):
    plate = PlateParams.isotropic(1e-3, rho, 1.0, 0.3, coupling=coupling)
    return build_material(plate, NetworkParams(inductance=l_n, resistance=r_n))


def bcs_ss():
    return [BoundaryCondition("boundary", "simply_supported"),
            BoundaryCondition("boundary", "grounded")]


@pytest.fixture(scope="module")
def square4():
    mesh = generate_structured_square(4, 1.0, "crossed")
    return assemble(mesh, material(), bcs_ss())


@pytest.fixture(scope="module")
def square8():
    mesh = generate_structured_square(8, 1.0, "crossed")
    return assemble(mesh, material(), bcs_ss())


def test_scalar_pencil():
    # 1-DOF system K0 = [4], K2 = [1]: omega = 2, K2-normalized vector 1
    omegas, vecs = modal._solve_pencil(sp.csc_matrix([[4.0]]),
                                       sp.csc_matrix([[1.0]]), 1)
    assert omegas[0] == pytest.approx(2.0, rel=1e-14)
    assert abs(vecs[0, 0]) == pytest.approx(1.0, rel=1e-12)


def laplacian_pencil(m):
    """K0 the 2-D Laplacian of an m x m grid, K2 a graded diagonal."""
    t = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(m, m))
    k0 = sp.kronsum(t, t, format="csc")
    k2 = sp.diags(np.linspace(1.0, 2.0, m * m), format="csc")
    return k0, k2


def test_sparse_pencil_independent_of_scipy_blas_threads():
    # with scipy's OpenBLAS on two threads, ARPACK's and SuperLU's BLAS calls
    # would move omega by ~1e-15 against one thread; the sparse branch pins
    # it, so both settings give the same bits
    lib = blas._scipy_openblas()
    if lib is None:
        pytest.skip("scipy's BLAS is not scipy-openblas")
    get, set_ = lib
    k0, k2 = laplacian_pencil(120)
    assert k0.shape[0] > modal._DENSE_LIMIT
    before = get()
    runs = []
    try:
        for threads in (2, 1):
            set_(threads)
            runs.append(modal._solve_pencil(k0, k2, 6))
            assert get() == threads
    finally:
        set_(before)
    (w2, v2), (w1, v1) = runs
    assert np.array_equal(w2, w1)
    assert np.array_equal(v2, v1)


class LoggedOpenblas:
    """Fake scipy OpenBLAS: a thread count and a log of every call to it."""

    def __init__(self, threads):
        self.threads = threads
        self.log = []

    def get(self):
        self.log.append("get")
        return self.threads

    def set(self, n):
        self.log.append(n)
        self.threads = n


@pytest.fixture
def fake_scipy_blas(monkeypatch):
    fake = LoggedOpenblas(threads=3)
    monkeypatch.setattr(blas, "_scipy_openblas", lambda: (fake.get, fake.set))
    return fake


def test_sparse_branch_runs_eigsh_on_one_thread(monkeypatch, fake_scipy_blas):
    k0, k2 = laplacian_pencil(6)
    monkeypatch.setattr(modal, "_DENSE_LIMIT", 10)
    eigsh = spla.eigsh
    seen = []

    def spy(*args, **kwargs):
        seen.append(fake_scipy_blas.threads)
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(spla, "eigsh", spy)
    modal._solve_pencil(k0, k2, 3)
    assert seen == [1] and fake_scipy_blas.threads == 3

    def failing(*args, **kwargs):
        seen.append(fake_scipy_blas.threads)
        raise RuntimeError("no convergence")

    monkeypatch.setattr(spla, "eigsh", failing)
    with pytest.raises(NumericalError, match="no convergence"):
        modal._solve_pencil(k0, k2, 3)
    assert seen == [1, 1] and fake_scipy_blas.threads == 3


def test_dense_branch_leaves_scipy_blas(fake_scipy_blas):
    k0, k2 = laplacian_pencil(6)
    assert k0.shape[0] <= modal._DENSE_LIMIT
    modal._solve_pencil(k0, k2, 3)
    assert fake_scipy_blas.log == []


def family_blocks(sys, family):
    """A family's K0 and K2 blocks, CSC, as solve_family_modes builds them."""
    mask = (sys.dof_map.mechanical_mask if family == "mechanical"
            else sys.dof_map.electric_mask)
    idx = np.flatnonzero(mask)
    return tuple(sp.csc_matrix(m.tocsr()[idx][:, idx]) for m in (sys.k0, sys.k2))


def copying_eigh(k0, k2, n):
    """The reference dense solve: eigh on C-ordered copies of the blocks,
    which it copies again into Fortran order for LAPACK."""
    vals, vecs = sla.eigh(k0.toarray(), k2.toarray(), subset_by_index=[0, n - 1])
    return np.sqrt(vals), vecs


@pytest.mark.parametrize("case", ["paper-square-bending", "laplacian-30"])
def test_dense_branch_matches_copying_eigh(preset_runs, case):
    # solving in place hands LAPACK the same numbers, so it returns the same
    # bits as the copying call
    if case == "laplacian-30":
        (k0, k2), n = laplacian_pencil(30), 8
    else:
        run = preset_runs["paper-square"]
        k0, k2 = family_blocks(run.system(run.configured), "mechanical")
        n = run.cfg.n_mech
    assert k0.shape[0] <= modal._DENSE_LIMIT
    omegas, vecs = modal._solve_pencil(k0, k2, n)
    want_omegas, want_vecs = copying_eigh(k0, k2, n)
    assert np.array_equal(omegas, want_omegas)
    assert np.array_equal(vecs, want_vecs)


def test_dense_branch_holds_two_blocks():
    # the two n x n blocks are factored and reduced in place: the traced peak
    # reads 2.05 x 8 n^2, so one more copy of either block, or an n x n
    # boolean array for each, fails the bound
    k0, k2 = laplacian_pencil(30)
    size = k0.shape[0]
    tracemalloc.start()
    try:
        modal._solve_pencil(k0, k2, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.1 * 8 * size**2


@pytest.mark.parametrize("family", ["mechanical", "electric"])
@pytest.mark.parametrize("matrix", ["k0", "k2"])
@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_dense_branch_names_a_block_that_is_not_finite(square4, family,
                                                       matrix, value):
    # eigh does not check its arrays and the dense branch does not scan its
    # blocks: an entry of a family's block that is not finite is named where
    # the system is made, so no family solve can read it
    assert square4.n_free <= modal._DENSE_LIMIT
    mask = (square4.dof_map.mechanical_mask if family == "mechanical"
            else square4.dof_map.electric_mask)
    i = np.flatnonzero(mask)[0]
    bad = getattr(square4, matrix).tolil()
    bad[i, i] = value
    with pytest.raises(NumericalError,
                       match=f"^non-finite {matrix.upper()} entries: "):
        dataclasses.replace(square4, **{matrix: bad.tocsc()})


@pytest.mark.parametrize("matrix", ["k2", "k1", "k0"])
@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_system_with_an_entry_that_is_not_finite_is_not_made(
        square4, matrix, value, monkeypatch):
    # neither family solve checks its blocks for inf and nan, and K1 reaches
    # the reduction unsolved: the system itself refuses the entry, K1 on
    # the read that sums it. A sparse solve of square4 with inf on K0's
    # diagonal once returned wrong frequencies and no error.
    bad = getattr(square4, matrix).tolil()
    bad[0, 0] = value
    with pytest.raises(NumericalError,
                       match=f"^non-finite {matrix.upper()} entries: "):
        if matrix == "k1":
            monkeypatch.setattr(assembly, "_sum_matrices",
                                lambda *args: (bad.tocsr(),))
            dataclasses.replace(square4).k1
        else:
            dataclasses.replace(square4, **{matrix: bad.tocsr()})


FAMILIES = ("mechanical", "electric")


class TestSolveModes:
    def test_orthonormality_and_residual(self, square8):
        k2 = square8.k2.toarray()
        k0 = square8.k0.toarray()
        for family in FAMILIES:
            modes = solve_family_modes(square8, family, 12)
            v = modes.vectors
            gram = v.T @ k2 @ v
            assert np.abs(gram - np.eye(12)).max() < 1e-10
            for i in range(12):
                r = k0 @ v[:, i] - modes.omegas[i] ** 2 * (k2 @ v[:, i])
                assert np.linalg.norm(r) <= 1e-8 * np.linalg.norm(k0 @ v[:, i])

    def test_sorted_ascending(self, square8):
        for family in FAMILIES:
            modes = solve_family_modes(square8, family, 10)
            assert np.all(np.diff(modes.omegas) >= -1e-12)

    def test_field_purity_of_conservative_modes(self, square8):
        # each mode is solved in one family: labelled with it, and zero on
        # the other field's DOFs
        dm = square8.dof_map
        for family, other in zip(FAMILIES, (dm.electric_mask, dm.mechanical_mask)):
            modes = solve_family_modes(square8, family, 6)
            assert modes.labels == (family,) * 6
            assert not modes.vectors[other].any()

    def test_sparse_path_matches_dense(self, square8, monkeypatch):
        dense = [solve_family_modes(square8, f, 6) for f in FAMILIES]
        monkeypatch.setattr(modal, "_DENSE_LIMIT", 10)
        k2 = square8.k2.toarray()
        for family, ref in zip(FAMILIES, dense):
            modes = solve_family_modes(square8, family, 6)
            assert np.abs(modes.omegas - ref.omegas).max() <= 1e-9 * ref.omegas.max()
            gram = modes.vectors.T @ k2 @ modes.vectors
            assert np.abs(gram - np.eye(6)).max() < 1e-10

    def test_unknown_family_rejected(self, square8):
        with pytest.raises(KeyError):
            solve_family_modes(square8, "mixed", 4)

    def test_determinism(self, square8):
        for family in FAMILIES:
            a = solve_family_modes(square8, family, 8)
            b = solve_family_modes(square8, family, 8)
            assert np.array_equal(a.vectors, b.vectors)
            assert np.array_equal(a.omegas, b.omegas)

    def test_out_of_range(self, square8, monkeypatch):
        dm = square8.dof_map
        for family, mask in zip(FAMILIES, (dm.mechanical_mask, dm.electric_mask)):
            with pytest.raises(ValidationError):
                solve_family_modes(square8, family, 0)
            with pytest.raises(ValidationError):
                solve_family_modes(square8, family, int(mask.sum()) + 1)
        # shift-invert Lanczos needs k < N, where the dense solve takes k = N
        monkeypatch.setattr(modal, "_DENSE_LIMIT", 10)
        size = int(dm.electric_mask.sum())
        with pytest.raises(ValidationError,
                           match=rf"out of range 1\.\.{size - 1} for electric"):
            solve_family_modes(square8, "electric", size)

    @pytest.mark.parametrize("family", ["mechanical", "electric"])
    def test_sparse_path_rejects_indefinite_k2(self, square4, monkeypatch,
                                               family):
        # the sparse branch has no up-front factorization of K2; the failed
        # Cholesky of the Ritz Gram must surface as a NumericalError (exit 2)
        monkeypatch.setattr(modal, "_DENSE_LIMIT", 10)
        bad = dataclasses.replace(square4, k2=-square4.k2)
        with pytest.raises(NumericalError, match="K2 is not positive definite"):
            solve_family_modes(bad, family, 3)

    @pytest.mark.parametrize("family", ["mechanical", "electric"])
    def test_dense_path_rejects_indefinite_k2(self, square4, family):
        # the dense branch leaves the factorization of K2 to eigh; its
        # LinAlgError must surface as a NumericalError (exit 2)
        bad = dataclasses.replace(square4, k2=-square4.k2)
        with pytest.raises(NumericalError, match="K2 is not positive definite"):
            solve_family_modes(bad, family, 3)

    def test_degenerate_pairs_on_crossed_mesh(self, square8):
        mech = solve_family_modes(square8, "mechanical", 8)
        r = mech.omegas / mech.omegas[0]
        for a, b in ((1, 2), (4, 5), (6, 7)):
            assert abs(r[a] - r[b]) / r[a] < 1e-3

    def test_full_solve_agrees_with_family_union(self, square8):
        # the conservative pencil is block-diagonal, so the globally lowest
        # frequencies of a dense solve of the whole pencil are the merged
        # family spectra; the resistive coupling fills only the
        # mechanical-row/electric-column block of K0, which no family reads
        w2 = sla.eigh(square8.k0.toarray(), square8.k2.toarray(),
                      eigvals_only=True, subset_by_index=[0, 9])
        damped = assemble(square8.mesh, material(r_n=0.5), bcs_ss())
        for sys in (square8, damped):
            union = np.sort(np.concatenate(
                [solve_family_modes(sys, family, 10).omegas
                 for family in FAMILIES]))[:10]
            assert np.abs(np.sqrt(w2) - union).max() <= 1e-9 * union.max()

    def test_density_scaling_leaves_ratios(self):
        mesh = generate_structured_square(4, 1.0, "crossed")
        sys1 = assemble(mesh, material(rho=500.0), bcs_ss())
        sys2 = assemble(mesh, material(rho=5000.0), bcs_ss())
        m1 = solve_family_modes(sys1, "mechanical", 6)
        m2 = solve_family_modes(sys2, "mechanical", 6)
        assert np.abs(m1.omegas / m1.omegas[0]
                      - m2.omegas / m2.omegas[0]).max() < 1e-10
        assert m2.omegas[0] == pytest.approx(m1.omegas[0] / np.sqrt(10), rel=1e-10)


    def test_mechanical_modes_ignore_the_network(self):
        # no network parameter reaches the bending block of K2 and K0, so
        # one bending family serves every network of a run, bit for bit
        mesh = generate_structured_square(4, 1.0, "crossed")
        plate = PlateParams.isotropic(1e-3, 500.0, 1.0, 0.3,
                                      coupling=(0.1, 0.1, 0.0))
        ref, *others = (
            solve_family_modes(assemble(mesh, build_material(plate, net),
                                        bcs_ss()), "mechanical", 6)
            for net in (NetworkParams(inductance=1.0),
                        NetworkParams(inductance=0.05),
                        NetworkParams(inductance=1.0, resistance=0.4),
                        NetworkParams(inductance=1.0, conductance=0.7)))
        for modes in others:
            for name in ("omegas", "vectors"):
                assert np.array_equal(getattr(modes, name), getattr(ref, name))
            assert modes.labels == ref.labels


class TestReduce:
    def test_identity_mass_and_diagonal_stiffness(self, square8):
        basis = build_modal_basis(solve_family_modes(square8, "mechanical", 6),
                                  solve_family_modes(square8, "electric", 6))
        rs = reduce(square8, basis)
        assert np.abs(rs.k2red - np.eye(12)).max() < 1e-10
        off = rs.k0red - np.diag(np.diag(rs.k0red))
        assert np.abs(off).max() < 1e-8 * np.abs(rs.k0red).max()
        assert np.allclose(np.diag(rs.k0red), basis.omegas**2, rtol=1e-9)

    def test_uncoupled_k1red_zero(self):
        mesh = generate_structured_square(4, 1.0, "crossed")
        sys = assemble(mesh, material(coupling=(0, 0, 0)), bcs_ss())
        basis = build_modal_basis(solve_family_modes(sys, "mechanical", 4),
                                  solve_family_modes(sys, "electric", 4))
        rs = reduce(sys, basis)
        assert np.abs(rs.k1red).max() < 1e-12

    def test_full_basis_reproduces_spectrum(self):
        mesh = generate_structured_square(2, 1.0, "crossed")
        sys = assemble(mesh, material(), bcs_ss())
        dm = sys.dof_map
        n_mech = int(dm.mechanical_mask.sum())
        n_elec = int(dm.electric_mask.sum())
        basis = build_modal_basis(solve_family_modes(sys, "mechanical", n_mech),
                                  solve_family_modes(sys, "electric", n_elec))
        rs = reduce(sys, basis)
        # reduced eigensolve reproduces the retained frequencies exactly
        w2 = sla.eigh(rs.k0red, rs.k2red, eigvals_only=True)
        assert np.abs(np.sqrt(w2) - np.sort(basis.omegas)).max() \
            <= 1e-9 * basis.omegas.max()

    def test_projection_idempotent(self, square8):
        basis = build_modal_basis(solve_family_modes(square8, "mechanical", 6),
                                  solve_family_modes(square8, "electric", 6))
        rs = reduce(square8, basis)
        # re-reducing the reduced pencil with its own eigenbasis returns the
        # same diagonal within 1e-12
        w2, q = sla.eigh(rs.k0red, rs.k2red)
        again = q.T @ rs.k0red @ q
        assert np.abs(again - np.diag(w2)).max() < 1e-12 * np.abs(w2).max()

    def test_dimension_mismatch(self, square8, square4):
        basis = build_modal_basis(solve_family_modes(square4, "mechanical", 4),
                                  solve_family_modes(square4, "electric", 4))
        with pytest.raises(ValidationError, match="rows"):
            reduce(square8, basis)


class TestBasis:
    def test_family_counts(self, square8):
        basis = build_modal_basis(solve_family_modes(square8, "mechanical", 8),
                                  solve_family_modes(square8, "electric", 8))
        assert basis.labels.count("mechanical") == 8
        assert basis.labels.count("electric") == 8
        assert np.all(np.diff(basis.omegas) >= -1e-12)

    def test_full_basis_roundtrip(self):
        mesh = generate_structured_square(2, 1.0, "crossed")
        sys = assemble(mesh, material(), bcs_ss())
        dm = sys.dof_map
        basis = build_modal_basis(
            solve_family_modes(sys, "mechanical", int(dm.mechanical_mask.sum())),
            solve_family_modes(sys, "electric", int(dm.electric_mask.sum())))
        t = basis.vectors.T
        k2 = sys.k2.toarray()
        # rows are K2-orthonormal, so the K2-weighted round trip is exact
        assert np.abs(t @ k2 @ t.T - np.eye(dm.n_free)).max() < 1e-10
        rng = np.random.default_rng(0)
        z = rng.normal(size=dm.n_free)
        q = t.T @ z
        assert np.abs(t @ (k2 @ q) - z).max() < 1e-10

    @pytest.mark.parametrize("rel", [-1e-14, 0.0, 1e-14])
    def test_tuned_pair_mechanical_first(self, rel):
        # a tuned pair agrees to round-off; whichever side of the mechanical
        # frequency the electric one lands on, the mechanical mode leads
        def mode_set(family, omegas):
            return ModeSet(omegas=np.array(omegas), vectors=np.eye(4)[:, :2],
                           labels=(family,) * 2)

        w = 1.3
        basis = build_modal_basis(mode_set("mechanical", [w, 3.0]),
                                  mode_set("electric", [w * (1 + rel), 2.0]))
        assert basis.labels == ("mechanical", "electric", "electric",
                                "mechanical")
        assert basis.omegas.tolist() == [w, w * (1 + rel), 2.0, 3.0]


def preset_run(name):
    ref = resources.files("pemplate") / "presets" / f"{name}.cfg"
    with resources.as_file(ref) as path:
        return cli.Run(load_config(Path(path)))


@pytest.fixture(scope="module")
def preset_runs():
    return {name: preset_run(name) for name in ("paper-square", "clamped-demo")}


# Bounds at 10x the largest value measured on both presets, untuned and
# tuned, with OPENBLAS_NUM_THREADS=1 and with the default two threads:
# per-cluster residual 6.3e-10 (paper-square's highest bending mode; its
# degenerate bending pairs 9.9e-11 and below) and K2 defect 8.8e-14
# (paper-square's untuned electric family at one thread).
CLUSTER_RESIDUAL_BOUND = 10 * 6.3e-10
K2_DEFECT_BOUND = 10 * 8.8e-14


class TestPresetModes:
    """Checks that hold whatever the arithmetic path: a cluster's
    eigenvectors are fixed only as a subspace (Parlett, The Symmetric
    Eigenvalue Problem, SIAM 1998, ch. 11), so each cluster is checked by
    its subspace residual, not vector by vector."""

    @pytest.mark.parametrize("preset", ["paper-square", "clamped-demo"])
    @pytest.mark.parametrize("tuned", [False, True])
    def test_cluster_residual_and_k2_defect(self, preset_runs, preset, tuned):
        run = preset_runs[preset]
        net = run.network() if tuned else run.cfg.network
        sys = run.system(conservative_twin(net))
        for modes in run.modes(net):
            v = modes.vectors
            k0v, k2v = sys.k0 @ v, sys.k2 @ v
            for group in modal._clusters(modes.omegas):
                r = k0v[:, group] - k2v[:, group] @ (v[:, group].T @ k0v[:, group])
                assert (np.linalg.norm(r) / np.linalg.norm(k0v[:, group])
                        <= CLUSTER_RESIDUAL_BOUND), (modes.labels[0], group)
            defect = np.abs(v.T @ k2v - np.eye(modes.n_modes)).max()
            assert defect <= K2_DEFECT_BOUND, modes.labels[0]

    def test_basis_labels_independent_of_blas_threads(self, preset_runs):
        # the tuned pair's frequencies differ by ~3e-14 relative, and which
        # one is smaller flips with the OpenBLAS thread count; the child
        # runs with the other setting than this process
        env = dict(os.environ)
        if env.get("OPENBLAS_NUM_THREADS") == "1":
            del env["OPENBLAS_NUM_THREADS"]
        else:
            env["OPENBLAS_NUM_THREADS"] = "1"
        src = str(Path(modal.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p])
        child = ("import json, sys\n"
                 "from pemplate import cli\n"
                 "from pemplate.config import load_config\n"
                 "run = cli.Run(load_config(sys.argv[1]))\n"
                 "print(json.dumps(run.basis().labels))\n")
        ref = resources.files("pemplate") / "presets" / "paper-square.cfg"
        with resources.as_file(ref) as path:
            out = subprocess.run([executable, "-c", child, str(path)],
                                 env=env, capture_output=True, text=True,
                                 check=True).stdout
        labels = preset_runs["paper-square"].basis().labels
        assert tuple(json.loads(out)) == labels
        assert labels[:2] == ("mechanical", "electric")


def rayleigh_quotients(k0, k2, vectors):
    """rho(v) = v^T K0 v / v^T K2 v of every column, summed in long double
    over the sparse entries."""
    v = vectors.astype(np.longdouble)

    def form(a):
        a = a.tocoo()
        return np.sum(a.data.astype(np.longdouble)[:, None]
                      * v[a.row] * v[a.col], axis=0)

    return form(k0) / form(k2)


# The solver's own omega^2 against the long-double Rayleigh quotient of its
# own vector, max over the retained modes (rho is quadratically accurate in
# the vector error, so it is the reference: Parlett, The Symmetric
# Eigenvalue Problem, SIAM 1998). Floors
# are the larger of the values measured with the default two OpenBLAS threads
# and with OPENBLAS_NUM_THREADS=1, over the configured and the tuned network:
# paper-square bending 2.61e-10 (dense, mode 1, two threads; 2.01e-10 at
# one), clamped-demo bending 4.71e-12 (one thread; 3.78e-12 at two), electric
# 8.45e-14 (paper-square, configured, two threads). Each bound is 10x its
# floor.
RAYLEIGH_FLOORS = {("paper-square", "mechanical"): 2.61e-10,
                   ("clamped-demo", "mechanical"): 4.71e-12,
                   ("paper-square", "electric"): 8.45e-14,
                   ("clamped-demo", "electric"): 8.45e-14}
RAYLEIGH_BOUND_FACTOR = 10


@pytest.mark.parametrize("preset", ["paper-square", "clamped-demo"])
@pytest.mark.parametrize("tuned", [False, True])
@pytest.mark.parametrize("family", FAMILIES)
def test_family_eigenvalues_match_rayleigh_quotients(preset_runs, preset,
                                                     tuned, family):
    # the raw solver vectors: _orient_modes rotates a cluster's vectors
    # within it, which moves rho by up to the cluster's width
    run = preset_runs[preset]
    k0, k2 = family_blocks(run.system(run.network() if tuned else
                                      run.configured), family)
    n = run.cfg.n_mech if family == "mechanical" else run.cfg.n_elec
    omegas, vectors = modal._solve_pencil(k0, k2, n)
    rho = rayleigh_quotients(k0, k2, vectors)
    error = np.abs(omegas.astype(np.longdouble) ** 2 - rho) / rho
    bound = RAYLEIGH_BOUND_FACTOR * RAYLEIGH_FLOORS[preset, family]
    assert float(error.max()) <= bound


class TestTuning:
    def test_factor_when_already_tuned(self, square8):
        mech = solve_family_modes(square8, "mechanical", 2)
        assert tuning_factor(mech, mech, 0, 0) == pytest.approx(1.0, abs=1e-15)

    def test_retuned_frequency_matches(self, square8):
        mech = solve_family_modes(square8, "mechanical", 8)
        elec = solve_family_modes(square8, "electric", 8)
        net = tune_inductance(mech, elec, NetworkParams(inductance=1.0), 0, 0)
        sys_t = assemble(square8.mesh,
                         build_material(square8.material.plate, net), bcs_ss())
        elec_t = solve_family_modes(sys_t, "electric", 1)
        assert abs(elec_t.omegas[0] - mech.omegas[0]) / mech.omegas[0] <= 1e-6

    def test_scaling_law(self, square8):
        # omega_e scales exactly as 1/sqrt(L_N)
        elec = solve_family_modes(square8, "electric", 3)
        mat4 = build_material(square8.material.plate,
                              NetworkParams(inductance=4.0))
        sys4 = assemble(square8.mesh, mat4, bcs_ss())
        elec4 = solve_family_modes(sys4, "electric", 3)
        assert np.abs(elec4.omegas - elec.omegas / 2.0).max() \
            <= 1e-8 * elec.omegas[0]

    def test_idempotence(self, square8):
        mech = solve_family_modes(square8, "mechanical", 4)
        elec = solve_family_modes(square8, "electric", 4)
        net1 = tune_inductance(mech, elec, NetworkParams(inductance=1.0), 1, 1)
        sys1 = assemble(square8.mesh,
                        build_material(square8.material.plate, net1), bcs_ss())
        mech1 = solve_family_modes(sys1, "mechanical", 4)
        elec1 = solve_family_modes(sys1, "electric", 4)
        factor = tuning_factor(mech1, elec1, 1, 1)
        assert abs(factor - 1.0) <= 1e-9

    def test_target_out_of_range(self, square8):
        mech = solve_family_modes(square8, "mechanical", 2)
        elec = solve_family_modes(square8, "electric", 2)
        with pytest.raises(ValidationError):
            tuning_factor(mech, elec, 5, 0)


class TestCouplingTable:
    def test_zero_coupling_gives_zero_table(self):
        mesh = generate_structured_square(4, 1.0, "crossed")
        sys = assemble(mesh, material(coupling=(0, 0, 0)), bcs_ss())
        mech = solve_family_modes(sys, "mechanical", 4)
        elec = solve_family_modes(sys, "electric", 4)
        table = coupling_table(mech, elec, sys)
        assert np.all(table.raw == 0.0)
        assert np.all(table.normalized == 0.0)

    def test_square_is_diagonal_dominant(self, square8):
        mech = solve_family_modes(square8, "mechanical", 8)
        elec = solve_family_modes(square8, "electric", 8)
        table = coupling_table(mech, elec, square8)
        c = table.normalized
        # exclude the cluster blocks straddling the diagonal: degenerate
        # pairs may couple within their cluster in any orientation
        pos_m = {i: ci for ci, cl in enumerate(modal._clusters(mech.omegas))
                 for i in cl}
        pos_e = {i: ci for ci, cl in enumerate(modal._clusters(elec.omegas))
                 for i in cl}
        diag_blocks = {(pos_e[k], pos_m[k]) for k in range(8)}
        for i in range(8):
            for j in range(8):
                if (pos_e[i], pos_m[j]) not in diag_blocks:
                    assert c[i, j] < 0.05

    def test_clamped_geometry_is_distributed(self):
        from importlib import resources

        ref = resources.files("pemplate").joinpath("data/l_shape.mesh")
        with resources.as_file(ref) as p:
            mesh = load_mesh(p)
        sys = assemble(mesh, material(), [
            BoundaryCondition("boundary", "clamped"),
            BoundaryCondition("boundary", "grounded"),
        ])
        mech = solve_family_modes(sys, "mechanical", 6)
        elec = solve_family_modes(sys, "electric", 6)
        c = coupling_table(mech, elec, sys).normalized
        off = [c[i, j] for i in range(6) for j in range(6) if i != j]
        assert max(off) >= 0.05  # no diagonal structure enforced
