import dataclasses

import numpy as np
import pytest

from pemplate import modal
from pemplate.assembly import BoundaryCondition, assemble
from pemplate.errors import NumericalError, ValidationError
from pemplate.material import NetworkParams, PlateParams, build_material
from pemplate.mesh import generate_structured_square, load_mesh
from pemplate.modal import (
    build_modal_basis,
    coupling_table,
    reduce,
    solve_family_modes,
    solve_modes,
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
    omegas, vecs = modal._solve_pencil(np.array([[4.0]]), np.array([[1.0]]), 1)
    assert omegas[0] == pytest.approx(2.0, rel=1e-14)
    assert abs(vecs[0, 0]) == pytest.approx(1.0, rel=1e-12)


class TestSolveModes:
    def test_orthonormality_and_residual(self, square8):
        modes = solve_modes(square8, 12)
        v = modes.vectors
        k2 = square8.k2.toarray()
        k0 = square8.k0.toarray()
        gram = v.T @ k2 @ v
        assert np.abs(gram - np.eye(12)).max() < 1e-10
        for i in range(12):
            r = k0 @ v[:, i] - modes.omegas[i] ** 2 * (k2 @ v[:, i])
            assert np.linalg.norm(r) <= 1e-8 * np.linalg.norm(k0 @ v[:, i])

    def test_sorted_ascending(self, square8):
        modes = solve_modes(square8, 10)
        assert np.all(np.diff(modes.omegas) >= -1e-12)

    def test_field_purity_of_conservative_modes(self, square8):
        # K0/K2 are block-diagonal across fields, so every mode is pure
        modes = solve_modes(square8, 12)
        for frac, label in zip(modes.mech_fraction, modes.labels):
            assert min(frac, 1 - frac) < 1e-9
            assert label in ("mechanical", "electric")

    def test_determinism(self, square8):
        a = solve_modes(square8, 8)
        b = solve_modes(square8, 8)
        assert np.array_equal(a.vectors, b.vectors)
        assert np.array_equal(a.omegas, b.omegas)

    def test_out_of_range(self, square8):
        with pytest.raises(ValidationError):
            solve_modes(square8, 0)
        with pytest.raises(ValidationError):
            solve_modes(square8, square8.n_free + 1)

    def test_damped_coupled_k0_rejected(self):
        mesh = generate_structured_square(2, 1.0, "crossed")
        sys = assemble(mesh, material(r_n=0.5), bcs_ss())
        with pytest.raises(NumericalError, match="conservative twin"):
            solve_modes(sys, 4)

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
        # frequencies are the merged family spectra
        full = solve_modes(square8, 10)
        mech = solve_family_modes(square8, "mechanical", 10)
        elec = solve_family_modes(square8, "electric", 10)
        union = np.sort(np.concatenate([mech.omegas, elec.omegas]))[:10]
        assert np.abs(full.omegas - union).max() <= 1e-9 * union.max()

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
            for name in ("omegas", "vectors", "mech_fraction"):
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
        import scipy.linalg as sla

        w2 = sla.eigh(rs.k0red, rs.k2red, eigvals_only=True)
        assert np.abs(np.sqrt(w2) - np.sort(basis.omegas)).max() \
            <= 1e-9 * basis.omegas.max()

    def test_projection_idempotent(self, square8):
        basis = build_modal_basis(solve_family_modes(square8, "mechanical", 6),
                                  solve_family_modes(square8, "electric", 6))
        rs = reduce(square8, basis)
        # re-reducing the reduced pencil with its own eigenbasis returns the
        # same diagonal within 1e-12
        import scipy.linalg as sla

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

    def test_purity_after_tuning_degeneracy(self, square8):
        mech = solve_family_modes(square8, "mechanical", 4)
        elec = solve_family_modes(square8, "electric", 4)
        net = tune_inductance(mech, elec, NetworkParams(inductance=1.0), 0, 0)
        mesh = square8.mesh
        sys_t = assemble(mesh, build_material(square8.material.plate, net),
                         bcs_ss())
        # the tuned pair is a degenerate cluster of the full solve; the
        # cluster rotation must return field-pure vectors
        modes = solve_modes(sys_t, 4)
        assert abs(modes.omegas[0] - modes.omegas[1]) / modes.omegas[0] < 1e-9
        fracs = sorted(modes.mech_fraction[:2])
        assert fracs[0] < 1e-6 and fracs[1] > 1 - 1e-6


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
