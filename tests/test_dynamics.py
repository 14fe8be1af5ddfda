import math
from dataclasses import replace

import numpy as np
import pytest

from pemplate import dynamics, modal
from pemplate.assembly import DOFS_PER_NODE, BoundaryCondition, assemble
from pemplate.dynamics import (
    beat_period,
    energies,
    envelope_peaks,
    fit_damping,
    impulse_ic,
    integrate,
    optimize_resistance,
    recover_field,
    settling_time,
    two_mode_surrogate,
    unimodal_ic,
)
from pemplate.element import specht_shape_functions, triangle_geometry
from pemplate.errors import IntegrationError, ValidationError
from pemplate.material import NetworkParams, PlateParams, build_material
from pemplate.mesh import _barycentric, generate_structured_square
from pemplate.modal import ReducedSystem, build_modal_basis, reduce, tune_inductance


def material(coupling=(0.1, 0.1, 0.0), l_n=1.0, r_n=0.0):
    plate = PlateParams.isotropic(1e-3, 500.0, 1.0, 0.3, coupling=coupling)
    return build_material(plate, NetworkParams(inductance=l_n, resistance=r_n))


def bcs_ss():
    return [BoundaryCondition("boundary", "simply_supported"),
            BoundaryCondition("boundary", "grounded")]


def single_oscillator(omega=1.0):
    return ReducedSystem(
        k2red=np.eye(1), k1red=np.zeros((1, 1)),
        k0red=np.array([[omega**2]]), modes=None,
        m2_mech=np.eye(1), k0_mech=np.array([[omega**2]]),
        m2_elec=np.zeros((1, 1)), k0_elec=np.zeros((1, 1)), cross_ratio=0.0,
    )


def rk4_reference(rs, ic, t_f, dt):
    """Stage-by-stage classic RK4 on (z, z'): the oracle for ``integrate``."""
    steps = max(1, int(round(t_f / dt)))
    n = rs.n_modes
    minv = np.linalg.inv(rs.k2red)
    a_k0 = minv @ rs.k0red
    a_k1 = minv @ rs.k1red

    def deriv(y):
        z, zd = y[:n], y[n:]
        return np.concatenate([zd, -a_k1 @ zd - a_k0 @ z])

    y = np.concatenate([ic.z0, ic.zdot0]).astype(float)
    out = np.empty((steps + 1, 2 * n))
    out[0] = y
    for i in range(steps):
        k1 = deriv(y)
        k2 = deriv(y + 0.5 * dt * k1)
        k3 = deriv(y + 0.5 * dt * k2)
        k4 = deriv(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[i + 1] = y
    return dynamics.Trajectory(t=dt * np.arange(steps + 1), z=out[:, :n],
                               zdot=out[:, n:])


def direct_family(mesh, plate, net, basis):
    """R_N -> ReducedSystem by a full assembly at each R_N: the oracle."""
    def reduced(r):
        mat = build_material(plate, replace(net, resistance=r))
        return reduce(assemble(mesh, mat, bcs_ss()), basis)
    return reduced


def affine_family(mesh, plate, net, basis):
    """The search's family: the reductions at R_N = 0 and 1, combined."""
    direct = direct_family(mesh, plate, net, basis)
    return dynamics.resistance_family(direct(0.0), direct(1.0), net.inductance)


def relative_drift(en):
    return np.abs(en.total - en.total[0]).max() / en.total[0]


@pytest.fixture(scope="module")
def tuned_square4():
    mesh = generate_structured_square(4, 1.0, "crossed")
    plate = PlateParams.isotropic(1e-3, 500.0, 1.0, 0.3, coupling=(0.1, 0.1, 0.0))
    sys0 = assemble(mesh, build_material(plate, NetworkParams(inductance=1.0)),
                    bcs_ss())
    mech = modal.solve_family_modes(sys0, "mechanical", 6)
    elec = modal.solve_family_modes(sys0, "electric", 6)
    net = tune_inductance(mech, elec, NetworkParams(inductance=1.0), 0, 0)
    sys_t = assemble(mesh, build_material(plate, net), bcs_ss())
    basis = build_modal_basis(modal.solve_family_modes(sys_t, "mechanical", 6),
                              modal.solve_family_modes(sys_t, "electric", 6))
    rs = reduce(sys_t, basis)
    return mesh, plate, net, sys_t, basis, rs


class TestIntegrate:
    def test_harmonic_oscillator_closed_form(self):
        rs = single_oscillator(omega=1.0)
        ic = unimodal_ic(rs, 0, 1.0)
        T = 2 * math.pi
        traj = integrate(rs, ic, 10 * T, T / 600)
        err = np.abs(traj.z[:, 0] - np.cos(traj.t)).max()
        assert err <= 1e-8  # RK4 phase error ~ (w dt)^5/120 per step
        # and the documented coarser-step behavior stays 4th-order small
        traj2 = integrate(rs, ic, 10 * T, T / 100)
        assert np.abs(traj2.z[:, 0] - np.cos(traj2.t)).max() <= 2e-5

    def test_two_mode_beating_closed_form(self):
        # z1'' + w^2 z1 + k z2' = 0, z2'' + w^2 z2 - k z1' = 0 has the
        # complex solution zeta = e^{i k t / 2}(A e^{i W t} + B e^{-i W t}),
        # W = sqrt(w^2 + k^2/4), for zeta = z1 + i z2
        omega, kappa = 1.0, 0.1
        rs = two_mode_surrogate(omega, kappa, 0.0, 1.0)
        ic = unimodal_ic(rs, 0, 1.0)
        Tb = 2 * math.pi / kappa
        traj = integrate(rs, ic, Tb, 2 * math.pi / omega / 400)
        W = math.sqrt(omega**2 + kappa**2 / 4)
        A = (W - kappa / 2) / (2 * W)
        B = (W + kappa / 2) / (2 * W)
        zeta = np.exp(1j * kappa * traj.t / 2) * (
            A * np.exp(1j * W * traj.t) + B * np.exp(-1j * W * traj.t))
        assert np.abs(traj.z[:, 0] - zeta.real).max() < 1e-6
        assert np.abs(traj.z[:, 1] - zeta.imag).max() < 1e-6
        # complete exchange: mechanical energy minimum ~ (kappa / 2W)^2
        en = energies(rs, traj)
        assert en.mech.min() / en.mech[0] < (kappa / (2 * W))**2 + 1e-3

    def test_zero_everything_stays_zero(self):
        rs = single_oscillator()
        ic = unimodal_ic(rs, 0, 0.0)
        traj = integrate(rs, ic, 5.0, 0.01)
        assert np.all(traj.z == 0.0) and np.all(traj.zdot == 0.0)

    def test_velocity_initial_condition(self):
        rs = single_oscillator(omega=2.0)
        ic = unimodal_ic(rs, 0, 3.0, on="velocity")
        traj = integrate(rs, ic, 2.0, 0.001)
        expect = 1.5 * np.sin(2.0 * traj.t)
        assert np.abs(traj.z[:, 0] - expect).max() < 1e-7

    def test_invalid_arguments(self):
        rs = single_oscillator()
        ic = unimodal_ic(rs, 0, 1.0)
        with pytest.raises(ValidationError):
            integrate(rs, ic, 1.0, 0.0)
        with pytest.raises(ValidationError):
            unimodal_ic(rs, 3, 1.0)
        with pytest.raises(ValidationError):
            unimodal_ic(rs, 0, 1.0, on="acceleration")

    def test_blowup_names_step(self):
        rs = ReducedSystem(
            k2red=np.eye(1), k1red=np.zeros((1, 1)),
            k0red=np.array([[-1.0]]), modes=None,
            m2_mech=np.eye(1), k0_mech=np.eye(1),
            m2_elec=np.zeros((1, 1)), k0_elec=np.zeros((1, 1)), cross_ratio=0.0,
        )
        ic = unimodal_ic(rs, 0, 1.0)
        with pytest.raises(IntegrationError, match="step"):
            integrate(rs, ic, 2000.0, 1.0)

    def test_non_finite_step_count_rejected(self):
        rs = single_oscillator()
        ic = unimodal_ic(rs, 0, 1.0)
        with pytest.raises(ValidationError, match="not finite"):
            integrate(rs, ic, math.inf, 0.01)
        with pytest.raises(ValidationError, match="not finite"):
            integrate(rs, ic, 1e300, 1e-300)

    def test_unallocatable_horizon_names_t_f_dt_and_steps(self):
        # 2e17 steps of 3 states are 4.2 EiB, beyond any address space, so
        # the trajectory allocation fails at once
        rs = single_oscillator()
        ic = unimodal_ic(rs, 0, 1.0)
        with pytest.raises(IntegrationError) as exc:
            integrate(rs, ic, 2e17, 1.0)
        msg = str(exc.value)
        assert "200000000000000000 steps" in msg
        assert "t_f = 2e+17" in msg and "dt = 1" in msg


class TestIntegrateOracle:
    @pytest.mark.parametrize("resistance", [0.0, 0.2])
    def test_matches_stage_loop_on_tuned_square(self, tuned_square4, resistance):
        mesh, plate, net, _, basis, _ = tuned_square4
        sys = assemble(mesh, build_material(plate, replace(net, resistance=resistance)),
                       bcs_ss())
        rs = reduce(sys, basis)
        m1 = basis.mechanical_indices()[0]
        e1 = basis.electric_indices()[0]
        T1 = 2 * math.pi / basis.omegas[m1]
        ic = unimodal_ic(rs, m1, 1.0)
        t_f, dt = 2 * beat_period(rs, m1, e1), T1 / 100
        traj = integrate(rs, ic, t_f, dt)
        ref = rk4_reference(rs, ic, t_f, dt)
        assert np.array_equal(traj.t, ref.t)
        assert np.abs(traj.z - ref.z).max() <= 1e-12
        assert np.abs(traj.zdot - ref.zdot).max() <= 1e-12
        drift = relative_drift(energies(rs, traj))
        drift_ref = relative_drift(energies(rs, ref))
        assert drift == pytest.approx(drift_ref, rel=1e-6)

    def test_coupled_pair_with_non_identity_k2(self):
        # both stiffness blocks go through K2^-1
        rs = two_mode_surrogate(1.0, 0.1, 0.3, 1.0)
        rs = replace(rs, k2red=np.array([[2.0, 0.1], [0.1, 0.5]]))
        ic = unimodal_ic(rs, 0, 1.0)
        traj = integrate(rs, ic, 50.0, 0.02)
        ref = rk4_reference(rs, ic, 50.0, 0.02)
        assert np.abs(traj.z - ref.z).max() <= 1e-12
        assert np.abs(traj.zdot - ref.zdot).max() <= 1e-12


class TestEnergies:
    def test_conservative_drift_and_order(self, tuned_square4):
        _, _, _, _, basis, rs = tuned_square4
        m1 = basis.mechanical_indices()[0]
        e1 = basis.electric_indices()[0]
        T1 = 2 * math.pi / basis.omegas[m1]
        Tb = beat_period(rs, m1, e1)
        ic = unimodal_ic(rs, m1, 1.0)
        traj = integrate(rs, ic, 10 * Tb, T1 / 100)
        en = energies(rs, traj)
        drift = np.abs(en.total - en.total[0]).max() / en.total[0]
        assert drift <= 1e-3
        traj2 = integrate(rs, ic, 10 * Tb, T1 / 200)
        en2 = energies(rs, traj2)
        drift2 = np.abs(en2.total - en2.total[0]).max() / en2.total[0]
        assert drift2 <= 1e-4
        assert drift / drift2 >= 8.0

    def test_dissipative_monotonicity(self, tuned_square4):
        mesh, plate, net, _, basis, _ = tuned_square4
        sys_d = assemble(mesh, build_material(plate, replace(net, resistance=0.2)),
                         bcs_ss())
        rs = reduce(sys_d, basis)
        m1 = basis.mechanical_indices()[0]
        T1 = 2 * math.pi / basis.omegas[m1]
        traj = integrate(rs, unimodal_ic(rs, m1, 1.0), 60 * T1, T1 / 100)
        en = energies(rs, traj)
        increments = np.diff(en.total) / en.total[0]
        assert increments.max() <= 1e-9
        assert en.total[-1] < 0.9 * en.total[0]
        # the per-family energies are quadratic forms and stay non-negative
        assert en.mech.min() >= 0.0 and en.elec.min() >= 0.0

    def test_antiphase_envelope_alternation(self, tuned_square4):
        _, _, _, _, basis, rs = tuned_square4
        m1 = basis.mechanical_indices()[0]
        e1 = basis.electric_indices()[0]
        T1 = 2 * math.pi / basis.omegas[m1]
        Tb = beat_period(rs, m1, e1)
        traj = integrate(rs, unimodal_ic(rs, m1, 1.0), 4 * Tb, T1 / 100)
        en = energies(rs, traj)

        def crests(trace):
            p = envelope_peaks(trace)
            half = 0.45 * Tb
            keep = [i for i in p if trace[i] >= trace[
                (traj.t >= traj.t[i] - half) & (traj.t <= traj.t[i] + half)].max()]
            return [traj.t[i] for i in keep]

        merged = sorted([(t, "m") for t in crests(en.mech)]
                        + [(t, "e") for t in crests(en.elec)])
        labels = [lab for _, lab in merged]
        assert all(a != b for a, b in zip(labels, labels[1:]))

    def test_linearity_in_amplitude(self, tuned_square4):
        _, _, _, _, basis, rs = tuned_square4
        m1 = basis.mechanical_indices()[0]
        T1 = 2 * math.pi / basis.omegas[m1]
        t_f = 20 * T1
        tr1 = integrate(rs, unimodal_ic(rs, m1, 1.0), t_f, T1 / 60)
        tr3 = integrate(rs, unimodal_ic(rs, m1, 3.0), t_f, T1 / 60)
        e1 = energies(rs, tr1)
        e3 = energies(rs, tr3)
        assert np.abs(e3.total - 9.0 * e1.total).max() <= 1e-12 * 9 * e1.total[0] \
            + 1e-9 * e1.total[0]
        assert np.abs(e3.mech - 9.0 * e1.mech).max() <= 1e-9 * e1.total[0] * 9

    def test_cross_term_zero_when_conservative(self, tuned_square4):
        _, _, _, _, basis, rs = tuned_square4
        m1 = basis.mechanical_indices()[0]
        traj = integrate(rs, unimodal_ic(rs, m1, 1.0), 1.0, 0.01)
        en = energies(rs, traj)
        assert np.all(en.cross == 0.0)

    def test_power_balance_matches_resistor_losses(self, tuned_square4):
        # independent check of the whole energy chain: the rate of change of
        # the total must equal the resistor dissipation -R_N |grad alpha|^2,
        # which in reduced coordinates is -(R_N/L_N) z^T K0_elec z (G_N = 0)
        mesh, plate, net, _, basis, _ = tuned_square4
        sys_d = assemble(mesh, build_material(plate, replace(net, resistance=0.15)),
                         bcs_ss())
        rs = reduce(sys_d, basis)
        m1 = basis.mechanical_indices()[0]
        T1 = 2 * math.pi / basis.omegas[m1]
        dt = T1 / 400
        traj = integrate(rs, unimodal_ic(rs, m1, 1.0), 20 * T1, dt)
        en = energies(rs, traj)
        de = (en.total[2:] - en.total[:-2]) / (2 * dt)
        dissipation = -rs.cross_ratio * np.einsum(
            "ti,ij,tj->t", traj.z, rs.k0_elec, traj.z)[1:-1]
        scale = np.abs(de).max()
        assert np.abs(de - dissipation).max() <= 2e-3 * scale


class TestImpulse:
    def test_impulse_at_node_hits_single_w_dof(self, tuned_square4):
        _, _, _, sys_t, basis, _ = tuned_square4
        mesh = sys_t.mesh
        node = 12  # an interior grid node of the n=4 crossed mesh
        assert node not in mesh.edge_groups["boundary"]
        x, y = mesh.nodes[node]
        ic = impulse_ic(sys_t, basis, (x, y), magnitude=2.5)
        p_free = np.zeros(sys_t.n_free)
        k = sys_t.dof_map.free_index(node, 0)
        p_free[k] = 2.5
        expect = basis.vectors.T @ p_free
        assert np.abs(ic.zdot0 - expect).max() < 1e-10
        assert np.all(ic.z0 == 0.0)

    def test_central_impulse_dominated_by_first_mode(self):
        # needs the n=8 mesh (on n=4 the badly resolved (3,1) shape
        # overshoots pointwise). The point sits in the central area but off
        # the exact center, and is chosen so that the fundamental dominates
        # for any orientation of the nearly degenerate (1,3)/(3,1) pair,
        # whose discrete eigenvectors are +/- combinations.
        mesh = generate_structured_square(8, 1.0, "crossed")
        sys = assemble(mesh, material(), bcs_ss())
        basis = build_modal_basis(modal.solve_family_modes(sys, "mechanical", 6),
                                  modal.solve_family_modes(sys, "electric", 6))
        ic = impulse_ic(sys, basis, (0.38, 0.42))
        m_idx = basis.mechanical_indices()
        mech_amp = np.abs(ic.zdot0[m_idx])
        assert mech_amp[0] == mech_amp.max()
        share_central = mech_amp[0] / mech_amp.sum()
        ic2 = impulse_ic(sys, basis, (0.15, 0.2))
        mech_amp2 = np.abs(ic2.zdot0[m_idx])
        share_peripheral = mech_amp2[0] / mech_amp2.sum()
        assert share_peripheral < share_central

    def test_nodal_impulse_matches_per_dof_loop(self, tuned_square4):
        _, _, _, sys_t, basis, _ = tuned_square4
        point, magnitude = (0.31, 0.58), 1.7
        e = sys_t.mesh.contains_point(*point)
        tri = sys_t.mesh.triangles[e]
        geom = triangle_geometry(sys_t.mesh.nodes[tri])
        ev = specht_shape_functions(
            geom, _barycentric(sys_t.mesh.nodes[tri], *point, tol=1e-9))
        p_full = np.zeros(DOFS_PER_NODE * sys_t.mesh.n_nodes)
        for local, node in enumerate(tri):
            for comp in range(3):
                p_full[DOFS_PER_NODE * node + comp] = (
                    magnitude * ev.value[3 * local + comp])
        expect = basis.vectors.T @ p_full[sys_t.dof_map.free_to_full]
        ic = impulse_ic(sys_t, basis, point, magnitude)
        assert np.array_equal(ic.zdot0, expect)

    def test_point_outside_domain(self, tuned_square4):
        _, _, _, sys_t, basis, _ = tuned_square4
        with pytest.raises(ValidationError, match="outside"):
            impulse_ic(sys_t, basis, (2.0, 0.5))


class TestRecoverField:
    def test_unimodal_snapshot_is_mode_shape(self, tuned_square4):
        _, _, _, sys_t, basis, rs = tuned_square4
        m1 = basis.mechanical_indices()[0]
        traj = integrate(rs, unimodal_ic(rs, m1, 2.0), 0.1, 0.01)
        snap = recover_field(basis, traj, 0.0)
        dm = sys_t.dof_map
        full = np.zeros(dm.n_full)
        full[dm.free_to_full] = 2.0 * basis.vectors[:, m1]
        fields = full.reshape(dm.n_nodes, 4)
        assert np.abs(snap["w"] - fields[:, 0]).max() < 1e-12
        assert np.abs(snap["alpha"] - fields[:, 3]).max() < 1e-12
        assert snap["on_grid"]

    def test_zero_state_zero_field(self, tuned_square4):
        _, _, _, _, basis, rs = tuned_square4
        traj = integrate(rs, unimodal_ic(rs, 0, 0.0), 0.1, 0.01)
        snap = recover_field(basis, traj, 0.05)
        assert np.all(snap["w"] == 0.0) and np.all(snap["alpha"] == 0.0)

    def test_off_grid_flag(self, tuned_square4):
        _, _, _, _, basis, rs = tuned_square4
        traj = integrate(rs, unimodal_ic(rs, 0, 1.0), 0.1, 0.01)
        snap = recover_field(basis, traj, 0.0449)
        assert not snap["on_grid"]
        assert snap["time"] == pytest.approx(0.04 if snap["step"] == 4 else 0.05)

    def test_full_basis_roundtrip(self):
        mesh = generate_structured_square(2, 1.0, "crossed")
        sys = assemble(mesh, material(), bcs_ss())
        dm = sys.dof_map
        basis = build_modal_basis(
            modal.solve_family_modes(sys, "mechanical",
                                     int(dm.mechanical_mask.sum())),
            modal.solve_family_modes(sys, "electric",
                                     int(dm.electric_mask.sum())))
        t = basis.projection
        k2 = sys.k2.toarray()
        # rows are K2-orthonormal, so the K2-weighted round trip is exact
        assert np.abs(t @ k2 @ t.T - np.eye(dm.n_free)).max() < 1e-10
        rng = np.random.default_rng(0)
        z = rng.normal(size=dm.n_free)
        q = t.T @ z
        assert np.abs(t @ (k2 @ q) - z).max() < 1e-10


class TestDampingMachinery:
    def test_fit_on_synthetic_decay(self):
        omega, zeta = 5.0, 0.03
        t = np.linspace(0, 40, 8001)
        energy = np.exp(-2 * zeta * omega * t) * (0.6 + 0.4 * np.cos(2 * omega * t))
        traj = dynamics.Trajectory(t=t, z=None, zdot=None)
        fit = fit_damping(traj, energy, omega)
        assert fit.zeta == pytest.approx(zeta, rel=0.05)

    def test_fit_beating_with_crest_window(self):
        omega, zeta, kappa = 5.0, 0.02, 0.4
        t = np.linspace(0, 120, 24001)
        envelope = np.cos(kappa * t / 2) ** 2
        energy = np.exp(-2 * zeta * omega * t) * envelope \
            * (0.8 + 0.2 * np.cos(2 * omega * t)) + 1e-12
        traj = dynamics.Trajectory(t=t, z=None, zdot=None)
        fit = fit_damping(traj, energy, omega, beat_period=2 * math.pi / kappa)
        assert fit.zeta == pytest.approx(zeta, rel=0.05)

    def test_default_horizon_spans_beats_of_nearest_partner(self, tuned_square4):
        *_, basis, rs = tuned_square4
        m1, e1 = basis.mechanical_indices()[0], basis.electric_indices()[0]
        period = 2 * math.pi / basis.omegas[m1]
        t_f, dt = dynamics.default_horizon(rs, m1, 3.0, 50)
        assert t_f == 3.0 * dynamics.beat_period(rs, m1, e1)
        assert dt == min(period / 50, dynamics.suggested_dt(rs))
        # no energy exchange: a beat counts 20 drive periods
        rs0 = replace(rs, k1red=np.zeros_like(rs.k1red))
        assert dynamics.default_horizon(rs0, m1, 3.0, 50)[0] == \
            pytest.approx(60 * period)

    def test_settling_time(self):
        t = np.linspace(0, 10, 101)
        energy = np.exp(-t)
        # falls below 5% at t = -ln(0.05) ~ 3.0
        assert settling_time(t, energy) == pytest.approx(3.0, abs=0.11)
        assert settling_time(t, np.ones(101)) == math.inf

    def test_zero_resistance_zero_zeta(self, tuned_square4):
        mesh, plate, net, _, basis, rs = tuned_square4
        m1 = basis.mechanical_indices()[0]
        e1 = basis.electric_indices()[0]
        T1 = 2 * math.pi / basis.omegas[m1]
        Tb = beat_period(rs, m1, e1)
        traj = integrate(rs, unimodal_ic(rs, m1, 1.0), 4 * Tb, T1 / 60)
        en = energies(rs, traj)
        fit = fit_damping(traj, en.mech, basis.omegas[m1], beat_period=Tb)
        assert fit.zeta <= 1e-6

    @pytest.mark.parametrize("conductance", [0.0, 0.7])
    def test_resistance_family_matches_direct_assembly(self, tuned_square4,
                                                       conductance):
        mesh, plate, net, _, basis, _ = tuned_square4
        net = replace(net, conductance=conductance)
        reduced = affine_family(mesh, plate, net, basis)
        for r in (0.013, 0.4, 3.7):
            direct = direct_family(mesh, plate, net, basis)(r)
            affine = reduced(r)
            for name in ("k2red", "k1red", "k0red", "m2_mech",
                         "k0_mech", "m2_elec", "k0_elec"):
                got, want = getattr(affine, name), getattr(direct, name)
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), name
            assert affine.cross_ratio == pytest.approx(direct.cross_ratio,
                                                       rel=1e-15)
            assert affine.modes is basis

    @pytest.mark.parametrize("conductance", [0.0, 0.7])
    def test_evaluator_matches_direct_path(self, tuned_square4, conductance):
        mesh, plate, net, _, basis, rs = tuned_square4
        net = replace(net, conductance=conductance)
        m1 = basis.mechanical_indices()[0]
        e1 = basis.electric_indices()[0]
        kwargs = dict(t_f=4 * beat_period(rs, m1, e1),
                      dt=2 * math.pi / basis.omegas[m1] / 60)
        evaluate = dynamics.damping_evaluator(
            affine_family(mesh, plate, net, basis), basis, m1, **kwargs)
        direct = dynamics.damping_evaluator(
            direct_family(mesh, plate, net, basis), basis, m1, **kwargs)
        for r in (0.013, 0.4, 3.7):
            got, want = evaluate(r), direct(r)
            assert got.zeta == pytest.approx(want.zeta, rel=1e-9, abs=1e-15)
            assert got.n_peaks == want.n_peaks
            assert got.settling_time == pytest.approx(want.settling_time)

    def test_evaluator_rejects_negative_resistance(self, tuned_square4):
        mesh, plate, net, _, basis, rs = tuned_square4
        m1 = basis.mechanical_indices()[0]
        evaluate = dynamics.damping_evaluator(
            affine_family(mesh, plate, net, basis), basis, m1, t_f=1.0, dt=0.01)
        with pytest.raises(ValidationError, match="resistance"):
            evaluate(-0.1)
        with pytest.raises(ValidationError, match="resistance"):
            evaluate(float("nan"))

    def test_optimize_bracket_validation(self):
        with pytest.raises(ValidationError):
            optimize_resistance(lambda r, keep_trajectory=False: None, (1.0, 0.5))

    def test_optimize_fallback_on_bimodal(self):
        calls = []

        def evaluate(r, keep_trajectory=False):
            calls.append(r)
            zeta = math.exp(-(math.log(r) - math.log(0.1)) ** 2) \
                + 0.9 * math.exp(-(math.log(r) - math.log(3.0)) ** 2 / 0.3)
            return dynamics.DampingSample(
                resistance=r, zeta=zeta, settling_time=1.0, n_peaks=5,
                trajectory=dynamics.Trajectory(
                    t=np.array([0.0]), z=np.zeros((1, 1)), zdot=np.zeros((1, 1)),
                    energies=dynamics.EnergyTraces(*(np.zeros(1),) * 4)))

        with pytest.warns(UserWarning, match="single-peaked"):
            report = optimize_resistance(evaluate, (0.01, 10.0))
        assert report.warnings
        assert report.best.zeta >= 0.95

    def test_golden_section_finds_quadratic_peak(self):
        def evaluate(r, keep_trajectory=False):
            zeta = 1.0 / (r / 0.7 + 0.7 / r)  # peak exactly at r = 0.7
            return dynamics.DampingSample(
                resistance=r, zeta=zeta, settling_time=1.0, n_peaks=9,
                trajectory=dynamics.Trajectory(
                    t=np.array([0.0]), z=np.zeros((1, 1)), zdot=np.zeros((1, 1)),
                    energies=dynamics.EnergyTraces(*(np.zeros(1),) * 4)))

        report = optimize_resistance(evaluate, (0.01, 50.0))
        assert not report.warnings
        assert report.best.resistance == pytest.approx(0.7, rel=0.02)
        assert set(report.regimes) == {"sub_critical", "critical", "super_critical"}


def envelope_peaks_reference(v):
    """The former per-index scan: the oracle for ``envelope_peaks``."""
    return np.array([i for i in range(1, len(v) - 1)
                     if v[i] >= v[i - 1] and v[i] > v[i + 1]], dtype=int)


def beat_crests_reference(t, energy, peaks, half):
    """The former one-mask-per-peak window: the oracle for ``beat_crests``."""
    return np.array([p for p in peaks if energy[p] >= energy[
        (t >= t[p] - half) & (t <= t[p] + half)].max()], dtype=int)


def fit_traces():
    rng = np.random.default_rng(7)
    n = 3000
    uniform = 0.01 * np.arange(n)
    uneven = np.cumsum(rng.uniform(0.001, 0.02, n))
    beat = (np.exp(-0.05 * uniform) * np.cos(0.4 * uniform) ** 2
            * (0.8 + 0.2 * np.cos(12.0 * uniform)) + 1e-12)
    return {
        "random": (uniform, rng.random(n)),
        # window ends land exactly on samples
        "random_integer_time": (np.arange(n, dtype=float), rng.random(n)),
        "plateau": (uneven, np.round(4 * rng.random(n))),
        "beat": (uniform, beat),
        "beat_uneven_time": (uneven, beat),
        "ramp": (uniform, np.arange(n, dtype=float)),
    }


class TestVectorizedFit:
    @pytest.mark.parametrize("name", sorted(fit_traces()))
    def test_envelope_peaks_match_scan(self, name):
        _, energy = fit_traces()[name]
        for v in (energy, energy[:3], energy[:2], energy[:0]):
            got = envelope_peaks(v)
            assert got.dtype.kind == "i"
            assert np.array_equal(got, envelope_peaks_reference(v))

    def test_plateaus_are_left_inclusive(self):
        v = np.array([0.0, 1.0, 1.0, 0.0, 2.0, 2.0, 2.0, 3.0, 3.0, 1.0])
        assert envelope_peaks(v).tolist() == [2, 8]
        assert envelope_peaks_reference(v).tolist() == [2, 8]

    @pytest.mark.parametrize("name", ["beat", "beat_uneven_time", "plateau",
                                      "random", "random_integer_time"])
    def test_beat_crests_match_masks(self, name):
        t, energy = fit_traces()[name]
        peaks = envelope_peaks(energy)
        for half in (0.0, 0.013, 3.0, 0.45 * 2 * math.pi / 0.8, 2.0 * t[-1]):
            got = dynamics.beat_crests(t, energy, peaks, half)
            assert np.array_equal(got,
                                  beat_crests_reference(t, energy, peaks, half))

    def test_fit_unchanged_on_beating_trace(self):
        t, energy = fit_traces()["beat"]
        traj = dynamics.Trajectory(t=t, z=None, zdot=None)
        fit = fit_damping(traj, energy, 6.0, beat_period=2 * math.pi / 0.8)
        crests = beat_crests_reference(t, energy, envelope_peaks_reference(energy),
                                       0.45 * 2 * math.pi / 0.8)
        slope = np.polyfit(t[crests], np.log(energy[crests]), 1)[0]
        assert fit.n_peaks == len(crests)
        assert fit.zeta == max(0.0, -slope / 12.0)


class TestSearchEnergies:
    def test_mechanical_energy_is_the_energies_trace(self, tuned_square4):
        *_, basis, rs = tuned_square4
        m1 = basis.mechanical_indices()[0]
        traj = integrate(rs, unimodal_ic(rs, m1, 1.0), 3.0, 0.01)
        mech = dynamics.mechanical_energy(rs, traj)
        assert np.array_equal(mech, energies(rs, traj).mech)

    def test_evaluator_builds_all_traces_only_for_kept_runs(
            self, tuned_square4, monkeypatch):
        mesh, plate, net, _, basis, rs = tuned_square4
        m1, e1 = basis.mechanical_indices()[0], basis.electric_indices()[0]
        evaluate = dynamics.damping_evaluator(
            affine_family(mesh, plate, net, basis), basis, m1,
            t_f=4 * beat_period(rs, m1, e1),
            dt=2 * math.pi / basis.omegas[m1] / 60)
        calls = []
        full = dynamics.energies
        monkeypatch.setattr(dynamics, "energies",
                            lambda *a: calls.append(1) or full(*a))
        plain = evaluate(0.2)
        assert calls == [] and plain.trajectory is None and plain.converged
        kept = evaluate(0.2, keep_trajectory=True)
        assert calls == [1]
        assert kept.trajectory.energies is not None
        assert (kept.zeta, kept.settling_time) == (plain.zeta,
                                                   plain.settling_time)

    @pytest.mark.filterwarnings("ignore:damping ratio not single-peaked")
    def test_unconverged_fits_are_reported(self, tuned_square4):
        mesh, plate, net, _, basis, _ = tuned_square4
        m1 = basis.mechanical_indices()[0]
        # one drive period holds two energy peaks, and nothing extends it
        period = 2 * math.pi / basis.omegas[m1]
        evaluate = dynamics.damping_evaluator(
            affine_family(mesh, plate, net, basis), basis, m1,
            t_f=period, dt=period / 60, max_extensions=0)
        report = optimize_resistance(evaluate, (0.02, 2.0))
        assert not any(s.converged for s in report.samples)
        warning, = [w for w in report.warnings if "not converged" in w]
        named = warning.split("R_N = ")[1].split(", ")
        evaluated = {s.resistance for s in report.samples}
        evaluated |= {s.resistance for s in report.regimes.values()}
        assert sorted(float(r) for r in named) == sorted(evaluated)

    def test_converged_search_has_no_fit_warning(self, tuned_square4):
        mesh, plate, net, _, basis, rs = tuned_square4
        m1, e1 = basis.mechanical_indices()[0], basis.electric_indices()[0]
        evaluate = dynamics.damping_evaluator(
            affine_family(mesh, plate, net, basis), basis, m1,
            t_f=4 * beat_period(rs, m1, e1),
            dt=2 * math.pi / basis.omegas[m1] / 60)
        report = optimize_resistance(evaluate, (0.02, 2.0))
        assert all(s.converged for s in report.samples)
        assert not any("not converged" in w for w in report.warnings)
