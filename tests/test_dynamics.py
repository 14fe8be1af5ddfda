import math
import tracemalloc
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from pemplate import blas, cli, csvfmt, dynamics, modal
from pemplate.assembly import DOFS_PER_NODE, BoundaryCondition, assemble
from pemplate.config import load_config
from pemplate.dynamics import (
    beat_period,
    energies,
    envelope_peaks,
    fit_damping,
    impulse_ic,
    integrate,
    optimize_resistance,
    settling_time,
    unimodal_ic,
)
from pemplate.element import specht_shape_functions, triangle_geometry
from pemplate.errors import (
    IntegrationError,
    StepStabilityError,
    StiffStepError,
    ValidationError,
)
from pemplate.material import (
    NetworkParams,
    PlateParams,
    build_material,
    conservative_twin,
)
from pemplate.mesh import generate_structured_square
from pemplate.modal import (
    ModeSet,
    ReducedSystem,
    build_modal_basis,
    reduce,
    tune_inductance,
)

import oracle
from oracle import HeldTrajectory, held
from surrogate import two_mode_surrogate


def material(coupling=(0.1, 0.1, 0.0), l_n=1.0, r_n=0.0):
    plate = PlateParams.isotropic(1e-3, 500.0, 1.0, 0.3, coupling=coupling)
    return build_material(plate, NetworkParams(inductance=l_n, resistance=r_n))


def bcs_ss():
    return [BoundaryCondition("boundary", "simply_supported"),
            BoundaryCondition("boundary", "grounded")]


def one_mode(k0):
    """One mechanical mode of unit mass and stiffness ``k0``."""
    modes = ModeSet(omegas=np.sqrt(np.abs([k0])), vectors=np.eye(1),
                    labels=("mechanical",))
    return ReducedSystem(
        k2red=np.eye(1), k1red=np.zeros((1, 1)), k0red=np.array([[k0]]),
        k0sym=np.array([[k0]]), modes=modes, cross_ratio=0.0,
    )


def single_oscillator(omega=1.0):
    return one_mode(omega**2)


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
    return HeldTrajectory(t=dt * np.arange(steps + 1), y=out)


def increment_loop(rs, ic, t_f, dt):
    """One RK4 increment y <- y + D y per step: the oracle for the blocks."""
    steps = max(1, int(round(t_f / dt)))
    n = rs.n_modes
    m = 2 * n
    minv = np.linalg.inv(rs.k2red)
    ha = np.zeros((m, m))
    ha[:n, n:] = dt * np.eye(n)
    ha[n:, :n] = -dt * (minv @ rs.k0red)
    ha[n:, n:] = -dt * (minv @ rs.k1red)
    eye = np.eye(m)
    d = ha @ (eye + ha @ (eye / 2.0 + ha @ (eye / 6.0 + ha / 24.0)))
    out = np.empty((steps + 1, m))
    out[0] = np.concatenate([ic.z0, ic.zdot0])
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            out[k + 1] = out[k] + d @ out[k]
    return HeldTrajectory(t=dt * np.arange(steps + 1), y=out)


def first_non_finite_step(traj):
    finite = np.isfinite(traj.z).all(axis=1) & np.isfinite(traj.zdot).all(axis=1)
    return int(np.argmin(finite))


def unstable_oscillator(k0):
    """One mode with negative stiffness: the state grows without bound."""
    return one_mode(k0)


def partition_forms(sys, basis):
    """The per-family projections ``reduce`` once carried (``m2_mech``,
    ``k0_mech``, ``m2_elec``, ``k0_elec``): the oracle for the family blocks
    of ``k2red`` and ``k0sym``."""
    mech = sys.dof_map.mechanical_mask
    k0sym = 0.5 * (sys.k0 + sys.k0.T)
    forms = {}
    for family, inside in (("mech", mech), ("elec", ~mech)):
        v = basis.vectors * inside[:, None]
        forms[f"m2_{family}"] = v.T @ (sys.k2 @ v)
        forms[f"k0_{family}"] = v.T @ (k0sym @ v)
    return forms


def partition_energies(forms, r, traj):
    """The energy traces as the partition forms gave them, each form
    a[t] . M . b[t] evaluated as (a @ M) . b."""
    z, zd = traj.z, traj.zdot

    def form(a, m, b):
        return np.einsum("ti,ti->t", a @ m, b)

    mech = 0.5 * (form(zd, forms["m2_mech"], zd) + form(z, forms["k0_mech"], z))
    elec = 0.5 * (form(zd, forms["m2_elec"], zd) + form(z, forms["k0_elec"], z))
    cross = np.zeros_like(mech)
    if r != 0.0:
        cross = (r * form(zd, forms["m2_elec"], z)
                 + 0.5 * r * r * form(z, forms["m2_elec"], z))
    return dynamics.EnergyTraces(mech=mech, elec=elec, cross=cross,
                                 total=mech + elec + cross)


def direct_family(mesh, plate, net, basis):
    """R_N -> ReducedSystem by a full assembly at each R_N: the oracle."""
    def reduced(r):
        mat = build_material(plate, replace(net, resistance=r))
        return reduce(assemble(mesh, mat, bcs_ss()), basis)
    return reduced


def affine_family(mesh, plate, net, basis):
    """The search's family: R_N and G_N scaled into the one reduction of the
    conservative network."""
    sys = assemble(mesh, build_material(plate, conservative_twin(net)), bcs_ss())
    return dynamics.resistance_family(reduce(sys, basis), sys.material,
                                      net.conductance)


def relative_drift(en):
    return np.abs(en.total - en.total[0]).max() / en.total[0]


def tuned_square(piezo_capacitance=0.0, capacitance=1.0):
    mesh = generate_structured_square(4, 1.0, "crossed")
    plate = PlateParams.isotropic(1e-3, 500.0, 1.0, 0.3, coupling=(0.1, 0.1, 0.0),
                                  piezo_capacitance=piezo_capacitance)
    net0 = NetworkParams(inductance=1.0, capacitance=capacitance)
    sys0 = assemble(mesh, build_material(plate, net0), bcs_ss())
    mech = modal.solve_family_modes(sys0, "mechanical", 6)
    elec = modal.solve_family_modes(sys0, "electric", 6)
    net = tune_inductance(mech, elec, net0, 0, 0)
    sys_t = assemble(mesh, build_material(plate, net), bcs_ss())
    basis = build_modal_basis(modal.solve_family_modes(sys_t, "mechanical", 6),
                              modal.solve_family_modes(sys_t, "electric", 6))
    rs = reduce(sys_t, basis)
    return mesh, plate, net, sys_t, basis, rs


@pytest.fixture(scope="module")
def tuned_square4():
    return tuned_square()


@pytest.fixture(scope="module")
def tuned_square4_cn():
    """C_N = K_c + g_ee = 1.65: a family that drops C_N from its G_N terms
    is wrong here, and right at C_N = 1."""
    return tuned_square(piezo_capacitance=0.35, capacitance=1.3)


# (G_N, fixture) of the family-versus-assembly checks
FAMILY_CASES = [
    pytest.param(0.0, "tuned_square4", id="0.0"),
    pytest.param(0.7, "tuned_square4", id="0.7"),
    pytest.param(0.7, "tuned_square4_cn", id="0.7-C_N1.65"),
]


class TestIntegrate:
    def test_harmonic_oscillator_closed_form(self):
        rs = single_oscillator(omega=1.0)
        ic = unimodal_ic(rs, 0, 1.0)
        T = 2 * math.pi
        traj = held(integrate(rs, ic, 10 * T, T / 600))
        err = np.abs(traj.z[:, 0] - np.cos(traj.t)).max()
        assert err <= 1e-8  # RK4 phase error ~ (w dt)^5/120 per step
        # and the documented coarser-step behavior stays 4th-order small
        traj2 = held(integrate(rs, ic, 10 * T, T / 100))
        assert np.abs(traj2.z[:, 0] - np.cos(traj2.t)).max() <= 2e-5

    def test_two_mode_beating_closed_form(self):
        # z1'' + w^2 z1 + k z2' = 0, z2'' + w^2 z2 - k z1' = 0 has the
        # complex solution zeta = e^{i k t / 2}(A e^{i W t} + B e^{-i W t}),
        # W = sqrt(w^2 + k^2/4), for zeta = z1 + i z2
        omega, kappa = 1.0, 0.1
        rs = two_mode_surrogate(omega, kappa, 0.0, 1.0)
        ic = unimodal_ic(rs, 0, 1.0)
        Tb = 2 * math.pi / kappa
        traj = held(integrate(rs, ic, Tb, 2 * math.pi / omega / 400))
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
        traj = held(integrate(rs, ic, 5.0, 0.01))
        assert np.all(traj.z == 0.0) and np.all(traj.zdot == 0.0)

    def test_velocity_initial_condition(self):
        rs = single_oscillator(omega=2.0)
        ic = unimodal_ic(rs, 0, 3.0, on="velocity")
        traj = held(integrate(rs, ic, 2.0, 0.001))
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
        rs = unstable_oscillator(-1.0)
        ic = unimodal_ic(rs, 0, 1.0)
        traj = integrate(rs, ic, 2000.0, 1.0)  # stepped as it is read
        with pytest.raises(IntegrationError, match="step"):
            held(traj)

    @pytest.mark.parametrize("amplitude", [1.0, 0.0])
    def test_step_outside_stability_region_raises(self, amplitude):
        # an undamped mode is stable for dt |omega| up to 2 sqrt(2) = 2.828:
        # |R(2.84 i)| = 1.029 grows the state, and a zero state as well
        rs = single_oscillator(omega=2.0)
        with pytest.raises(StepStabilityError) as exc:
            integrate(rs, unimodal_ic(rs, 0, amplitude), 100.0, 1.42)
        msg = str(exc.value)
        assert "dt = 1.42" in msg and "largest |omega| 2;" in msg
        assert "spectral radius is 1.029" in msg

    def test_step_just_inside_stability_region_runs(self):
        rs = single_oscillator(omega=2.0)
        traj = held(integrate(rs, unimodal_ic(rs, 0, 1.0), 100.0, 1.41))
        assert np.abs(traj.z).max() <= 1.0

    def test_overflowing_step_matrix_raises(self):
        rs = single_oscillator(omega=1e5)
        with pytest.raises(StepStabilityError, match="spectral radius is inf"):
            integrate(rs, unimodal_ic(rs, 0, 1.0), 1e301, 1e300)

    def test_damped_pair_outside_stability_region_raises(self):
        # damping shrinks the propagator, but not enough at dt |omega| = 4
        rs = two_mode_surrogate(1.0, 0.1, 0.3, 1.0)
        with pytest.raises(StepStabilityError, match="spectral radius"):
            integrate(rs, unimodal_ic(rs, 0, 1.0), 40.0, 4.0)

    def test_step_caps_a_fast_rate_inside_the_stability_region(self):
        # R / L = 500 puts a real eigenvalue near -500 next to the drive's
        # omega = 1: a drive period / 60 is dt |lambda| ~ 52, far outside
        rs = two_mode_surrogate(1.0, 0.1, 500.0, 1.0)
        share = 2 * math.pi / 60
        rate = np.abs(np.linalg.eigvals(dynamics._rate_matrix(rs))).max()
        dt = dynamics.step(rs, 0, 60)
        assert dt == dynamics.STEP_LIMIT / rate < share
        ic = unimodal_ic(rs, 0, 1.0)
        with pytest.raises(StepStabilityError):
            integrate(rs, ic, 100 * share, share)
        traj = held(integrate(rs, ic, 100 * share, dt))
        assert np.abs(traj.z).max() <= 1.0
        # a slow system keeps the drive period's share to the bit
        rs = single_oscillator(omega=2.0)
        assert dynamics.step(rs, 0, 60) == 2.0 * math.pi / 2.0 / 60

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
        traj = held(integrate(rs, ic, t_f, dt))
        ref = rk4_reference(rs, ic, t_f, dt)
        assert np.array_equal(traj.t, ref.t)
        assert np.abs(traj.z - ref.z).max() <= 1e-12
        assert np.abs(traj.zdot - ref.zdot).max() <= 1e-12
        drift = relative_drift(energies(rs, traj))
        drift_ref = relative_drift(energies(rs, ref))
        assert drift == pytest.approx(drift_ref, rel=1e-6)

    @pytest.mark.parametrize("resistance", [0.0, 0.2])
    @pytest.mark.parametrize("steps", [1, 63, 64, 65, 3 * 64 + 17])
    def test_blocks_match_step_loops(self, tuned_square4, resistance, steps):
        # step counts around one block of dynamics.BLOCK rows and a ragged
        # last block, against one increment per step and against the stages
        assert dynamics.BLOCK == 64
        mesh, plate, net, _, basis, _ = tuned_square4
        rs = affine_family(mesh, plate, net, basis)(resistance)
        m1 = basis.mechanical_indices()[0]
        dt = 2 * math.pi / basis.omegas[m1] / 100
        ic = unimodal_ic(rs, m1, 1.0)
        traj = held(integrate(rs, ic, steps * dt, dt))
        assert len(traj.t) == steps + 1
        for ref in (increment_loop(rs, ic, steps * dt, dt),
                    rk4_reference(rs, ic, steps * dt, dt)):
            assert np.array_equal(traj.t, ref.t)
            assert np.abs(traj.z - ref.z).max() <= 1e-12
            assert np.abs(traj.zdot - ref.zdot).max() <= 1e-12

    def test_blowup_in_a_later_block_names_first_non_finite_step(self):
        # growth of about 2.7 per step overflows near step 710, in block 12
        rs = unstable_oscillator(-1.0)
        ic = unimodal_ic(rs, 0, 1.0)
        step = first_non_finite_step(increment_loop(rs, ic, 2000.0, 1.0))
        assert step > 10 * dynamics.BLOCK
        with pytest.raises(IntegrationError,
                           match=rf"non-finite state at step {step} "):
            held(integrate(rs, ic, 2000.0, 1.0))

    def test_overflowing_increments_match_step_loop(self):
        # one step multiplies by about 4e10, so powers beyond the 29th
        # overflow: a zero state must stay zero and a unit state must fail
        # at the step where one increment per step fails
        rs = unstable_oscillator(-1e6)
        zero = held(integrate(rs, unimodal_ic(rs, 0, 0.0), 200.0, 1.0))
        assert np.all(zero.z == 0.0) and np.all(zero.zdot == 0.0)
        ic = unimodal_ic(rs, 0, 1.0)
        step = first_non_finite_step(increment_loop(rs, ic, 200.0, 1.0))
        with pytest.raises(IntegrationError,
                           match=rf"non-finite state at step {step} "):
            held(integrate(rs, ic, 200.0, 1.0))

    def test_coupled_pair_with_non_identity_k2(self):
        # both stiffness blocks go through K2^-1
        rs = two_mode_surrogate(1.0, 0.1, 0.3, 1.0)
        rs = replace(rs, k2red=np.array([[2.0, 0.1], [0.1, 0.5]]))
        ic = unimodal_ic(rs, 0, 1.0)
        traj = held(integrate(rs, ic, 50.0, 0.02))
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

    def test_traces_match_three_operand_forms(self, tuned_square4):
        mesh, plate, net, _, basis, _ = tuned_square4
        rs = affine_family(mesh, plate, net, basis)(0.2)
        forms = partition_forms(assemble(mesh, build_material(
            plate, replace(net, resistance=0.2)), bcs_ss()), basis)
        m1 = basis.mechanical_indices()[0]
        T1 = 2 * math.pi / basis.omegas[m1]
        traj = held(integrate(rs, unimodal_ic(rs, m1, 1.0), 10 * T1, T1 / 100))
        z, zd = traj.z, traj.zdot

        def form(a, m, b):
            return np.einsum("ti,ij,tj->t", a, m, b)

        r = rs.cross_ratio
        mech = 0.5 * (form(zd, forms["m2_mech"], zd)
                      + form(z, forms["k0_mech"], z))
        elec = 0.5 * (form(zd, forms["m2_elec"], zd)
                      + form(z, forms["k0_elec"], z))
        cross = (r * form(zd, forms["m2_elec"], z)
                 + 0.5 * r * r * form(z, forms["m2_elec"], z))
        en = energies(rs, traj)
        assert r > 0.0 and np.abs(cross).max() > 0.0
        for got, want in ((en.mech, mech), (en.elec, elec), (en.cross, cross),
                          (en.total, mech + elec + cross),
                          (dynamics.mechanical_energy(rs, traj), mech)):
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

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
        traj = held(integrate(rs, unimodal_ic(rs, m1, 1.0), 20 * T1, dt))
        en = energies(rs, traj)
        de = (en.total[2:] - en.total[:-2]) / (2 * dt)
        k0_elec = partition_forms(sys_d, basis)["k0_elec"]
        dissipation = -rs.cross_ratio * np.einsum(
            "ti,ij,tj->t", traj.z, k0_elec, traj.z)[1:-1]
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
        k = sys_t.dof_map.full_to_free[4 * node]  # its w DOF
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
        e, L = sys_t.mesh.locate(*point)
        tri = sys_t.mesh.triangles[e]
        geom = triangle_geometry(sys_t.mesh.nodes[tri])
        value = specht_shape_functions(geom, L[None]).value[0]
        p_full = np.zeros(DOFS_PER_NODE * sys_t.mesh.n_nodes)
        for local, node in enumerate(tri):
            for comp in range(3):
                p_full[DOFS_PER_NODE * node + comp] = (
                    magnitude * value[3 * local + comp])
        expect = basis.vectors.T @ p_full[sys_t.dof_map.free_to_full]
        ic = impulse_ic(sys_t, basis, point, magnitude)
        assert np.array_equal(ic.zdot0, expect)

    def test_point_outside_domain(self, tuned_square4):
        _, _, _, sys_t, basis, _ = tuned_square4
        with pytest.raises(ValidationError, match="outside"):
            impulse_ic(sys_t, basis, (2.0, 0.5))


class TestDampingMachinery:
    def test_fit_on_synthetic_decay(self):
        omega, zeta = 5.0, 0.03
        t = np.linspace(0, 40, 8001)
        energy = np.exp(-2 * zeta * omega * t) * (0.6 + 0.4 * np.cos(2 * omega * t))
        traj = HeldTrajectory(t=t, y=None)
        fit = fit_damping(traj, energy, omega)
        assert fit.zeta == pytest.approx(zeta, rel=0.05)

    def test_fit_beating_with_crest_window(self):
        omega, zeta, kappa = 5.0, 0.02, 0.4
        t = np.linspace(0, 120, 24001)
        envelope = np.cos(kappa * t / 2) ** 2
        energy = np.exp(-2 * zeta * omega * t) * envelope \
            * (0.8 + 0.2 * np.cos(2 * omega * t)) + 1e-12
        traj = HeldTrajectory(t=t, y=None)
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

    def test_round_off_kappa_is_no_beat(self):
        # a pair uncoupled by symmetry reads kappa ~ 1e-13 omega from
        # round-off; the smallest coupling of a retained pair on the presets
        # is ~2e-8 omega
        omega = 3.0
        for ratio, couples in ((0.0, False), (1.07e-13, False),
                               (dynamics.UNCOUPLED_KAPPA, False),
                               (2.0 * dynamics.UNCOUPLED_KAPPA, True),
                               (2.2e-8, True)):
            rs = two_mode_surrogate(omega, ratio * omega, 0.0, 1.0)
            assert math.isfinite(beat_period(rs, 0, 1)) == couples, ratio
            assert math.isfinite(beat_period(rs, 1, 0)) == couples, ratio
        rs = two_mode_surrogate(omega, 1e-13 * omega, 0.0, 1.0)
        assert dynamics.default_horizon(rs, 0, 3.0, 50)[0] == \
            pytest.approx(60 * 2 * math.pi / omega)

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

    @pytest.mark.parametrize("conductance, case", FAMILY_CASES)
    def test_resistance_family_matches_direct_assembly(self, request,
                                                       conductance, case):
        mesh, plate, net, _, basis, _ = request.getfixturevalue(case)
        net = replace(net, conductance=conductance)
        reduced = affine_family(mesh, plate, net, basis)
        for r in (0.013, 0.4, 3.7):
            direct = direct_family(mesh, plate, net, basis)(r)
            affine = reduced(r)
            for name in ("k2red", "k1red", "k0red", "k0sym"):
                got, want = getattr(affine, name), getattr(direct, name)
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), name
            assert affine.cross_ratio == pytest.approx(direct.cross_ratio,
                                                       rel=1e-15)
            assert affine.modes is basis

    @pytest.mark.parametrize("conductance, case", FAMILY_CASES)
    def test_evaluator_matches_direct_path(self, request, conductance, case):
        mesh, plate, net, _, basis, _ = request.getfixturevalue(case)
        net = replace(net, conductance=conductance)
        m1 = basis.mechanical_indices()[0]
        e1 = basis.electric_indices()[0]
        evaluate = dynamics.damping_evaluator(
            affine_family(mesh, plate, net, basis), basis, m1, e1)
        direct = dynamics.damping_evaluator(
            direct_family(mesh, plate, net, basis), basis, m1, e1)
        for r in (0.013, 0.4, 3.7):
            got, want = evaluate(r), direct(r)
            assert got.zeta == pytest.approx(want.zeta, rel=1e-9, abs=1e-15)
            assert got.n_peaks == want.n_peaks
            assert got.settling_time == pytest.approx(want.settling_time)

    def test_evaluator_rejects_negative_resistance(self, tuned_square4):
        mesh, plate, net, _, basis, _ = tuned_square4
        m1, e1 = basis.mechanical_indices()[0], basis.electric_indices()[0]
        evaluate = dynamics.damping_evaluator(
            affine_family(mesh, plate, net, basis), basis, m1, e1)
        with pytest.raises(ValidationError, match="resistance"):
            evaluate(-0.1)
        with pytest.raises(ValidationError, match="resistance"):
            evaluate(float("nan"))

    @pytest.mark.parametrize("partner", [1, 2])
    def test_evaluator_fits_with_the_given_partner_beat(self, monkeypatch,
                                                        partner):
        # both electric modes are as near the drive in omega as can be (all
        # three are equal), and each beats with it at its own rate; the beat
        # of the partner given, not of a nearest-omega pick, sets the fit's
        # crest window
        kappa = np.array([0.1, 0.25])
        k1 = np.zeros((3, 3))
        k1[0, 1:], k1[1:, 0] = kappa, -kappa
        modes = ModeSet(omegas=np.ones(3), vectors=np.eye(3),
                        labels=("mechanical", "electric", "electric"))
        rs = ReducedSystem(k2red=np.eye(3), k1red=k1, k0red=np.eye(3),
                           k0sym=np.eye(3), modes=modes, cross_ratio=0.0)
        beats = []
        fit = dynamics.fit_damping
        monkeypatch.setattr(
            dynamics, "fit_damping",
            lambda *a, beat_period: beats.append(beat_period)
            or fit(*a, beat_period=beat_period))
        monkeypatch.setattr(dynamics, "MAX_EXTENSIONS", 0)
        evaluate = dynamics.damping_evaluator(lambda r: rs, modes, 0, partner)
        evaluate(0.0)
        assert beats == [2 * math.pi / kappa[partner - 1]]

    def test_optimize_bracket_validation(self):
        with pytest.raises(ValidationError):
            optimize_resistance(lambda r: None, (1.0, 0.5))

    def test_optimize_fallback_on_bimodal(self):
        calls = []

        def evaluate(r):
            calls.append(r)
            zeta = math.exp(-(math.log(r) - math.log(0.1)) ** 2) \
                + 0.9 * math.exp(-(math.log(r) - math.log(3.0)) ** 2 / 0.3)
            return dynamics.DampingSample(
                resistance=r, zeta=zeta, settling_time=1.0, n_peaks=5,
                t_f=1.0, dt=0.1)

        with pytest.warns(UserWarning, match="single-peaked"):
            report = optimize_resistance(evaluate, (0.01, 10.0))
        assert report.warnings
        assert report.best.zeta >= 0.95

    @pytest.mark.parametrize("limit, end", [(3.0, "r_hi = 10"),
                                            (0.005, "r_lo = 0.01")])
    def test_stiff_bracket_fails_on_its_first_evaluation(self, limit, end):
        # candidates above ``limit`` are too stiff to step; the largest R_N
        # is evaluated first, and only the check runs at the low end
        calls, checks = [], []

        def stiff_step(r):
            checks.append(r)
            if r > limit:
                raise StiffStepError(f"at R_N = {r:g} too stiff")

        def evaluate(r):
            calls.append(r)
            stiff_step(r)

        evaluate.step = stiff_step
        with pytest.raises(ValidationError) as exc:
            optimize_resistance(evaluate, (0.01, 10.0))
        assert calls == [10.0] and checks == [10.0, 0.01]
        assert str(exc.value).startswith(
            f"config field [search] {end}: at R_N = ")

    def test_golden_section_finds_quadratic_peak(self):
        def evaluate(r):
            zeta = 1.0 / (r / 0.7 + 0.7 / r)  # peak exactly at r = 0.7
            return dynamics.DampingSample(
                resistance=r, zeta=zeta, settling_time=1.0, n_peaks=9,
                t_f=1.0, dt=0.1)

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
        traj = HeldTrajectory(t=t, y=None)
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

    def test_evaluator_builds_e_mech_only_and_reruns_a_sample(
            self, tuned_square4, monkeypatch):
        mesh, plate, net, _, basis, _ = tuned_square4
        m1, e1 = basis.mechanical_indices()[0], basis.electric_indices()[0]
        reduced = affine_family(mesh, plate, net, basis)
        evaluate = dynamics.damping_evaluator(reduced, basis, m1, e1)
        calls = []
        full = dynamics.energies
        monkeypatch.setattr(dynamics, "energies",
                            lambda *a: calls.append(1) or full(*a))
        sample = evaluate(0.2)
        assert calls == [] and sample.converged
        assert sample.dt == dynamics.step(reduced(0.2), m1, 60)
        # the run again, from what the sample records: the same states, so
        # the same fit
        rs, traj = evaluate.run(sample)
        assert np.array_equal(rs.k1red, reduced(0.2).k1red)
        assert len(traj.t) == round(sample.t_f / sample.dt) + 1
        mech = dynamics.mechanical_energy(rs, traj)
        fit = fit_damping(traj, mech, basis.omegas[m1],
                          beat_period=beat_period(rs, m1, e1))
        assert (fit.zeta, fit.n_peaks) == (sample.zeta, sample.n_peaks)
        assert settling_time(traj.t, mech) == sample.settling_time

    @pytest.mark.filterwarnings("ignore:damping ratio not single-peaked")
    def test_unconverged_fits_are_reported(self, tuned_square4, monkeypatch):
        mesh, plate, net, _, basis, rs = tuned_square4
        m1, e1 = basis.mechanical_indices()[0], basis.electric_indices()[0]
        # one drive period holds two energy peaks, and nothing extends it
        period = 2 * math.pi / basis.omegas[m1]
        monkeypatch.setattr(dynamics, "SEARCH_BEATS",
                            period / beat_period(rs, m1, e1))
        monkeypatch.setattr(dynamics, "MAX_EXTENSIONS", 0)
        evaluate = dynamics.damping_evaluator(
            affine_family(mesh, plate, net, basis), basis, m1, e1)
        report = optimize_resistance(evaluate, (0.02, 2.0))
        assert not any(s.converged for s in report.samples)
        warning, = [w for w in report.warnings if "not converged" in w]
        named = warning.split("R_N = ")[1].split(", ")
        evaluated = {s.resistance for s in report.samples}
        evaluated |= {s.resistance for s in report.regimes.values()}
        assert sorted(float(r) for r in named) == sorted(evaluated)

    def test_converged_search_has_no_fit_warning(self, tuned_square4):
        mesh, plate, net, _, basis, _ = tuned_square4
        m1, e1 = basis.mechanical_indices()[0], basis.electric_indices()[0]
        evaluate = dynamics.damping_evaluator(
            affine_family(mesh, plate, net, basis), basis, m1, e1)
        report = optimize_resistance(evaluate, (0.02, 2.0))
        assert all(s.converged for s in report.samples)
        assert not any("not converged" in w for w in report.warnings)


def preset_run(name):
    ref = resources.files("pemplate") / "presets" / f"{name}.cfg"
    with resources.as_file(ref) as path:
        return cli.Run(load_config(Path(path)))


@pytest.fixture(scope="module")
def preset_runs():
    return {name: preset_run(name) for name in ("paper-square", "clamped-demo")}


def traced_peak(read):
    """(result, traced peak bytes) of ``read()``."""
    tracemalloc.start()
    try:
        result = read()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStreamMemory:
    """No stage holds a state history: a longer horizon costs its 1-D
    traces and nothing more (64 KiB allowed for numpy's own objects)."""

    def test_simulation_memory_grows_with_the_1d_traces_only(
            self, preset_runs, monkeypatch):
        # clamped-demo's simulation stage at its beats and at 4 x beats. What
        # grows is t and the four energy traces, 5 float64s a row; a held
        # state history would add 8 * 2n = 256 bytes a row
        run = preset_runs["clamped-demo"]
        run.simulation()  # warm: every upstream stage, numpy's caches
        sim = run.cfg.simulation
        peaks, rows = [], []
        for beats in (sim.beats, 4 * sim.beats):
            monkeypatch.setattr(run, "cfg", replace(
                run.cfg, simulation=replace(sim, beats=beats)))
            (traj, _), peak = traced_peak(run.simulation)
            peaks.append(peak)
            rows.append(len(traj.t))
        assert rows[1] > 3.9 * rows[0] > 100_000
        assert peaks[1] - peaks[0] <= 5 * 8 * (rows[1] - rows[0]) + 65536

    def test_evaluation_memory_grows_with_the_1d_traces_only(
            self, preset_runs, monkeypatch):
        # one evaluation of clamped-demo's search at a horizon and at twice
        # it, long enough that the traces outweigh the RK4 increments. What
        # grows is 1-D: t, E_mech, the fit's copy and masks of E_mech and
        # the settling time's indices, under 4 float64s a row; a held state
        # history would add 8 * 2n = 256 bytes a row
        run = preset_runs["clamped-demo"]
        evaluate = run.evaluator()
        r = 0.05
        evaluate(r)  # warm: the family's forms, numpy's caches
        monkeypatch.setattr(dynamics, "MAX_EXTENSIONS", 0)
        beats = dynamics.SEARCH_BEATS
        peaks, rows = [], []
        for scale in (4.0, 8.0):
            monkeypatch.setattr(dynamics, "SEARCH_BEATS", scale * beats)
            sample, peak = traced_peak(lambda: evaluate(r))
            peaks.append(peak)
            rows.append(round(sample.t_f / sample.dt) + 1)
        assert rows[1] > 1.9 * rows[0] > 40_000
        assert peaks[1] - peaks[0] <= 4 * 8 * (rows[1] - rows[0]) + 65536


class TestFamilyBlocks:
    """The family blocks of ``k2red`` and ``k0sym`` are the per-family
    projections ``reduce`` once carried, to the last bit."""

    @pytest.mark.parametrize("preset", ["paper-square", "clamped-demo"])
    @pytest.mark.parametrize("resistance", [0.0, 1.0])
    def test_energies_equal_partition_forms(self, preset_runs, preset,
                                            resistance):
        run = preset_runs[preset]
        net = replace(run.network(), resistance=resistance)
        basis, rs = run.basis(), run.reduced(net)
        forms = partition_forms(run.system(net), basis)
        for family in ("mech", "elec"):
            for name, full in (("m2", rs.k2red), ("k0", rs.k0sym)):
                block = dynamics._family_block(
                    rs, full, {"mech": "mechanical", "elec": "electric"}[family])
                assert np.array_equal(block, forms[f"{name}_{family}"])
        # the tuned pair exchanges energy, so every trace is non-trivial
        drive = basis.mechanical_indices()[0]
        period = 2 * math.pi / basis.omegas[drive]
        traj = integrate(rs, unimodal_ic(rs, drive), 40 * period, period / 60)
        want = partition_energies(forms, rs.cross_ratio, held(traj))
        got = energies(rs, traj)
        assert np.array_equal(dynamics.mechanical_energy(rs, traj), want.mech)
        for field in ("mech", "elec", "cross", "total"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), field
        assert want.elec.max() > 0.0
        assert (want.cross != 0.0).any() == (resistance != 0.0)


class TestTraceBlocks:
    """States are stepped and quadratic traces formed a chunk at a time."""

    # clamped-demo's simulation: 26,652 steps of its 16 modes
    STEPS = 26_653

    def test_energies_hold_four_traces_and_one_block(self, preset_runs):
        run = preset_runs["clamped-demo"]
        # a resistance gives the cross trace its two products
        rs = run.reduced(replace(run.network(), resistance=1.0))
        n = rs.n_modes
        assert n == 16
        drive = run.basis().mechanical_indices()[0]
        dt = dynamics.step(rs, drive, 60)
        traj = integrate(rs, unimodal_ic(rs, drive), (self.STEPS - 1) * dt, dt)
        assert len(traj.t) == self.STEPS

        # the stream alone: one chunk of states with room for a block past
        # its end, the copy that moves the last chunk's kept rows, one
        # block's product
        stream = traced_peak(lambda: [None for _ in traj.chunks()])[1]
        peak = traced_peak(lambda: energies(rs, traj))[1]
        # the four traces it returns and one chunk's product (32,768 bytes),
        # plus 8 KiB for the n x n family forms and numpy's per-call objects
        # (~4.6 kB); one more T-vector is 213 kB, the whole product 3.4 MB
        block = 8 * csvfmt.CHUNK * n
        assert stream <= (8 * (3 * csvfmt.CHUNK + 3 * dynamics.BLOCK) * 2 * n
                          + 8192)
        assert peak <= stream + 8 * 4 * self.STEPS + block + 8192

    @pytest.mark.parametrize("steps", [csvfmt.CHUNK + 1, STEPS])
    def test_blocks_equal_the_whole_array_product(self, steps):
        # OpenBLAS's dgemm sums every row in the same order at 16 modes,
        # whatever the row count, so the chunks keep the bits; other BLAS
        # libraries (Accelerate on macOS) may not. A dense random form makes
        # a reordered sum show.
        rng = np.random.default_rng(steps)
        y = rng.standard_normal((steps, 32))
        z, zd = y[:, :16], y[:, 16:]
        form = rng.standard_normal((16, 16))
        for a, b in (((16, 32), (16, 32)), ((16, 32), (0, 16))):
            got = np.empty(steps)
            for start, c in HeldTrajectory(np.arange(steps), y).chunks():
                got[start:start + len(c)] = dynamics._quadratic_trace(
                    c[:, slice(*a)], form, c[:, slice(*b)])
            want = np.einsum("ti,ti->t", y[:, slice(*a)] @ form, y[:, slice(*b)])
            if blas._numpy_openblas() is not None:
                assert np.array_equal(got, want)
            else:
                assert (np.abs(got - want).max()
                        <= 1e-15 * np.abs(want).max())

    @pytest.mark.parametrize("block", [dynamics.BLOCK, 29, 15, 1])
    def test_chunks_follow_the_schedule(self, block, monkeypatch):
        # CHUNK-row chunks in order, the last ending at the last row, each
        # a C-contiguous buffer holding the history's rows. A block of 64
        # ends its steps one row past each chunk (row 0 is given); one of
        # 15 or 1 at a chunk's last row, so the next chunk's first row is
        # stepped ahead; one of 29 (increments cut short by an overflow)
        # anywhere
        monkeypatch.setattr(dynamics, "BLOCK", block)
        rs = single_oscillator()
        ic = unimodal_ic(rs, 0, 1.0)
        for rows in (2, 65, 255, 256, 257, 600, 768):
            traj = integrate(rs, ic, (rows - 1) * 0.01, 0.01)
            ref = oracle.integrate(rs, ic, (rows - 1) * 0.01, 0.01)
            size = min(csvfmt.CHUNK, rows)
            starts = list(range(0, rows - size + 1, csvfmt.CHUNK))
            if starts[-1] + size < rows:
                starts.append(rows - size)
            spans = []
            for start, c in traj.chunks():
                spans.append((start, len(c)))
                assert c.flags.c_contiguous
                assert np.array_equal(c, ref.y[start:start + len(c)])
            assert spans == [(s, size) for s in starts]


def random_system(n_modes, seed):
    """A stable damped reduced system of ``n_modes`` modes, half of them
    electric, with a dense K2 and a resistance (every trace non-trivial)."""
    rng = np.random.default_rng(seed)
    n_mech = (n_modes + 1) // 2
    labels = ("mechanical",) * n_mech + ("electric",) * (n_modes - n_mech)
    q = np.linalg.qr(rng.standard_normal((n_modes, n_modes)))[0]
    k2 = np.eye(n_modes) + 0.1 * q @ np.diag(rng.random(n_modes)) @ q.T
    omegas = np.sort(rng.uniform(1.0, 3.0, n_modes))
    k0 = np.diag(omegas ** 2)
    k1 = 0.05 * rng.standard_normal((n_modes, n_modes))
    k1 = k1 - k1.T + np.diag(np.r_[np.zeros(n_mech), np.full(n_modes - n_mech, 0.3)])
    modes = ModeSet(omegas=omegas, vectors=np.eye(n_modes), labels=labels)
    return ReducedSystem(k2red=k2, k1red=k1, k0red=k0, k0sym=k0, modes=modes,
                         cross_ratio=0.3)


class TestStreamMatchesOracle:
    """The streamed states, traces and table against the whole-array ones,
    to the bit, around the chunk and block lengths and at mode counts where
    dgemm's kernels differ with the row count (17 to 20). The two lay their
    operands out alike but at other addresses; OpenBLAS sums alike at any
    address, other BLAS libraries (Accelerate on macOS) need not."""

    ROWS = [1, 2, 63, 64, 65, 255, 256, 257, 26_653]

    @staticmethod
    def assert_same(got, want, what):
        if blas._numpy_openblas() is not None:
            assert np.array_equal(got, want), what
        else:
            assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max(), what

    @pytest.mark.parametrize("n_modes", [4, 16, 17, 20])
    def test_traces_and_table_bytes(self, tmp_path, n_modes):
        rs = random_system(n_modes, n_modes)
        dt = dynamics.step(rs, 0, 60)
        rng = np.random.default_rng(n_modes)
        ic = dynamics.InitialCondition(z0=rng.standard_normal(n_modes),
                                       zdot0=rng.standard_normal(n_modes))
        header = ["t", *(f"z_{k + 1}" for k in range(n_modes)),
                  "E_mech", "E_elec", "E_total"]
        for rows in self.ROWS:
            if rows == 1:  # the initial energy's one-row trajectory
                y0 = np.concatenate([ic.z0, ic.zdot0])
                traj = dynamics.Trajectory(np.zeros(1), y0,
                                           np.empty((0, len(y0))))
                ref = HeldTrajectory(np.zeros(1), y0[None])
            else:
                traj = integrate(rs, ic, (rows - 1) * dt, dt)
                ref = oracle.integrate(rs, ic, (rows - 1) * dt, dt)
            assert len(traj.t) == rows
            assert np.array_equal(traj.t, ref.t)
            self.assert_same(held(traj).y, ref.y, rows)
            en, want = energies(rs, traj), oracle.energies(rs, ref)
            for field in ("mech", "elec", "cross", "total"):
                self.assert_same(getattr(en, field), getattr(want, field),
                                 (rows, field))
            self.assert_same(dynamics.mechanical_energy(rs, traj), want.mech,
                             rows)
            if blas._numpy_openblas() is None:  # the writer alone
                ref, want = held(traj), en
            cli._write_trajectory(tmp_path / "got.csv", traj, en)
            cli.write_csv(tmp_path / "want.csv", header, csvfmt.Columns(
                ref.t, ref.z, want.mech, want.elec, want.total))
            assert ((tmp_path / "got.csv").read_bytes()
                    == (tmp_path / "want.csv").read_bytes()), rows


class TestStabilityPolynomial:
    """The simulation's stream against RK4's closed form, which shares none
    of its code. One step multiplies each eigen-component of y by the
    stability polynomial R(mu) = 1 + mu + mu^2/2 + mu^3/6 + mu^4/24 of
    mu = h lambda(A), so row k is V R(mu)^k V^-1 y0, and a conservative
    run's energy after T steps is its initial modal energies weighted by
    |R(mu)|^2T. A wrong block, chunk or increment moves the drift off the
    prediction."""

    # the relative gap between measured and predicted drift at the default
    # thread count; paper-square's is the size of its thread-count spread
    GAP = {"paper-square": 2.5e-5, "clamped-demo": 6.7e-8}

    @pytest.mark.parametrize("preset", ["paper-square", "clamped-demo"])
    def test_stream_follows_the_stability_polynomial(self, preset_runs,
                                                     preset):
        run = preset_runs[preset]
        stream, en = run.simulation()
        steps = len(stream.t) - 1
        sampled = {0, 1, 63, 64, 65, 255, 256, 257, steps // 2, steps}
        rows = {}
        for start, y in stream.chunks():
            rows.update((k, y[k - start].copy()) for k in sampled
                        if start <= k < start + len(y))
        assert rows.keys() == sampled
        rs = run.reduced(run.network())
        assert rs.cross_ratio == 0.0  # a conservative run
        n = rs.n_modes
        a = np.block([[np.zeros((n, n)), np.eye(n)],
                      [-np.linalg.solve(rs.k2red, rs.k0red),
                       -np.linalg.solve(rs.k2red, rs.k1red)]])
        mu, v = np.linalg.eig(stream.t[1] * a)
        r = 1 + mu + mu ** 2 / 2 + mu ** 3 / 6 + mu ** 4 / 24
        c = np.linalg.solve(v, rows[0])
        for k, y in rows.items():
            closed = v @ (r ** k * c)
            assert np.abs(closed - y).max() <= 1e-10 * np.abs(y).max(), k

        # E = (z K0 z + z' K2 z') / 2, split over the eigenvectors
        q = np.zeros((2 * n, 2 * n))
        q[:n, :n], q[n:, n:] = rs.k0sym, rs.k2red
        each = 0.5 * np.abs(c) ** 2 * np.einsum("ij,ik,kj->j", v.conj(), q,
                                                v).real
        e_0 = en.total[0]
        assert abs(each.sum() - e_0) <= 1e-9 * e_0
        predicted = abs(each @ (np.abs(r) ** (2 * steps) - 1.0)) / e_0
        drift = np.abs(en.total - e_0).max() / e_0
        assert abs(predicted - drift) <= 10 * self.GAP[preset] * drift
