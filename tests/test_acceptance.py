"""Acceptance suite: every numbered criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion. The square benchmark uses the dimensionless parameter set
(unit flexural rigidity, nu = 0.3, unit membrane mass, coupling row
(0.1, 0.1, 0), unit capacitance).
"""

import math
import time

import numpy as np
import pytest

from pemplate import dynamics, modal
from pemplate.assembly import BoundaryCondition, assemble, local_matrices, patch_test
from pemplate.element import triangle_geometry
from pemplate.material import NetworkParams, PlateParams, build_material
from pemplate.mesh import generate_structured_square
from pemplate.modal import (
    build_modal_basis,
    coupling_table,
    reduce,
    solve_family_modes,
    tune_inductance,
)

from surrogate import two_mode_surrogate
from test_assembly import oracle_bending_k0, oracle_bending_k2, random_ccw

MECH_EXACT = np.array([1.0, 2.5, 2.5, 4.0, 5.0, 5.0, 6.5, 6.5])
ELEC_EXACT = np.sqrt(np.array([2.0, 5.0, 5.0, 8.0, 10.0, 10.0, 13.0, 13.0]) / 2.0)


def report(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def benchmark_plate(coupling=(0.1, 0.1, 0.0)):
    return PlateParams.isotropic(1e-3, 500.0, 1.0, 0.3, coupling=coupling)


def bcs_ss():
    return [BoundaryCondition("boundary", "simply_supported"),
            BoundaryCondition("boundary", "grounded")]


def bcs_clamped():
    return [BoundaryCondition("boundary", "clamped"),
            BoundaryCondition("boundary", "grounded")]


def first_mech_omega(n, bcs):
    mesh = generate_structured_square(n, 1.0, "crossed")
    mat = build_material(benchmark_plate((0, 0, 0)), NetworkParams(inductance=1.0))
    sys = assemble(mesh, mat, bcs)
    return float(solve_family_modes(sys, "mechanical", 1).omegas[0])


@pytest.fixture(scope="module")
def square16():
    start = time.perf_counter()
    mesh = generate_structured_square(16, 1.0, "crossed")
    mat = build_material(benchmark_plate(), NetworkParams(inductance=1.0))
    sys = assemble(mesh, mat, bcs_ss())
    mech = solve_family_modes(sys, "mechanical", 8)
    elec = solve_family_modes(sys, "electric", 8)
    elapsed = time.perf_counter() - start
    return sys, mech, elec, elapsed


@pytest.fixture(scope="module")
def tuned8():
    mesh = generate_structured_square(8, 1.0, "crossed")
    plate = benchmark_plate()
    net0 = NetworkParams(inductance=1.0)
    sys0 = assemble(mesh, build_material(plate, net0), bcs_ss())
    mech = solve_family_modes(sys0, "mechanical", 8)
    elec = solve_family_modes(sys0, "electric", 8)
    net = tune_inductance(mech, elec, net0, 0, 0)
    sys_t = assemble(mesh, build_material(plate, net), bcs_ss())
    basis = build_modal_basis(solve_family_modes(sys_t, "mechanical", 8),
                              solve_family_modes(sys_t, "electric", 8))
    rs = reduce(sys_t, basis)
    return mesh, plate, net, sys_t, basis, rs


def test_criterion_1_square_spectra(square16):
    _, mech, elec, elapsed = square16
    rm = mech.omegas / mech.omegas[0]
    re = elec.omegas / elec.omegas[0]
    mech_err = np.abs(rm - MECH_EXACT) / MECH_EXACT
    elec_err = np.abs(re - ELEC_EXACT) / ELEC_EXACT
    ok = mech_err.max() <= 0.010 and elec_err.max() <= 0.013 and elapsed <= 30.0
    report(1, ok,
           f"mech err max {100 * mech_err.max():.3f}% (<= 1.0%), "
           f"elec err max {100 * elec_err.max():.3f}% (<= 1.3%), "
           f"runtime {elapsed:.1f}s (<= 30s)")


def test_criterion_2_convergence():
    exact_ss = 2.0 * math.pi**2
    errs_ss = [abs(first_mech_omega(n, bcs_ss()) - exact_ss) / exact_ss
               for n in (4, 8, 16)]
    w16 = first_mech_omega(16, bcs_clamped())
    w32 = first_mech_omega(32, bcs_clamped())
    ref = w32 + (w32 - w16) / 3.0  # Richardson, O(h^2) eigenvalue rate
    errs_cl = [abs(first_mech_omega(n, bcs_clamped()) - ref) / ref
               for n in (4, 8, 16)]
    ok = (errs_ss[0] > errs_ss[1] > errs_ss[2]
          and errs_cl[0] > errs_cl[1] > errs_cl[2])
    report(2, ok,
           "mode-1 error strictly decreasing on n in {4, 8, 16}: "
           f"SS {['%.2e' % e for e in errs_ss]}, "
           f"clamped {['%.2e' % e for e in errs_cl]} (ref {ref:.4f})")


def test_criterion_3_patch_test():
    mat = build_material(benchmark_plate((0, 0, 0)), NetworkParams(inductance=1.0))
    rep = patch_test(mat)
    ok = rep.max_error <= 1e-9 and rep.max_rigid_error <= 1e-12
    report(3, ok,
           f"constant-curvature max rel err {rep.max_error:.2e} (<= 1e-9), "
           f"rigid {rep.max_rigid_error:.2e} (<= 1e-12)")


def test_criterion_4_element_oracle():
    rng = np.random.default_rng(2024)
    mat = build_material(benchmark_plate((0, 0, 0)), NetworkParams(inductance=1.0))
    bend = [i for i in range(12) if i % 4 != 3]
    h, rho = 1e-3, 500.0
    coords = np.stack([random_ccw(rng) for _ in range(5)])
    loc = local_matrices(triangle_geometry(coords), mat)
    worst = 0.0
    for e in range(len(coords)):
        geom = triangle_geometry(coords[e])
        k0 = oracle_bending_k0(geom, mat.E[:3, :3])
        k2 = oracle_bending_k2(geom, 2 * h * rho, 2 * h**3 * rho / 3)
        worst = max(
            worst,
            np.abs(loc.k0[e][np.ix_(bend, bend)] - k0).max() / np.abs(k0).max(),
            np.abs(loc.k2[e][np.ix_(bend, bend)] - k2).max() / np.abs(k2).max(),
        )
    ok = worst <= 1e-12
    report(4, ok, f"local K0/K2 vs exact-monomial oracle, worst rel "
                  f"{worst:.2e} (<= 1e-12) on 5 random triangles")


def test_criterion_5_conservation(tuned8):
    _, _, _, _, basis, rs = tuned8
    m1 = basis.mechanical_indices()[0]
    e1 = basis.electric_indices()[0]
    t1 = 2 * math.pi / basis.omegas[m1]
    tb = dynamics.beat_period(rs, m1, e1)
    ic = dynamics.unimodal_ic(rs, m1, 1.0)
    tr1 = dynamics.integrate(rs, ic, 10 * tb, t1 / 100)
    en1 = dynamics.energies(rs, tr1)
    drift1 = float(np.abs(en1.total - en1.total[0]).max() / en1.total[0])
    tr2 = dynamics.integrate(rs, ic, 10 * tb, t1 / 200)
    en2 = dynamics.energies(rs, tr2)
    drift2 = float(np.abs(en2.total - en2.total[0]).max() / en2.total[0])
    ok = drift1 <= 1e-3 and drift1 / drift2 >= 8.0
    report(5, ok, f"drift {drift1:.2e} (<= 1e-3) at T1/100 over 10 beats; "
                  f"halving dt improves {drift1 / drift2:.1f}x (>= 8x)")


def test_criterion_6_beating(tuned8):
    _, _, _, _, basis, rs = tuned8
    m1 = basis.mechanical_indices()[0]
    m2 = basis.mechanical_indices()[1]
    e1 = basis.electric_indices()[0]
    t1 = 2 * math.pi / basis.omegas[m1]
    tb = dynamics.beat_period(rs, m1, e1)
    tr_tuned = dynamics.integrate(rs, dynamics.unimodal_ic(rs, m1, 1.0),
                                  10 * tb, t1 / 100)
    en_tuned = dynamics.energies(rs, tr_tuned)
    tuned_min = float(en_tuned.mech.min() / en_tuned.mech[0])
    tr_off = dynamics.integrate(rs, dynamics.unimodal_ic(rs, m2, 1.0),
                                10 * tb, t1 / 100)
    en_off = dynamics.energies(rs, tr_off)
    off_min = float(en_off.mech.min() / en_off.mech[0])
    ok = tuned_min <= 0.02 and off_min >= 0.5
    report(6, ok, f"tuned mode-1 min E_m/E_0 {tuned_min:.2e} (<= 0.02); "
                  f"untuned mode-2 min {off_min:.3f} (>= 0.5)")


@pytest.fixture(scope="module")
def damping_report(tuned8):
    _, _, _, sys_t, basis, rs = tuned8
    m1 = basis.mechanical_indices()[0]
    e1 = basis.electric_indices()[0]
    evaluate = dynamics.damping_evaluator(
        dynamics.resistance_family(rs, sys_t.material, 0.0), basis, m1, e1)
    return dynamics.optimize_resistance(evaluate, (0.005, 5.0))


def test_criterion_7_damping_regimes(damping_report):
    rep = damping_report
    z_best = rep.best.zeta
    z_sub = rep.regimes["sub_critical"].zeta
    z_sup = rep.regimes["super_critical"].zeta
    settle_crit = rep.regimes["critical"].settling_time
    settle_sup = rep.regimes["super_critical"].settling_time
    ok = (z_best >= 2.0 * z_sub and z_best >= 2.0 * z_sup
          and settle_sup >= 2.0 * settle_crit)
    report(7, ok,
           f"zeta(R*) {z_best:.4f} vs zeta(R*/10) {z_sub:.4f} and "
           f"zeta(10R*) {z_sup:.4f} (both >= 2x); super-critical settling "
           f"{settle_sup:.3g} >= 2 x critical {settle_crit:.3g}")


def test_criterion_8_surrogate_oracle(tuned8):
    _, _, net, _, basis, rs = tuned8
    m1 = basis.mechanical_indices()[0]
    e1 = basis.electric_indices()[0]
    omega = float(basis.omegas[m1])
    kappa = float(abs(rs.k1red[m1, e1]))
    l_n = net.inductance

    def eig_zeta(r):
        s = two_mode_surrogate(omega, kappa, r, l_n)
        a = np.block([[np.zeros((2, 2)), np.eye(2)], [-s.k0red, -s.k1red]])
        lam = np.linalg.eigvals(a)
        lam = lam[np.imag(lam) > 0]
        return float(min(-lam.real / np.abs(lam)))

    # independent oracle: brute-force sweep at 1e-3 relative resolution
    grid = np.geomspace(0.02, 2.0, int(math.log(100.0) / 1e-3) + 1)
    zg = np.array([eig_zeta(r) for r in grid])
    r_oracle = float(grid[int(np.argmax(zg))])

    t1 = 2 * math.pi / omega
    tb = 2 * math.pi / kappa

    def evaluate(r):
        s = two_mode_surrogate(omega, kappa, r, l_n)
        ic = dynamics.unimodal_ic(s, 0, 1.0)
        horizon = 6 * tb
        for _ in range(4):
            traj = dynamics.integrate(s, ic, horizon, t1 / 60)
            en = dynamics.energies(s, traj)
            fit = dynamics.fit_damping(traj, en.mech, omega, beat_period=tb)
            if fit.n_peaks >= 4 and fit.realized_decay < 0.7:
                break
            horizon *= 2
        return dynamics.DampingSample(
            resistance=float(r), zeta=fit.zeta,
            settling_time=dynamics.settling_time(traj.t, en.mech),
            n_peaks=fit.n_peaks, t_f=horizon, dt=t1 / 60)

    rep = dynamics.optimize_resistance(evaluate, (0.02, 2.0))
    rel = abs(rep.best.resistance - r_oracle) / r_oracle
    ok = rel <= 0.02
    report(8, ok, f"searched R* {rep.best.resistance:.5f} vs brute-force "
                  f"{r_oracle:.5f}, rel diff {100 * rel:.2f}% (<= 2%)")


def test_criterion_9_coupling_tables(tuned8):
    mesh, plate, _, sys_t, _, _ = tuned8
    mech = solve_family_modes(sys_t, "mechanical", 8)
    elec = solve_family_modes(sys_t, "electric", 8)
    c = coupling_table(mech, elec, sys_t).normalized
    pos_m = {i: ci for ci, cl in enumerate(modal._clusters(mech.omegas))
             for i in cl}
    pos_e = {i: ci for ci, cl in enumerate(modal._clusters(elec.omegas))
             for i in cl}
    diag_blocks = {(pos_e[k], pos_m[k]) for k in range(8)}
    worst_off = max(
        c[i, j] for i in range(8) for j in range(8)
        if (pos_e[i], pos_m[j]) not in diag_blocks
    )
    mat0 = build_material(benchmark_plate((0, 0, 0)), NetworkParams(inductance=1.0))
    sys0 = assemble(mesh, mat0, bcs_ss())
    z = coupling_table(solve_family_modes(sys0, "mechanical", 4),
                       solve_family_modes(sys0, "electric", 4), sys0)
    ok = worst_off < 0.05 and np.all(z.raw == 0.0)
    report(9, ok, f"square table off-diagonal max {worst_off:.4f} outside "
                  f"degenerate clusters (< 0.05); zero-coupling table is zero")


def test_criterion_10_tuning_accuracy(tuned8):
    _, _, _, sys_t, _, _ = tuned8
    mech = solve_family_modes(sys_t, "mechanical", 1)
    elec = solve_family_modes(sys_t, "electric", 1)
    rel = abs(elec.omegas[0] - mech.omegas[0]) / mech.omegas[0]
    ok = rel <= 1e-6
    report(10, ok, f"tuned pair mismatch {rel:.2e} (<= 1e-6), "
                   f"omega = {mech.omegas[0]:.6f} / {elec.omegas[0]:.6f}")


def test_retained_mode_count_stability(tuned8):
    # supplementary: the beating conclusion is insensitive to the retained
    # basis depth (8+8 vs 12+12)
    mesh, plate, net, sys_t, basis, rs = tuned8
    basis12 = build_modal_basis(solve_family_modes(sys_t, "mechanical", 12),
                                solve_family_modes(sys_t, "electric", 12))
    rs12 = reduce(sys_t, basis12)
    for b, r in ((basis, rs), (basis12, rs12)):
        m1 = b.mechanical_indices()[0]
        e1 = b.electric_indices()[0]
        t1 = 2 * math.pi / b.omegas[m1]
        tb = dynamics.beat_period(r, m1, e1)
        tr = dynamics.integrate(r, dynamics.unimodal_ic(r, m1, 1.0),
                                5 * tb, t1 / 100)
        en = dynamics.energies(r, tr)
        assert en.mech.min() / en.mech[0] <= 0.02
