"""Time integration of the reduced system and electric-damping design.

Integrates K2red z'' + K1red z' + K0red z = 0 (initial-value runs) with the
classic fixed-step fourth-order Runge-Kutta scheme on the first-order form
(z, z'). Energies are evaluated through the per-family quadratic forms
carried by the reduced system; the capacitor cross term (R_N/L_N coupling
between electric rate and state) is reported separately so that the total is
the exact Lyapunov function of the damped system:

    E_total = E_mech + E_elec + E_cross,   dE_total/dt <= 0 for R_N, G_N >= 0.

The system is linear and time-invariant, so one RK4 step is exactly the
scheme's stability polynomial in the step matrix; :func:`integrate` forms that
increment matrix once and then steps with one matrix-vector product.

The net-resistance search wraps an evaluator (one evaluation = reduced system
at the candidate R_N -> integrate -> log-decrement fit) with a coarse scan
plus golden-section refinement. The reduced matrices are affine in R_N, so
:func:`resistance_family` turns the caller's two reductions (R_N = 0 and 1)
into every candidate as a linear combination; nothing here assembles.
"""

from __future__ import annotations

import math
import warnings as _warnings
from dataclasses import dataclass, replace

import numpy as np

from . import assembly as asm
from . import modal
from .element import specht_shape_functions, triangle_geometry
from .errors import IntegrationError, ValidationError
# unused here; kept importable because benchmarks/tracer.py patches it
from .material import build_material  # noqa: F401
from .mesh import _barycentric

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
SETTLING_FRACTION = 0.05
MIN_ENVELOPE_PEAKS = 4
DT_FRACTION = 1.0 / 40.0  # default step per shortest retained period
SEARCH_REL_TOL = 1e-2  # relative width of the refined R* bracket
COARSE_POINTS = 9  # logarithmic scan that brackets the zeta peak
FALLBACK_POINTS = 33  # grid scan when the coarse scan is not single-peaked


@dataclass(frozen=True)
class InitialCondition:
    """Realized reduced-coordinate initial state (z(0), z'(0))."""

    z0: np.ndarray
    zdot0: np.ndarray


def unimodal_ic(rs, mode_index, amplitude=1.0, on="displacement"):
    """Initial condition on one retained basis vector."""
    n = rs.n_modes
    if not 0 <= mode_index < n:
        raise ValidationError(f"mode index {mode_index} out of range 0..{n - 1}")
    if on not in ("displacement", "velocity"):
        raise ValidationError("unimodal 'on' must be 'displacement' or 'velocity'")
    z0 = np.zeros(n)
    zd0 = np.zeros(n)
    (z0 if on == "displacement" else zd0)[mode_index] = amplitude
    return InitialCondition(z0=z0, zdot0=zd0)


def impulse_ic(sys, modes, point, magnitude=1.0):
    """Point mechanical impulse projected on the retained basis.

    Builds the consistent nodal impulse p (transverse shape-function weights
    of the element containing the point) and sets z'(0) = T p, which is the
    K2-consistent velocity jump expressed in K2-orthonormal coordinates.
    """
    x, y = point
    e = sys.mesh.contains_point(x, y)
    if e is None:
        raise ValidationError(f"impulse point {point} lies outside the mesh")
    tri = sys.mesh.triangles[e]
    coords = sys.mesh.nodes[tri]
    geom = triangle_geometry(coords)
    L = _barycentric(coords, x, y, tol=1e-9)
    ev = specht_shape_functions(geom, L)

    p_full = np.zeros((sys.mesh.n_nodes, asm.DOFS_PER_NODE))
    p_full[tri, :3] = magnitude * ev.value.reshape(3, 3)
    p_free = p_full.ravel()[sys.dof_map.free_to_full]
    return InitialCondition(z0=np.zeros(modes.n_modes),
                            zdot0=modes.vectors.T @ p_free)


@dataclass
class Trajectory:
    """Fixed-step time history of the reduced coordinates."""

    t: np.ndarray
    z: np.ndarray
    zdot: np.ndarray
    energies: "EnergyTraces | None" = None


@dataclass(frozen=True)
class EnergyTraces:
    mech: np.ndarray
    elec: np.ndarray
    cross: np.ndarray
    total: np.ndarray


def integrate(rs, ic, t_f, dt):
    """Classic RK4 with dense output at every step.

    On the first-order state y = (z, z') the reduced system reads y' = A y.
    One RK4 step of a linear system is y <- y + D y with
    D = hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24, so D is formed once and each
    step is one matrix-vector product. Stepping with the increment D y rather
    than with (I + D) y keeps the round-off of the stage-by-stage scheme.

    Raises :class:`IntegrationError` naming the step if the state stops
    being finite, and naming ``t_f``, ``dt`` and the step count if the
    trajectory cannot be allocated.
    """
    if dt <= 0 or t_f <= 0:
        raise ValidationError("time step and final time must be positive")
    if not math.isfinite(t_f / dt):
        raise ValidationError(
            f"step count t_f / dt = {t_f:g} / {dt:g} is not finite")
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

    try:
        out = np.empty((steps + 1, m))
    except (MemoryError, ValueError):
        raise IntegrationError(
            f"cannot allocate {steps} steps of {m} states "
            f"(t_f = {t_f:g}, dt = {dt:g})"
        ) from None
    out[0] = np.concatenate([ic.z0, ic.zdot0])
    y = out[0]
    dy = np.empty(m)
    with np.errstate(over="ignore", invalid="ignore"):
        for row in out[1:]:
            np.dot(d, y, out=dy)
            np.add(y, dy, out=row)
            y = row
    finite = np.isfinite(out).all(axis=1)
    if not finite.all():
        step = int(np.argmin(finite))
        raise IntegrationError(
            f"non-finite state at step {step} (t = {step * dt:g})"
        )
    t = dt * np.arange(steps + 1)
    return Trajectory(t=t, z=out[:, :n], zdot=out[:, n:])


def mechanical_energy(rs, traj):
    """Bending-family energy trace, the one the damping fit reads."""
    z, zd = traj.z, traj.zdot
    return 0.5 * (np.einsum("ti,ij,tj->t", zd, rs.m2_mech, zd)
                  + np.einsum("ti,ij,tj->t", z, rs.k0_mech, z))


def energies(rs, traj):
    """Per-family energy traces; the result is cached on the trajectory."""
    if traj.energies is not None:
        return traj.energies
    z, zd = traj.z, traj.zdot
    mech = mechanical_energy(rs, traj)
    elec = 0.5 * (np.einsum("ti,ij,tj->t", zd, rs.m2_elec, zd)
                  + np.einsum("ti,ij,tj->t", z, rs.k0_elec, z))
    r = rs.cross_ratio
    cross = np.zeros_like(mech)
    if r != 0.0:
        cross = (r * np.einsum("ti,ij,tj->t", zd, rs.m2_elec, z)
                 + 0.5 * r * r * np.einsum("ti,ij,tj->t", z, rs.m2_elec, z))
    traces = EnergyTraces(mech=mech, elec=elec, cross=cross,
                          total=mech + elec + cross)
    traj.energies = traces
    return traces


def recover_field(modes, traj, t):
    """Nodal (w, theta_x, theta_y, alpha) at the grid step nearest to ``t``.

    Constrained DOFs are reported at their (homogeneous) boundary values.
    Returns a dict with the four nodal arrays plus the snapshot metadata;
    ``on_grid`` is False when ``t`` had to be rounded to the nearest step.
    """
    step = int(np.argmin(np.abs(traj.t - t)))
    dt = traj.t[1] - traj.t[0] if len(traj.t) > 1 else 1.0
    on_grid = bool(abs(traj.t[step] - t) <= 1e-9 * max(1.0, dt))
    dm = modes.dof_map
    full = np.zeros(dm.n_full)
    full[dm.free_to_full] = modes.vectors @ traj.z[step]
    fields = full.reshape(dm.n_nodes, asm.DOFS_PER_NODE)
    return {
        "w": fields[:, 0], "theta_x": fields[:, 1], "theta_y": fields[:, 2],
        "alpha": fields[:, 3], "step": step, "time": float(traj.t[step]),
        "on_grid": on_grid,
    }


def beat_period(rs, index_a, index_b):
    """Energy-exchange period 2 pi / |kappa| of a tuned conservative pair."""
    kappa = abs(rs.k1red[index_a, index_b])
    return math.inf if kappa == 0.0 else 2.0 * math.pi / kappa


def suggested_dt(rs):
    """Default step: the shortest retained modal period times ``DT_FRACTION``."""
    return float(2.0 * math.pi / rs.modes.omegas.max() * DT_FRACTION)


def default_horizon(rs, drive, beats, steps_per_period):
    """Default (t_f, dt) of a run that starts on basis vector ``drive``.

    t_f spans ``beats`` beat periods of the drive with the nearest mode of
    the other family (a beat counts 20 drive periods when the pair does not
    exchange energy). dt is the drive period over ``steps_per_period``,
    capped by :func:`suggested_dt` (impulses put energy on the high modes).
    """
    modes = rs.modes
    omega = modes.omegas[drive]
    period = 2.0 * math.pi / omega
    others = [i for i in range(modes.n_modes)
              if modes.labels[i] != modes.labels[drive]]
    partner = min(others, key=lambda i: abs(modes.omegas[i] - omega),
                  default=None)
    beat = math.inf if partner is None else beat_period(rs, drive, partner)
    if not math.isfinite(beat):
        beat = 20.0 * period
    return beats * beat, min(period / steps_per_period, suggested_dt(rs))


def envelope_peaks(values):
    """Indices of strict local maxima (left-inclusive on plateaus)."""
    v = np.asarray(values)
    return np.flatnonzero((v[1:-1] >= v[:-2]) & (v[1:-1] > v[2:])) + 1


def beat_crests(t, energy, peaks, half_width):
    """The ``peaks`` that no sample within ``half_width`` exceeds (t rising)."""
    lo = np.searchsorted(t, t[peaks] - half_width, side="left")
    hi = np.searchsorted(t, t[peaks] + half_width, side="right")
    # max over each [lo, hi); the -inf tail keeps every hi a valid index
    window_max = np.maximum.reduceat(np.append(energy, -np.inf),
                                     np.column_stack([lo, hi]).ravel())[::2]
    return peaks[energy[peaks] >= window_max]


def settling_time(t, energy):
    """First time after which the trace stays below SETTLING_FRACTION * energy[0]."""
    threshold = SETTLING_FRACTION * energy[0]
    above = np.flatnonzero(energy > threshold)
    if len(above) == 0:
        return float(t[0])
    if above[-1] == len(energy) - 1:
        return math.inf
    return float(t[above[-1] + 1])


@dataclass(frozen=True)
class DampingFit:
    zeta: float
    n_peaks: int
    realized_decay: float = 1.0


def fit_damping(traj, energy_trace, omega_ref, beat_period=None):
    """Damping ratio from a least-squares line through log envelope peaks.

    The mechanical energy decays like exp(-2 zeta omega t), so
    zeta = -slope / (2 omega_ref). When ``beat_period`` is given and finite,
    only the beat crests are fitted: local maxima that dominate a sliding
    window of one beat period. Intermediate peaks dip towards the beat nodes
    and say nothing about the secular decay.
    """
    peaks = envelope_peaks(energy_trace)
    peaks = peaks[energy_trace[peaks] > 1e-300]
    if beat_period is not None and math.isfinite(beat_period) and len(peaks) > 1:
        crests = beat_crests(traj.t, energy_trace, peaks, 0.45 * beat_period)
        if len(crests) >= 2:
            peaks = crests
    if len(peaks) < 2:
        return DampingFit(zeta=0.0, n_peaks=len(peaks))
    tt = traj.t[peaks]
    vals = energy_trace[peaks]
    slope = np.polyfit(tt, np.log(vals), 1)[0]
    return DampingFit(zeta=max(0.0, -slope / (2.0 * omega_ref)),
                      n_peaks=len(peaks),
                      realized_decay=float(vals[-1] / vals[0]))


@dataclass(frozen=True)
class DampingSample:
    resistance: float
    zeta: float
    settling_time: float
    n_peaks: int
    trajectory: Trajectory | None = None
    converged: bool = True


@dataclass(frozen=True)
class DampingReport:
    samples: tuple
    best: DampingSample
    regimes: dict
    warnings: tuple


# ReducedSystem fields that depend on R_N; all of them are affine in it.
_RESISTIVE_FIELDS = ("k1red", "k0red", "k0_mech", "k0_elec")


def resistance_family(rs0, rs1, inductance):
    """Map R_N -> ReducedSystem from the reductions at R_N = 0 and 1.

    R_N enters the material only linearly (the damping and stiffness
    couplings S, T and R), so every reduced matrix is affine in it. ``rs0``
    and ``rs1`` are one network (G_N included) at R_N = 0 and R_N = 1,
    reduced on one basis; a candidate R is rs0 + R (rs1 - rs0), with the
    cross-energy ratio R / ``inductance`` (the network's L_N).
    """
    slopes = {name: getattr(rs1, name) - getattr(rs0, name)
              for name in _RESISTIVE_FIELDS}

    def reduced(resistance):
        r = float(resistance)
        if not r >= 0.0:
            raise ValidationError(
                f"net resistance must be non-negative, got {resistance}")
        return replace(
            rs0, cross_ratio=r / inductance,
            **{name: getattr(rs0, name) + r * slope
               for name, slope in slopes.items()},
        )

    return reduced


def damping_evaluator(reduced, basis, mode_index, *, t_f, dt, max_extensions=3):
    """Evaluator R_N -> DampingSample for the resistance search.

    ``reduced`` maps a candidate resistance to its reduced system (a
    :func:`resistance_family`), ``basis`` is the retained conservative basis
    it was reduced on and ``mode_index`` the driven basis vector. Every call
    integrates a unit initial-displacement run and fits the log decrement of the
    mechanical-energy envelope; the horizon doubles automatically until at
    least four envelope peaks carrying a visible secular decay (at least
    30 percent over the fit window) are available, at most
    ``max_extensions`` times (else the sample is not ``converged``). Only
    kept trajectories get every energy trace; the fit needs E_mech alone.
    """
    omega_ref = float(basis.omegas[mode_index])
    partners = [i for i, lab in enumerate(basis.labels)
                if lab == "electric" and i != mode_index]
    partner = min(partners, key=lambda i: abs(basis.omegas[i] - omega_ref),
                  default=None)

    def evaluate(resistance, keep_trajectory=False):
        rs = reduced(resistance)
        ic = unimodal_ic(rs, mode_index)
        tb = beat_period(rs, mode_index, partner) if partner is not None else None
        horizon = t_f
        for _ in range(max_extensions + 1):
            traj = integrate(rs, ic, horizon, dt)
            mech = mechanical_energy(rs, traj)
            fit = fit_damping(traj, mech, omega_ref, beat_period=tb)
            converged = (fit.n_peaks >= MIN_ENVELOPE_PEAKS
                         and fit.realized_decay < 0.7)
            if converged:
                break
            horizon *= 2.0
        if keep_trajectory:
            energies(rs, traj)
        return DampingSample(
            resistance=float(resistance), zeta=fit.zeta,
            settling_time=settling_time(traj.t, mech),
            n_peaks=fit.n_peaks,
            trajectory=traj if keep_trajectory else None,
            converged=converged,
        )

    return evaluate


def optimize_resistance(evaluate, bracket):
    """Maximize the damping ratio over a resistance bracket.

    A coarse logarithmic scan brackets the peak; golden-section search then
    refines it to the relative width ``SEARCH_REL_TOL``. When the scan is not
    single-peaked (or peaks at an endpoint) the search falls back to a fine
    grid scan and records a warning. The report carries sub-critical,
    near-critical and super-critical sample runs at R*/10, R* and 10 R*,
    and a warning naming every resistance whose fit did not converge.
    """
    r_lo, r_hi = bracket
    if not 0 < r_lo < r_hi:
        raise ValidationError(f"invalid resistance bracket {bracket}")
    notes = []
    samples = {}

    def sample(r):
        if r not in samples:
            samples[r] = evaluate(r)
        return samples[r]

    grid = np.geomspace(r_lo, r_hi, COARSE_POINTS)
    zetas = np.array([sample(r).zeta for r in grid])
    peak = int(np.argmax(zetas))
    tol = 0.02 * zetas[peak]  # fit noise allowance on the flanks
    unimodal = (np.all(np.diff(zetas[:peak + 1]) >= -tol)
                and np.all(np.diff(zetas[peak:]) <= tol))
    if peak in (0, len(grid) - 1) or not unimodal:
        notes.append(
            "damping ratio not single-peaked on the coarse scan; "
            "falling back to a grid scan"
        )
        _warnings.warn(notes[-1])
        grid = np.geomspace(r_lo, r_hi, FALLBACK_POINTS)
        zetas = np.array([sample(r).zeta for r in grid])
        best_r = float(grid[int(np.argmax(zetas))])
    else:
        a = math.log(grid[peak - 1])
        b = math.log(grid[peak + 1])
        c = b - GOLDEN * (b - a)
        d = a + GOLDEN * (b - a)
        fc = sample(math.exp(c)).zeta
        fd = sample(math.exp(d)).zeta
        while math.expm1(b - a) > SEARCH_REL_TOL:
            if fc > fd:
                b, d, fd = d, c, fc
                c = b - GOLDEN * (b - a)
                fc = sample(math.exp(c)).zeta
            else:
                a, c, fc = c, d, fd
                d = a + GOLDEN * (b - a)
                fd = sample(math.exp(d)).zeta
        best_r = math.exp(0.5 * (a + b))

    best = evaluate(best_r, keep_trajectory=True)
    regimes = {
        "sub_critical": evaluate(best_r / 10.0, keep_trajectory=True),
        "critical": best,
        "super_critical": evaluate(best_r * 10.0, keep_trajectory=True),
    }
    ordered = tuple(sorted(samples.values(), key=lambda s: s.resistance))
    unconverged = sorted({s.resistance for s in (*ordered, *regimes.values())
                          if not s.converged})
    if unconverged:
        notes.append("damping fit not converged (too few envelope peaks or "
                     "too little decay) at R_N = "
                     + ", ".join(f"{r:.17g}" for r in unconverged))
    return DampingReport(samples=ordered, best=best, regimes=regimes,
                         warnings=tuple(notes))


def two_mode_surrogate(omega, kappa, resistance, inductance):
    """Hand-built 2x2 reduced system of one tuned mechanical/electric pair.

    Reproduces the reduced algebra of the full pipeline: skew rate coupling
    kappa, electric rate damping R/L, and the resistance coupling R/L * kappa
    in the stiffness row of the mechanical equation.
    """
    r = resistance / inductance
    k2 = np.eye(2)
    k1 = np.array([[0.0, kappa], [-kappa, r]])
    k0 = np.array([[omega**2, r * kappa], [0.0, omega**2]])
    return modal.ReducedSystem(
        k2red=k2, k1red=k1, k0red=k0, modes=None,
        m2_mech=np.diag([1.0, 0.0]), k0_mech=np.diag([omega**2, 0.0]),
        m2_elec=np.diag([0.0, 1.0]), k0_elec=np.diag([0.0, omega**2]),
        cross_ratio=r,
    )
