"""Time integration of the reduced system and electric-damping design.

Integrates K2red z'' + K1red z' + K0red z = F_red with the classic fixed-step
fourth-order Runge-Kutta scheme on the first-order form (z, z'). Energies are
evaluated through the per-family quadratic forms carried by the reduced
system; the capacitor cross term (R_N/L_N coupling between electric rate and
state) is reported separately so that the total is the exact Lyapunov
function of the damped system:

    E_total = E_mech + E_elec + E_cross,   dE_total/dt <= 0 for R_N, G_N >= 0.

The system is linear and time-invariant, so one RK4 step is exactly the
scheme's stability polynomial in the step matrix; :func:`integrate` forms that
increment matrix once and then steps with one matrix-vector product.

The net-resistance search wraps an evaluator (one evaluation = reduced system
at the candidate R_N -> integrate -> log-decrement fit) with a coarse scan
plus golden-section refinement. The reduced matrices are affine in R_N, so
:func:`resistance_family` assembles and reduces twice (R_N = 0 and 1) and
every candidate is a linear combination of those two reductions.
"""

from __future__ import annotations

import math
import warnings as _warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import assembly as asm
from . import modal
from .element import specht_shape_functions, triangle_geometry
from .errors import IntegrationError, ValidationError
from .material import build_material
from .mesh import _barycentric

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
SETTLING_FRACTION = 0.05
MIN_ENVELOPE_PEAKS = 4


@dataclass(frozen=True)
class InitialCondition:
    """Realized reduced-coordinate initial state (z(0), z'(0))."""

    z0: np.ndarray
    zdot0: np.ndarray
    kind: str
    meta: dict = field(default_factory=dict)


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
    return InitialCondition(z0=z0, zdot0=zd0, kind="unimodal",
                            meta={"mode": mode_index, "on": on,
                                  "amplitude": amplitude})


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

    p_full = np.zeros(asm.DOFS_PER_NODE * sys.mesh.n_nodes)
    for local, node in enumerate(tri):
        for comp in range(3):
            p_full[asm.DOFS_PER_NODE * node + comp] = (
                magnitude * ev.value[3 * local + comp]
            )
    p_free = p_full[sys.dof_map.free_to_full]
    zd0 = modes.vectors.T @ p_free
    return InitialCondition(z0=np.zeros(modes.n_modes), zdot0=zd0, kind="impulse",
                            meta={"point": (float(x), float(y)),
                                  "magnitude": magnitude, "element": int(e)})


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

    On the first-order state y = (z, z', 1), whose constant last entry carries
    the load, the reduced system reads y' = A y. One RK4 step of a linear
    system is y <- y + D y with D = hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24, so
    D is formed once and each step is one matrix-vector product. Stepping
    with the increment D y rather than with (I + D) y keeps the round-off of
    the stage-by-stage scheme.

    Raises :class:`IntegrationError` naming the step if the state stops
    being finite.
    """
    if dt <= 0 or t_f <= 0:
        raise ValidationError("time step and final time must be positive")
    steps = max(1, int(round(t_f / dt)))
    n = rs.n_modes
    m = 2 * n + 1

    minv = np.linalg.inv(rs.k2red)
    ha = np.zeros((m, m))
    ha[:n, n:2 * n] = dt * np.eye(n)
    ha[n:2 * n, :n] = -dt * (minv @ rs.k0red)
    ha[n:2 * n, n:2 * n] = -dt * (minv @ rs.k1red)
    ha[n:2 * n, 2 * n] = dt * (minv @ rs.f_red)
    eye = np.eye(m)
    d = ha @ (eye + ha @ (eye / 2.0 + ha @ (eye / 6.0 + ha / 24.0)))

    out = np.empty((steps + 1, m))
    out[0, :2 * n] = np.concatenate([ic.z0, ic.zdot0])
    out[0, 2 * n] = 1.0
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
    return Trajectory(t=t, z=out[:, :n], zdot=out[:, n:2 * n])


def energies(rs, traj):
    """Per-family energy traces; the result is cached on the trajectory."""
    if traj.energies is not None:
        return traj.energies
    z, zd = traj.z, traj.zdot
    mech = 0.5 * (np.einsum("ti,ij,tj->t", zd, rs.m2_mech, zd)
                  + np.einsum("ti,ij,tj->t", z, rs.k0_mech, z))
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


def suggested_dt(rs, fraction=1.0 / 40.0):
    """Default step: the shortest retained modal period times ``fraction``."""
    return float(2.0 * math.pi / rs.modes.omegas.max() * fraction)


def envelope_peaks(values):
    """Indices of strict local maxima (left-inclusive on plateaus)."""
    v = np.asarray(values)
    idx = [i for i in range(1, len(v) - 1)
           if v[i] >= v[i - 1] and v[i] > v[i + 1]]
    return np.array(idx, dtype=int)


def settling_time(t, energy, fraction=SETTLING_FRACTION):
    """First time after which the trace stays below fraction * energy[0]."""
    threshold = fraction * energy[0]
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
    slope: float
    span: float = 0.0
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
        half = 0.45 * beat_period
        tt = traj.t
        crests = [
            p for p in peaks
            if energy_trace[p] >= energy_trace[
                (tt >= tt[p] - half) & (tt <= tt[p] + half)
            ].max()
        ]
        if len(crests) >= 2:
            peaks = np.array(crests, dtype=int)
    if len(peaks) < 2:
        return DampingFit(zeta=0.0, n_peaks=len(peaks), slope=0.0)
    tt = traj.t[peaks]
    vals = energy_trace[peaks]
    slope = np.polyfit(tt, np.log(vals), 1)[0]
    return DampingFit(zeta=max(0.0, -slope / (2.0 * omega_ref)),
                      n_peaks=len(peaks), slope=float(slope),
                      span=float(tt[-1] - tt[0]),
                      realized_decay=float(vals[-1] / vals[0]))


@dataclass(frozen=True)
class DampingSample:
    resistance: float
    zeta: float
    settling_time: float
    n_peaks: int
    trajectory: Trajectory | None = None


@dataclass(frozen=True)
class DampingReport:
    samples: tuple
    best: DampingSample
    regimes: dict
    warnings: tuple


# ReducedSystem fields that depend on R_N; all of them are affine in it.
_RESISTIVE_FIELDS = ("k1red", "k0red", "k0_mech", "k0_elec")


def resistance_family(mesh, plate, network, bcs, basis,
                      quad_degree=asm.DEFAULT_QUADRATURE_DEGREE):
    """Map R_N -> ReducedSystem on a fixed basis, from two assemblies.

    R_N enters the material only linearly (the damping and stiffness
    couplings S, T and R), so every reduced matrix is affine in it. The
    system is assembled and reduced at R_N = 0 and R_N = 1 with the rest of
    ``network`` (G_N included), the second assembly reusing the first one's
    sparsity pattern; a candidate R is then rs0 + R (rs1 - rs0), with the
    cross-energy ratio R / L_N.
    """
    workspace = asm.AssemblyWorkspace()

    def reduced_at(resistance):
        mat = build_material(plate, replace(network, resistance=resistance))
        sys = asm.assemble(mesh, mat, bcs, quad_degree, workspace=workspace)
        return modal.reduce(sys, basis)

    rs0 = reduced_at(0.0)
    rs1 = reduced_at(1.0)
    slopes = {name: getattr(rs1, name) - getattr(rs0, name)
              for name in _RESISTIVE_FIELDS}

    def reduced(resistance):
        r = float(resistance)
        if not r >= 0.0:
            raise ValidationError(
                f"net resistance must be non-negative, got {resistance}")
        return replace(
            rs0, cross_ratio=r / network.inductance,
            **{name: getattr(rs0, name) + r * slope
               for name, slope in slopes.items()},
        )

    return reduced


def damping_evaluator(mesh, plate, network, bcs, basis, mode_index, *,
                      t_f, dt, amplitude=1.0,
                      quad_degree=asm.DEFAULT_QUADRATURE_DEGREE,
                      max_extensions=3):
    """Evaluator R_N -> DampingSample for the resistance search.

    ``basis`` is the retained conservative basis (fixed across evaluations)
    and ``mode_index`` the driven basis vector. The reduced system at each
    candidate resistance comes from :func:`resistance_family`, which
    assembles twice when the evaluator is built and never again. Every call
    integrates an initial-displacement run and fits the log decrement of the
    mechanical-energy envelope; the horizon doubles automatically until at
    least four envelope peaks carrying a visible secular decay (at least
    30 percent over the fit window) are available.
    """
    omega_ref = float(basis.omegas[mode_index])
    partners = [i for i, lab in enumerate(basis.labels)
                if lab == "electric" and i != mode_index]
    partner = min(partners, key=lambda i: abs(basis.omegas[i] - omega_ref),
                  default=None)
    reduced = resistance_family(mesh, plate, network, bcs, basis, quad_degree)

    def evaluate(resistance, keep_trajectory=False):
        rs = reduced(resistance)
        ic = unimodal_ic(rs, mode_index, amplitude)
        tb = beat_period(rs, mode_index, partner) if partner is not None else None
        horizon = t_f
        for _ in range(max_extensions + 1):
            traj = integrate(rs, ic, horizon, dt)
            en = energies(rs, traj)
            fit = fit_damping(traj, en.mech, omega_ref, beat_period=tb)
            if fit.n_peaks >= MIN_ENVELOPE_PEAKS and fit.realized_decay < 0.7:
                break
            horizon *= 2.0
        return DampingSample(
            resistance=float(resistance), zeta=fit.zeta,
            settling_time=settling_time(traj.t, en.mech),
            n_peaks=fit.n_peaks,
            trajectory=traj if keep_trajectory else None,
        )

    return evaluate


def optimize_resistance(evaluate, bracket, rel_tol=1e-2, coarse_points=9,
                        fallback_points=33):
    """Maximize the damping ratio over a resistance bracket.

    A coarse logarithmic scan brackets the peak; golden-section search then
    refines it to the requested relative width. When the scan is not
    single-peaked (or peaks at an endpoint) the search falls back to a fine
    grid scan and records a warning. The report carries sub-critical,
    near-critical and super-critical sample runs at R*/10, R* and 10 R*.
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

    grid = np.geomspace(r_lo, r_hi, coarse_points)
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
        grid = np.geomspace(r_lo, r_hi, fallback_points)
        zetas = np.array([sample(r).zeta for r in grid])
        best_r = float(grid[int(np.argmax(zetas))])
    else:
        a = math.log(grid[peak - 1])
        b = math.log(grid[peak + 1])
        c = b - GOLDEN * (b - a)
        d = a + GOLDEN * (b - a)
        fc = sample(math.exp(c)).zeta
        fd = sample(math.exp(d)).zeta
        while math.expm1(b - a) > rel_tol:
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
        k2red=k2, k1red=k1, k0red=k0, f_red=np.zeros(2), modes=None,
        m2_mech=np.diag([1.0, 0.0]), k0_mech=np.diag([omega**2, 0.0]),
        m2_elec=np.diag([0.0, 1.0]), k0_elec=np.diag([0.0, omega**2]),
        cross_ratio=r,
    )
