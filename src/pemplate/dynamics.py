"""Time integration of the reduced system and electric-damping design.

Integrates K2red z'' + K1red z' + K0red z = 0 (initial-value runs) with the
classic fixed-step fourth-order Runge-Kutta scheme on the first-order form
(z, z'). Energies are evaluated through the per-family quadratic forms, the
family blocks of the reduced ``k2red`` and ``k0sym`` (the basis vectors are
field-pure); the capacitor cross term (R_N/L_N coupling between electric
rate and state) is reported separately so that the total is the exact
Lyapunov function of the damped system:

    E_total = E_mech + E_elec + E_cross,   dE_total/dt <= 0 for R_N, G_N >= 0.

The system is linear and time-invariant, so one RK4 step is exactly the
scheme's stability polynomial in the step matrix. :func:`integrate` forms that
increment matrix D once, and from it the increments of 1 to ``BLOCK`` steps,
(I + D)^j - I, built by doubling; one matrix product then advances the state
``BLOCK`` output rows at a time. No state history is held: a
:class:`Trajectory` steps its states each time it is read, ``CHUNK`` rows at
a time, and a table's pass fills the energy traces as it goes
(:class:`EnergyStream`), so a run holds its 1-D traces (time, energies) and
a few chunks of states whatever its horizon, and a written run is stepped
once, for its table.

Every step the program chooses comes from :func:`step`, a share of the drive
period capped inside RK4's stability region (Hairer & Wanner, *Solving ODEs
II*, sec. IV.2); :func:`integrate` checks any step it is given.

The net-resistance search wraps an evaluator (one evaluation = reduced system
at the candidate R_N -> integrate -> log-decrement fit) with a coarse scan
plus golden-section refinement. The evaluator takes each candidate's step and
horizon from the system it integrates. :func:`resistance_family` scales R_N
and G_N into the one conservative reduction the simulation also uses; nothing
here assembles.
"""

from __future__ import annotations

import math
import warnings as _warnings
from dataclasses import dataclass, replace

import numpy as np

from . import assembly as asm
from .csvfmt import CHUNK
from .element import specht_shape_functions, triangle_geometry
from .errors import (IntegrationError, StepStabilityError, StiffStepError,
                     ValidationError)
# unused here; kept importable because benchmarks/tracer.py patches it
from .material import build_material  # noqa: F401

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
SETTLING_FRACTION = 0.05
MIN_ENVELOPE_PEAKS = 4
DT_FRACTION = 1.0 / 40.0  # default step per shortest retained period
SEARCH_REL_TOL = 1e-2  # relative width of the refined R* bracket
COARSE_POINTS = 9  # logarithmic scan that brackets the zeta peak
FALLBACK_POINTS = 33  # grid scan when the coarse scan is not single-peaked
BLOCK = 64  # RK4 output rows per matrix product in integrate
UNCOUPLED_KAPPA = 1e-9  # |kappa| / omega at or below which a pair is uncoupled
# largest dt |lambda| a chosen step allows: RK4's stability region holds the
# left half-disk of radius ~2.61 (and reaches 2.785 on the real axis, 2.83 on
# the imaginary one)
STEP_LIMIT = 2.5
SEARCH_STEPS_PER_PERIOD = 60  # search steps per drive period, before the cap
SEARCH_BEATS = 4  # first search horizon, in beats of the driven pair
MAX_EXTENSIONS = 3  # horizon doublings a search evaluation may add
MAX_STEP_REFINEMENT = 10  # most a search step may be capped below its share
# round-off allowance on the RK4 propagator's spectral radius: far above the
# ~1e-15 that eigenvalue round-off reaches, and a radius of 1 + 1e-9 grows a
# state by 0.1% over a million steps
STEP_RADIUS_MARGIN = 1e-9


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
    in the triangle :meth:`~pemplate.mesh.Mesh.locate` finds) and sets
    z'(0) = T p, which is the K2-consistent velocity jump expressed in
    K2-orthonormal coordinates.
    """
    x, y = point
    found = sys.mesh.locate(x, y)
    if found is None:
        raise ValidationError(f"impulse point {point} lies outside the mesh")
    e, L = found
    tri = sys.mesh.triangles[e]
    geom = triangle_geometry(sys.mesh.nodes[tri])
    ev = specht_shape_functions(geom, L[None])

    p_full = np.zeros((sys.mesh.n_nodes, asm.DOFS_PER_NODE))
    p_full[tri, :3] = magnitude * ev.value[0].reshape(3, 3)
    p_free = p_full.ravel()[sys.dof_map.free_to_full]
    zdot0 = modes.vectors.T @ p_free
    if not zdot0.any():
        raise ValidationError(
            f"config field [simulation] point {x:g} {y:g}: the impulse "
            "projects to zero on the retained basis (a point on a clamped "
            "boundary loads only constrained DOFs)")
    return InitialCondition(z0=np.zeros(modes.n_modes), zdot0=zdot0)


@dataclass(frozen=True)
class Trajectory:
    """Fixed-step RK4 history of the reduced coordinates, stepped on demand.

    ``t`` holds every output time. The states y = (z, z') are not held:
    :meth:`chunks` steps them from ``y0``, the state of row ``first``, each
    time it is iterated, one product of the stacked ``increments``
    (D_1 .. D_b, b = len / len(y0)) per b rows from a row at a multiple of
    b, the same bits on every pass and in every longer run.
    """

    t: np.ndarray
    y0: np.ndarray
    increments: np.ndarray
    first: int = 0

    @property
    def n_modes(self):
        return len(self.y0) // 2

    def resumed(self, start, y):
        """This run, read from the first row of the block holding the last
        row of (start, y), the last chunk of a shorter run of it."""
        block = len(self.increments) // len(self.y0)
        first = (start + len(y) - 1) // block * block
        return replace(self, y0=y[first - start].copy(), first=first)

    def chunks(self):
        """(start, y) for each chunk of ``CHUNK`` rows from row ``first``,
        all of them if fewer: y holds the states of rows start .. start +
        len(y), z = y[:, :n] and z' = y[:, n:]. The last chunk ends at the
        last row, so it may start inside the one before (a quadratic trace
        then keeps its ``CHUNK``-row products to the end). Each chunk is a
        buffer the next one reuses: a reader uses it before asking for the
        next. Raises :class:`IntegrationError` naming the first step whose
        state is not finite."""
        n_rows, m = len(self.t), len(self.y0)
        block = len(self.increments) // m
        size = min(CHUNK, n_rows - self.first)
        # one chunk, with room for a block that runs past its end
        buf = np.empty((size + block, m))
        buf[0] = self.y0
        first, made = self.first, 1  # buf[:made]: rows first .. first + made
        for start in range(first, n_rows, CHUNK):
            start = min(start, n_rows - size)
            # the rows stepped past the chunk before start this one
            made -= start - first
            buf[:made] = buf[start - first:start - first + made]
            first = start
            # at least one row past this chunk, if there is one: the next
            # chunk steps from it
            stop = min(size + 1, n_rows - start)
            # an overflowing state is reported below, by the step it is at
            with np.errstate(over="ignore", invalid="ignore"):
                while made < stop:
                    b = min(block, n_rows - start - made)
                    y = buf[made - 1]
                    np.add(y, (self.increments[:b * m] @ y).reshape(b, m),
                           out=buf[made:made + b])
                    made += b
            chunk = buf[:size]
            finite = np.isfinite(chunk).all(axis=1)
            if not finite.all():
                step = start + int(np.argmin(finite))
                raise IntegrationError(
                    f"non-finite state at step {step} (t = {self.t[step]:g})")
            yield start, chunk


@dataclass(frozen=True)
class EnergyTraces:
    mech: np.ndarray
    elec: np.ndarray = None
    cross: np.ndarray = None
    total: np.ndarray = None


def integrate(rs, ic, t_f, dt):
    """Classic RK4 with dense output at every step, as a
    :class:`Trajectory` whose states are stepped as they are read.

    On the first-order state y = (z, z') the reduced system reads y' = A y.
    One RK4 step of a linear system is y <- y + D y with
    D = hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24, and j steps are
    y <- y + D_j y with D_j = (I + D)^j - I. The stack D_1 .. D_BLOCK is
    built once by doubling, D_{a+b} = D_a + D_b + D_a D_b, so each block of
    ``BLOCK`` rows is one product of the stacked increments with the block's
    first state. Neither I + D nor its powers are formed: adding the small
    increment to y, as the stage-by-stage scheme does, keeps its round-off,
    and doubling keeps the stack's error growing with log2(BLOCK) products
    rather than with BLOCK of them.

    The eigenvalues of I + D are the stability polynomial
    R(mu) = 1 + mu + mu^2/2 + mu^3/6 + mu^4/24 of those of hA, and those
    of the exact one-step flow exp(hA) are exp(mu). So row k is
    V R(mu)^k V^-1 y0 (hA = V mu V^-1) to round-off, and a conservative
    run's energy after T steps is the initial state's modal energies
    weighted by |R(mu)|^2T, which predicts the measured drift to 6.7e-8
    of it on clamped-demo and 2.5e-5 on paper-square (its spread between
    thread counts) before a step is taken. A step whose propagator
    has a spectral radius above 1 and above the flow's own (each up to
    ``STEP_RADIUS_MARGIN``) grows what the system does not: it raises
    :class:`StepStabilityError` naming ``dt``, the radius and the largest
    |omega| = |mu| / dt. An undamped mode is stable for dt |omega| up to
    2 sqrt(2).

    Here the step is checked and the output times ``t`` are allocated:
    raises :class:`IntegrationError` naming ``t_f``, ``dt`` and the step
    count if they cannot be. A state that stops being finite raises
    :class:`IntegrationError` naming its step where the trajectory is read
    (:meth:`Trajectory.chunks`).
    """
    if dt <= 0 or t_f <= 0:
        raise ValidationError("time step and final time must be positive")
    if not math.isfinite(t_f / dt):
        raise ValidationError(
            f"step count t_f / dt = {t_f:g} / {dt:g} is not finite")
    steps = max(1, int(round(t_f / dt)))
    m = 2 * rs.n_modes

    with np.errstate(over="ignore"):  # an overflowing hA fails the check
        ha = dt * _rate_matrix(rs)
    _check_step(ha, dt)
    try:
        t = dt * np.arange(steps + 1)
    except (MemoryError, ValueError):
        raise IntegrationError(
            f"cannot allocate the times of {steps} steps "
            f"(t_f = {t_f:g}, dt = {dt:g})"
        ) from None
    eye = np.eye(m)
    with np.errstate(over="ignore", invalid="ignore"):
        inc = np.empty((min(BLOCK, steps), m, m))
        inc[0] = ha @ (eye + ha @ (eye / 2.0 + ha @ (eye / 6.0 + ha / 24.0)))
        j = 1
        while j < len(inc):
            h = min(j, len(inc) - j)
            inc[j:j + h] = inc[j - 1] + inc[:h] + inc[j - 1] @ inc[:h]
            j += h
    # an overflowing increment would turn a zero state into NaN
    finite = np.isfinite(inc).all(axis=(1, 2))
    if not finite.all():
        inc = inc[:max(1, int(np.argmin(finite)))]
    return Trajectory(t=t, y0=np.concatenate([ic.z0, ic.zdot0]),
                      increments=inc.reshape(-1, m))


def _rate_matrix(rs):
    """The rate matrix A of the first-order form y' = A y, y = (z, z')."""
    n = rs.n_modes
    minv = np.linalg.inv(rs.k2red)
    a = np.zeros((2 * n, 2 * n))
    with np.errstate(over="ignore", invalid="ignore"):
        a[:n, n:] = np.eye(n)
        a[n:, :n] = -(minv @ rs.k0red)
        a[n:, n:] = -(minv @ rs.k1red)
    return a


def step(rs, drive, steps_per_period):
    """The RK4 step of a run that drives basis vector ``drive``: its period
    over ``steps_per_period``, capped at ``STEP_LIMIT`` / max |lambda| over
    the eigenvalues of the rate matrix (a search candidate adds the rate
    R_N / L_N, which the drive period does not see). A rate matrix that is
    not finite has no stable step: 0.
    """
    cap = 0.0
    a = _rate_matrix(rs)
    if np.isfinite(a).all():
        cap = STEP_LIMIT / np.abs(np.linalg.eigvals(a)).max()
    period = 2.0 * math.pi / rs.modes.omegas[drive]
    return float(min(period / steps_per_period, cap))


def _check_step(ha, dt):
    """Raises :class:`StepStabilityError` if one RK4 step of the step
    matrix ``ha`` grows faster than 1 and than the flow exp(ha)."""
    radius, flow, omega = math.inf, 1.0, math.inf
    if np.isfinite(ha).all():
        mu = np.linalg.eigvals(ha)
        with np.errstate(over="ignore", invalid="ignore"):
            radius = np.abs(1.0 + mu * (1.0 + mu / 2.0 * (
                1.0 + mu / 3.0 * (1.0 + mu / 4.0)))).max()
            flow = np.exp(mu.real.max())
        omega = np.abs(mu).max() / dt
    if not radius <= (1.0 + STEP_RADIUS_MARGIN) * max(1.0, flow):
        raise StepStabilityError(
            f"the RK4 step dt = {dt:g} lies outside the stability region: "
            f"the one-step propagator's spectral radius is {radius:.6g} "
            f"(largest |omega| {omega:.6g}; an undamped mode needs "
            f"dt |omega| <= 2.83)")


def _quadratic_trace(a, form, b):
    """a[t] . form . b[t] for every row t of a chunk (einsum "ti,ij,tj->t"),
    as (a @ form) . b. The chunks keep ``CHUNK`` rows to the last one
    (:meth:`Trajectory.chunks`; numpy hands a one-row product to gemv): OpenBLAS's
    dgemm sums a row alike for any block length at 16 modes, though not at
    every width, so the presets' traces keep the bits of one T x n
    product."""
    return np.einsum("ti,ti->t", a @ form, b)


def _family_block(rs, matrix, family):
    """``matrix`` with the entries outside the ``family`` rows and columns
    zeroed; kept full size, since a sub-block would change the summation
    order of the products."""
    inside = np.array([label == family for label in rs.modes.labels])
    return np.where(np.outer(inside, inside), matrix, 0.0)


def _family_energy(rs, family):
    """The energy of ``family`` as a function of a chunk's (z, z')."""
    m2 = _family_block(rs, rs.k2red, family)
    k0 = _family_block(rs, rs.k0sym, family)
    return lambda z, zd: 0.5 * (_quadratic_trace(zd, m2, zd)
                                + _quadratic_trace(z, k0, z))


@dataclass(frozen=True)
class EnergyStream:
    """The trajectory ``traj`` of ``rs``, read with its energy traces
    ``en``: each chunk is handed on once ``en`` holds its rows, so the pass
    that serves a reader (a table) fills them. ``en`` may hold E_mech alone."""

    rs: object
    traj: object
    en: EnergyTraces
    t = property(lambda self: self.traj.t)
    n_modes = property(lambda self: self.traj.n_modes)

    def chunks(self):
        rs, en, n, r = self.rs, self.en, self.rs.n_modes, self.rs.cross_ratio
        mech = _family_energy(rs, "mechanical")
        elec = _family_energy(rs, "electric")
        m2_elec = _family_block(rs, rs.k2red, "electric")
        for start, y in self.traj.chunks():
            rows = slice(start, start + len(y))
            z, zd = y[:, :n], y[:, n:]
            en.mech[rows] = mech(z, zd)
            if en.elec is not None:
                en.elec[rows] = elec(z, zd)
                if r != 0.0:
                    en.cross[rows] = r * _quadratic_trace(zd, m2_elec, z)
                    en.cross[rows] += (_quadratic_trace(z, m2_elec, z)
                                       * (0.5 * r * r))
                total = en.total[rows]
                np.add(en.mech[rows], en.elec[rows], out=total)
                total += en.cross[rows]
            yield start, y


def energy_stream(rs, traj):
    """``traj`` with its four energy traces, filled as it is read. Raises
    :class:`IntegrationError` naming the step count if the traces cannot
    be allocated."""
    try:
        en = EnergyTraces(*np.zeros((4, len(traj.t))))
    except MemoryError:
        raise IntegrationError(f"cannot allocate the energy traces of "
                               f"{len(traj.t) - 1} steps") from None
    return EnergyStream(rs, traj, en)


def mechanical_energy(rs, traj):
    """Bending-family energy trace, the one the damping fit reads."""
    en = EnergyTraces(np.empty(len(traj.t)))
    for _ in EnergyStream(rs, traj, en).chunks():
        pass
    return en.mech


def energies(rs, traj):
    """Per-family energy traces: :func:`energy_stream` read to its end.
    What is held is the four T-vectors returned and one chunk's products."""
    stream = energy_stream(rs, traj)
    for _ in stream.chunks():
        pass
    return stream.en


def beat_period(rs, index_a, index_b):
    """Energy-exchange period 2 pi / |kappa| of a tuned conservative pair.

    A pair that does not couple by symmetry still reads a round-off kappa;
    at most ``UNCOUPLED_KAPPA`` times omega_a counts as no exchange (inf).
    """
    kappa = abs(rs.k1red[index_a, index_b])
    if kappa <= UNCOUPLED_KAPPA * rs.modes.omegas[index_a]:
        return math.inf
    return 2.0 * math.pi / kappa


def suggested_dt(rs):
    """Default step: the shortest retained modal period times ``DT_FRACTION``."""
    return float(2.0 * math.pi / rs.modes.omegas.max() * DT_FRACTION)


def default_horizon(rs, drive, beats, steps_per_period):
    """Default (t_f, dt) of a run that starts on basis vector ``drive``.

    t_f spans ``beats`` beat periods of the drive with the nearest mode of
    the other family (a beat counts 20 drive periods when the pair does not
    exchange energy). dt is :func:`step`, capped by :func:`suggested_dt`
    (impulses put energy on the high modes).
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
    return beats * beat, min(step(rs, drive, steps_per_period),
                             suggested_dt(rs))


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
    """One search evaluation; its run was integrated to ``t_f`` at step
    ``dt``."""

    resistance: float
    zeta: float
    settling_time: float
    n_peaks: int
    t_f: float
    dt: float
    converged: bool = True


@dataclass(frozen=True)
class DampingReport:
    samples: tuple
    best: DampingSample
    regimes: dict
    warnings: tuple


def resistance_family(rs, material, conductance):
    """Map R_N -> ReducedSystem of the network with conductance G_N.

    ``rs`` is a system with R_N = G_N = 0 reduced, ``material`` its material
    (L_N, C_N). R_N and G_N only scale E2, the electric block of ``k2red``,
    and K1e, ``k1red`` with its mechanical columns zeroed (:mod:`.assembly`).
    With r = R_N / L_N:

        k1red + (r + G_N / C_N) E2,  k0red + r K1e + (G_N r / C_N) E2,
        k0sym + (r / 2) (K1e + K1e^T) + (G_N r / C_N) E2,  cross ratio r.
    """
    e2 = _family_block(rs, rs.k2red, "electric")
    k1e = np.where([label == "electric" for label in rs.modes.labels],
                   rs.k1red, 0.0)

    def reduced(resistance):
        r = float(resistance)
        if not r >= 0.0:
            raise ValidationError(
                f"net resistance must be non-negative, got {resistance}")
        ratio = r / material.network.inductance
        shunt = conductance * ratio / material.c_n
        # an overflowing ratio leaves a system no step can take (step: 0)
        with np.errstate(over="ignore", invalid="ignore"):
            return replace(
                rs, cross_ratio=ratio,
                k1red=rs.k1red + (ratio + conductance / material.c_n) * e2,
                k0red=rs.k0red + ratio * k1e + shunt * e2,
                k0sym=rs.k0sym + (0.5 * ratio) * (k1e + k1e.T) + shunt * e2,
            )

    return reduced


def damping_evaluator(reduced, basis, mode_index, partner):
    """Evaluator R_N -> DampingSample for the resistance search.

    ``reduced`` maps a candidate resistance to its reduced system (a
    :func:`resistance_family`), ``basis`` is the retained conservative basis
    it was reduced on, ``mode_index`` the driven basis vector and
    ``partner`` the electric basis vector it is tuned to, whose beat tb sets
    the crest window of the fit. Every call integrates a unit
    initial-displacement run at the candidate's own :func:`step` and fits
    the log decrement of the mechanical-energy envelope. The horizon starts
    at ``SEARCH_BEATS`` tb (R_N and G_N leave the driven row of ``k1red``
    as it is, so tb is the same for every candidate) and doubles until at
    least four envelope peaks carrying a visible secular decay (at least
    30 percent over the fit window) are available, at most
    ``MAX_EXTENSIONS`` times (else the sample is not ``converged``); a
    doubled run keeps the shorter one's rows and E_mech and steps on from
    its last block (:meth:`Trajectory.resumed`), with the bits of a run
    from t = 0. An evaluation computes E_mech alone, the trace the fit
    reads, and keeps no trajectory; ``evaluate.run(sample)`` integrates a
    sample's run again (its R_N, t_f and dt) and returns (reduced system,
    trajectory).

    A candidate whose step is capped more than ``MAX_STEP_REFINEMENT``
    times below the drive period's share raises :class:`StiffStepError`
    before it is integrated; ``evaluate.step(R_N)`` makes that check alone
    and returns the candidate's (system, step).
    """
    omega_ref = float(basis.omegas[mode_index])
    share = 2.0 * math.pi / omega_ref / SEARCH_STEPS_PER_PERIOD

    def candidate_step(resistance):
        rs = reduced(resistance)
        dt = step(rs, mode_index, SEARCH_STEPS_PER_PERIOD)
        if not dt * MAX_STEP_REFINEMENT >= share:
            factor = share / dt if dt else math.inf
            raise StiffStepError(
                f"at R_N = {float(resistance):g} a stable RK4 step is "
                f"{factor:.3g} times finer than the drive period / "
                f"{SEARCH_STEPS_PER_PERIOD}, more than the "
                f"{MAX_STEP_REFINEMENT} the search allows")
        return rs, dt

    def evaluate(resistance):
        rs, dt = candidate_step(resistance)
        ic = unimodal_ic(rs, mode_index)
        tb = beat_period(rs, mode_index, partner)
        horizon = SEARCH_BEATS * tb
        for extension in range(MAX_EXTENSIONS + 1):
            if extension:
                horizon *= 2.0
            traj = integrate(rs, ic, horizon, dt)
            en = EnergyTraces(np.empty(len(traj.t)))
            if extension:  # the shorter run's rows are this one's
                traj = traj.resumed(*last)
                en.mech[:traj.first] = mech[:traj.first]
            for last in EnergyStream(rs, traj, en).chunks():
                pass
            mech = en.mech
            fit = fit_damping(traj, mech, omega_ref, beat_period=tb)
            converged = (fit.n_peaks >= MIN_ENVELOPE_PEAKS
                         and fit.realized_decay < 0.7)
            if converged:
                break
        return DampingSample(
            resistance=float(resistance), zeta=fit.zeta,
            settling_time=settling_time(traj.t, mech),
            n_peaks=fit.n_peaks, t_f=horizon, dt=dt, converged=converged,
        )

    def run(sample):
        rs = reduced(sample.resistance)
        return rs, integrate(rs, unimodal_ic(rs, mode_index), sample.t_f,
                             sample.dt)

    evaluate.step = candidate_step
    evaluate.run = run
    return evaluate


def optimize_resistance(evaluate, bracket):
    """Maximize the damping ratio over a resistance bracket.

    A coarse logarithmic scan brackets the peak; golden-section search then
    refines it to the relative width ``SEARCH_REL_TOL``. When the scan is not
    single-peaked (or peaks at an endpoint) the search falls back to a fine
    grid scan and records a warning. The report carries sub-critical,
    near-critical and super-critical sample runs at R*/10, R* and 10 R*,
    and a warning naming every resistance whose fit did not converge.

    The coarse scan runs stiffest (largest R_N) first, so a bracket with a
    candidate too stiff to step (:class:`StiffStepError`) fails on its first
    evaluation, with a :class:`ValidationError` naming ``[search] r_hi``, or
    ``r_lo`` when ``evaluate.step`` finds even the low end too stiff.
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
    try:
        zetas = np.array([sample(r).zeta for r in grid[::-1]])[::-1]
    except StiffStepError as exc:
        end, value = "r_hi", r_hi
        try:
            evaluate.step(r_lo)
        except StiffStepError as low:
            exc, end, value = low, "r_lo", r_lo
        raise ValidationError(
            f"config field [search] {end} = {value:g}: {exc}") from None
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

    best = evaluate(best_r)
    regimes = {
        "sub_critical": evaluate(best_r / 10.0),
        "critical": best,
        "super_critical": evaluate(best_r * 10.0),
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

