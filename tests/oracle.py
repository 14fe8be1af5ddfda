"""Whole-array RK4 history and energy traces: the oracle for the streamed
``dynamics.integrate`` and ``dynamics.energies``.

``integrate`` and ``energies`` here are the forms that held the T x 2n state
history at once; ``dynamics`` now steps the states a chunk at a time and
holds none. :class:`HeldTrajectory` is a history held whole, which the
package's readers take as they take a streamed one (``t``, ``first`` and
``chunks()``).
"""

import math
from dataclasses import dataclass

import numpy as np

from pemplate import csvfmt, dynamics
from pemplate.errors import IntegrationError, ValidationError


@dataclass(frozen=True)
class HeldTrajectory:
    """A state history y = (z, z') held as one (T, 2n) array, from row 0."""

    t: np.ndarray
    y: np.ndarray
    first = 0

    @property
    def n_modes(self):
        return self.y.shape[1] // 2

    @property
    def z(self):
        return self.y[:, :self.n_modes]

    @property
    def zdot(self):
        return self.y[:, self.n_modes:]

    def chunks(self):
        """The chunks of ``dynamics.Trajectory.chunks``, sliced."""
        n_rows = len(self.t)
        for start in range(0, n_rows, csvfmt.CHUNK):
            start = max(0, min(start, n_rows - csvfmt.CHUNK))
            yield start, self.y[start:start + csvfmt.CHUNK]


def held(traj):
    """The states of a streamed trajectory, every row once, held whole."""
    y = np.empty((len(traj.t), 2 * traj.n_modes))
    for start, rows in traj.chunks():
        y[start:start + len(rows)] = rows
    return HeldTrajectory(traj.t, y)


def integrate(rs, ic, t_f, dt):
    """RK4 in blocks of ``dynamics.BLOCK`` rows into one (T, 2n) array."""
    if dt <= 0 or t_f <= 0:
        raise ValidationError("time step and final time must be positive")
    if not math.isfinite(t_f / dt):
        raise ValidationError(
            f"step count t_f / dt = {t_f:g} / {dt:g} is not finite")
    steps = max(1, int(round(t_f / dt)))
    m = 2 * rs.n_modes
    with np.errstate(over="ignore"):
        ha = dt * dynamics._rate_matrix(rs)
    dynamics._check_step(ha, dt)
    eye = np.eye(m)
    out = np.empty((steps + 1, m))
    out[0] = np.concatenate([ic.z0, ic.zdot0])
    with np.errstate(over="ignore", invalid="ignore"):
        inc = np.empty((min(dynamics.BLOCK, steps), m, m))
        inc[0] = ha @ (eye + ha @ (eye / 2.0 + ha @ (eye / 6.0 + ha / 24.0)))
        j = 1
        while j < len(inc):
            h = min(j, len(inc) - j)
            inc[j:j + h] = inc[j - 1] + inc[:h] + inc[j - 1] @ inc[:h]
            j += h
        finite = np.isfinite(inc).all(axis=(1, 2))
        if not finite.all():
            inc = inc[:max(1, int(np.argmin(finite)))]
        block = len(inc)
        stack = inc.reshape(block * m, m)
        for k in range(0, steps, block):
            b = min(block, steps - k)
            out[k + 1:k + 1 + b] = out[k] + (stack[:b * m] @ out[k]).reshape(b, m)
    finite = np.isfinite(out).all(axis=1)
    if not finite.all():
        step = int(np.argmin(finite))
        raise IntegrationError(
            f"non-finite state at step {step} (t = {step * dt:g})")
    return HeldTrajectory(dt * np.arange(steps + 1), out)


def quadratic_trace(a, form, b):
    """a[t] . form . b[t] over whole (T, n) arrays, in blocks of
    ``csvfmt.CHUNK`` rows, the last ending at the last row."""
    out = np.empty(len(a))
    for start in range(0, len(a), csvfmt.CHUNK):
        rows = slice(max(0, min(start, len(a) - csvfmt.CHUNK)),
                     start + csvfmt.CHUNK)
        np.einsum("ti,ti->t", a[rows] @ form, b[rows], out=out[rows])
    return out


def mechanical_energy(rs, traj):
    z, zd = traj.z, traj.zdot
    block = dynamics._family_block
    return 0.5 * (quadratic_trace(zd, block(rs, rs.k2red, "mechanical"), zd)
                  + quadratic_trace(z, block(rs, rs.k0sym, "mechanical"), z))


def energies(rs, traj):
    """Per-family energy traces of a held history."""
    z, zd = traj.z, traj.zdot
    block = dynamics._family_block
    mech = mechanical_energy(rs, traj)
    m2_elec = block(rs, rs.k2red, "electric")
    elec = 0.5 * (quadratic_trace(zd, m2_elec, zd)
                  + quadratic_trace(z, block(rs, rs.k0sym, "electric"), z))
    r = rs.cross_ratio
    cross = np.zeros_like(mech)
    if r != 0.0:
        np.multiply(r, quadratic_trace(zd, m2_elec, z), out=cross)
        b = quadratic_trace(z, m2_elec, z)
        b *= 0.5 * r * r
        cross += b
    total = mech + elec
    total += cross
    return dynamics.EnergyTraces(mech=mech, elec=elec, cross=cross,
                                 total=total)
