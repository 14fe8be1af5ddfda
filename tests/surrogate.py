"""Hand-built reduced systems for tests that need one without a mesh."""

import numpy as np

from pemplate import modal


def two_mode_surrogate(omega, kappa, resistance, inductance):
    """Hand-built 2x2 reduced system of one tuned mechanical/electric pair.

    Reproduces the reduced algebra of the full pipeline: skew rate coupling
    kappa, electric rate damping R/L, and the resistance coupling R/L * kappa
    in the stiffness row of the mechanical equation.
    """
    r = resistance / inductance
    k1 = np.array([[0.0, kappa], [-kappa, r]])
    k0 = np.array([[omega**2, r * kappa], [0.0, omega**2]])
    modes = modal.ModeSet(omegas=np.array([omega, omega]), vectors=np.eye(2),
                          labels=("mechanical", "electric"))
    return modal.ReducedSystem(
        k2red=np.eye(2), k1red=k1, k0red=k0, k0sym=0.5 * (k0 + k0.T),
        modes=modes, cross_ratio=r,
    )
