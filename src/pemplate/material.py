"""Reduced constitutive model of the piezo-electro-mechanical plate.

Collects every matrix of the coupled weak problem for the two-field state
u = (w, alpha): the inertia/capacitance matrix G, the damping matrices S and
T, the rate coupling V, the stiffness block E, the descriptor couplings C and
R, the rotary-inertia block G_B, and the compatibility selectors H0..H5 mapping
(u, u_x, u_y, u_xx, u_yy, u_xy) to the generalized strain

    eps = (chi_1, chi_2, chi_12, alpha_x, alpha_y),
    chi_1 = -w_xx,  chi_2 = -w_yy,  chi_12 = -2 w_xy.

Sign conventions: the electric coupling row of V carries +g_me against the
curvature rates, which is the unique placement that makes the assembled
conservative system conserve total energy (skew coupling in the first-order
damping matrix).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ValidationError

N_FIELDS = 2      # one fourth-order field (w), one second-order field (alpha)
STRAIN_DIM = 5


@dataclass(frozen=True)
class PlateParams:
    """Host-plate and piezo-layer constitutive data.

    ``bending_stiffness`` is the host 3x3 bending matrix (2h^3/3 * E1) and
    ``piezo_bending_stiffness`` the piezo-added part; their sum must be
    symmetric positive definite. ``coupling`` is the electromechanical row
    (g_me1, g_me2, g_me12) and ``piezo_capacitance`` the per-area electric
    self term g_ee.
    """

    half_thickness: float
    density: float
    bending_stiffness: np.ndarray
    piezo_bending_stiffness: np.ndarray
    coupling: np.ndarray
    piezo_capacitance: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "bending_stiffness",
                           _frozen(self.bending_stiffness, (3, 3)))
        object.__setattr__(self, "piezo_bending_stiffness",
                           _frozen(self.piezo_bending_stiffness, (3, 3)))
        object.__setattr__(self, "coupling", _frozen(self.coupling, (3,)))

    @classmethod
    def isotropic(cls, half_thickness, density, rigidity, poisson,
                  coupling=(0.0, 0.0, 0.0), piezo_capacitance=0.0):
        """Isotropic combined bending stiffness D [[1, nu, 0], [nu, 1, 0],
        [0, 0, (1-nu)/2]] carried entirely by the host matrix."""
        d, nu = rigidity, poisson
        e = d * np.array([[1.0, nu, 0.0], [nu, 1.0, 0.0], [0.0, 0.0, (1.0 - nu) / 2.0]])
        return cls(half_thickness=half_thickness, density=density,
                   bending_stiffness=e, piezo_bending_stiffness=np.zeros((3, 3)),
                   coupling=np.asarray(coupling, dtype=float),
                   piezo_capacitance=piezo_capacitance)

    @property
    def total_bending_stiffness(self):
        return self.bending_stiffness + self.piezo_bending_stiffness


@dataclass(frozen=True)
class NetworkParams:
    """Lumped parameters of the interconnecting electric network.

    ``capacitance`` is the surface-to-ground capacitance per area K_c; the
    total C_N = K_c + g_ee is formed in :func:`build_material`.
    """

    inductance: float        # L_N
    resistance: float = 0.0  # R_N
    capacitance: float = 1.0  # K_c
    conductance: float = 0.0  # G_N


@dataclass(frozen=True)
class MaterialModel:
    """All matrices of the weak problem, built from plate + network data."""

    plate: PlateParams
    network: NetworkParams
    c_n: float
    G: np.ndarray
    S: np.ndarray
    T: np.ndarray
    V: np.ndarray
    E: np.ndarray
    C: np.ndarray
    R: np.ndarray
    G_B: np.ndarray  # rotary inertia, the same for N_x and N_y
    H: np.ndarray  # (6, 5, 2) stack of H0..H5

    @property
    def coupled(self):
        return bool(np.any(self.plate.coupling != 0.0))


def _frozen(a, shape):
    a = np.array(a, dtype=float)
    if a.shape != shape:
        raise ValidationError(f"expected array of shape {shape}, got {a.shape}")
    a.setflags(write=False)
    return a


def has_cholesky(m):
    """Whether the symmetric matrix ``m`` is positive definite in float64."""
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return False
    return True


def _check_spd(m, what):
    if not np.allclose(m, m.T, atol=1e-12):
        raise ValidationError(f"{what} must be symmetric")
    if not has_cholesky(m):
        raise ValidationError(f"{what} must be positive definite")


def compatibility_selectors():
    """The H0..H5 stack (each 5x2) of the kinematical compatibility rule."""
    H = np.zeros((6, STRAIN_DIM, N_FIELDS))
    H[1, 3, 1] = 1.0   # alpha_x
    H[2, 4, 1] = 1.0   # alpha_y
    H[3, 0, 0] = -1.0  # chi_1 = -w_xx
    H[4, 1, 0] = -1.0  # chi_2 = -w_yy
    H[5, 2, 0] = -2.0  # chi_12 = -2 w_xy
    return H


def build_material(plate, net):
    """Populate the weak-problem matrices for one parameter set.

    Raises ``ValidationError`` for a non-SPD bending stiffness or for
    non-positive net inductance / total capacitance.
    """
    if plate.half_thickness <= 0:
        raise ValidationError("half thickness must be positive")
    if plate.density <= 0:
        raise ValidationError("density must be positive")
    if net.inductance <= 0:
        raise ValidationError("net inductance must be positive")
    if net.resistance < 0 or net.conductance < 0:
        raise ValidationError("net resistance and conductance must be non-negative")
    c_n = net.capacitance + plate.piezo_capacitance
    if c_n <= 0:
        raise ValidationError("total capacitance C_N = K_c + g_ee must be positive")
    e_bend = plate.total_bending_stiffness
    _check_spd(e_bend, "bending stiffness E_chi + E_chi^p")

    h, rho = plate.half_thickness, plate.density
    l_n, r_n, g_n = net.inductance, net.resistance, net.conductance
    g_me = plate.coupling
    # finite h and rho can still overflow the inertias (h**3 raises for it)
    try:
        rot = 2.0 * h**3 * rho / 3.0
    except OverflowError:
        rot = np.inf
    if not np.isfinite([2.0 * h * rho, rot]).all():
        raise ValidationError(
            f"config fields [material] h = {h:g} and rho = {rho:g}: the mass "
            "2 h rho or the rotary inertia 2 h^3 rho / 3 overflows float64")

    G = np.diag([-2.0 * h * rho, -c_n * l_n])
    S = np.diag([0.0, -c_n * r_n - g_n * l_n])
    T = np.diag([0.0, -g_n * r_n])
    G_B = np.diag([-rot, 0.0])

    E = np.zeros((STRAIN_DIM, STRAIN_DIM))
    E[:3, :3] = e_bend
    E[3:, 3:] = np.eye(2)

    V = np.zeros((N_FIELDS, STRAIN_DIM))
    V[1, :3] = g_me

    C = np.zeros((STRAIN_DIM, N_FIELDS))
    C[:3, 1] = l_n * g_me
    R = np.zeros((STRAIN_DIM, N_FIELDS))
    R[:3, 1] = r_n * g_me

    for m in (G, S, T, G_B, E, V, C, R):
        m.setflags(write=False)
    H = compatibility_selectors()
    H.setflags(write=False)

    return MaterialModel(plate=plate, network=net, c_n=float(c_n), G=G, S=S,
                         T=T, V=V, E=E, C=C, R=R, G_B=G_B, H=H)


def conservative_twin(net):
    """The same network with R_N = G_N = 0, the only kind a run assembles:
    R_N and G_N scale blocks of its reduction (``resistance_family``)."""
    return replace(net, resistance=0.0, conductance=0.0)
