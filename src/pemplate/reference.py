"""Closed-form eigenfrequency catalogs for the square benchmark domain, and
the table that compares a computed spectrum with them.

Simply supported bending plate on the unit square: omega proportional to
m^2 + n^2, so the spectrum normalized by the fundamental is
(m^2 + n^2) / 2. Grounded membrane (Dirichlet Laplacian): omega proportional
to sqrt(m^2 + n^2), normalized sqrt((m^2 + n^2) / 2).
"""

import numpy as np


def _mode_sums(count):
    top = int(np.ceil(np.sqrt(2 * count))) + 2
    sums = sorted((m * m + n * n) for m in range(1, top) for n in range(1, top))
    return np.array(sums[:count], dtype=float)


def square_mechanical_ratios(count):
    """First ``count`` normalized bending frequencies of the SS unit square."""
    s = _mode_sums(count)
    return s / s[0]


def square_electric_ratios(count):
    """First ``count`` normalized frequencies of the grounded unit-square membrane."""
    s = _mode_sums(count)
    return np.sqrt(s / s[0])


def mode_table(mech, elec, bc_kinds, square):
    """Spectrum table of the electric then the mechanical family modes.

    ``bc_kinds`` is the set of boundary-condition kinds applied to the
    (single) boundary group; ``square`` says whether the mesh is the
    structured unit-square benchmark domain. Each family the catalogs cover
    gets its analytic normalized spectrum and percent error; the others get
    empty cells and a notice. Returns (header, rows, notices).
    """
    catalog = {
        "mechanical": square_mechanical_ratios
        if square and "simply_supported" in bc_kinds else None,
        "electric": square_electric_ratios
        if square and "grounded" in bc_kinds else None,
    }
    rows, notices = [], []
    for family, modes in (("electric", elec), ("mechanical", mech)):
        ratios = modes.omegas / modes.omegas[0]
        analytic = catalog[family]
        if analytic is None:
            notices.append(
                f"analytic catalog does not cover the {family} family here; "
                "analytical columns omitted"
            )
        else:
            table = analytic(len(ratios))
        for k in range(len(ratios)):
            row = [len(rows) + 1, modes.omegas[k], ratios[k], modes.labels[k]]
            if analytic is not None:
                row += [table[k], 100.0 * abs(ratios[k] - table[k]) / table[k]]
            rows.append(row)
    header = ["index", "omega", "omega_normalized", "classification"]
    if any(len(r) > 4 for r in rows):
        header += ["analytic_normalized", "error_percent"]
        rows = [r + [""] * (6 - len(r)) for r in rows]
    return header, rows, notices
