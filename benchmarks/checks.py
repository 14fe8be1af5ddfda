"""Key outputs of a pemplate run and their check against the stored reference.

``reference.json`` holds the outputs captured by ``capture_reference.py``.
A run is correct when every reference key is present in its outputs and
within the relative tolerance below.
"""

from __future__ import annotations

import csv
import json
import re
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"

# Relative tolerance of each key output, and why.
TOLERANCES = {
    # ROADMAP north star 2: eigenfrequencies to 1e-10 relative.
    "omega": 1e-10,
    # L_N = L_0 (w_e / w_m)^2, so it inherits twice the relative error of
    # each of the two frequencies: 4e-10 at most, rounded up.
    "inductance": 1e-9,
    # ROADMAP north star 2: the resistance search's own rel_tol.
    "resistance": 1e-2,
    # zeta* is the fitted damping ratio at R*; optimize_resistance allows 2%
    # fit noise on zeta between neighbouring samples.
    "zeta": 2e-2,
    # The drift is RK4's own truncation error (>= 7e-8 of E_0 here); a
    # reformulation of the same scheme changes it only by round-off, below
    # 1e-7 of the drift itself. 1e-6 keeps a margin and still catches any
    # change of scheme or step.
    "drift": 1e-6,
    # The step count follows from t_f and dt alone: exact.
    "rk4_steps": 0.0,
}

_SUMMARY = {
    "inductance": (re.compile(r"^tuned L_N: \S+ -> (\S+)$", re.M), float),
    "rk4_steps": (re.compile(r"^simulation: (\d+) steps,", re.M), int),
    "drift": (re.compile(r"^simulation: \d+ steps, drift (\S+),", re.M), float),
    "resistance": (re.compile(r"^optimal resistance R\* (\S+),", re.M), float),
    "zeta": (re.compile(r"^optimal resistance R\* \S+, zeta (\S+)$", re.M),
             float),
}


def load_reference(path=REFERENCE):
    return json.loads(Path(path).read_text())


def read_outputs(out_dir):
    """Key outputs found in ``out_dir`` (``modes.csv``, ``summary.txt``)."""
    out_dir = Path(out_dir)
    outputs = {}
    modes = out_dir / "modes.csv"
    if modes.is_file():
        with modes.open(newline="") as fh:
            outputs["omega"] = [float(row["omega"]) for row in csv.DictReader(fh)]
    summary = out_dir / "summary.txt"
    if summary.is_file():
        text = summary.read_text()
        for key, (pattern, cast) in _SUMMARY.items():
            m = pattern.search(text)
            if m:
                outputs[key] = cast(m.group(1))
    return outputs


def _close(observed, expected, rel_tol):
    return abs(observed - expected) <= rel_tol * abs(expected)


def check(outputs, expected):
    """Problems found comparing ``outputs`` with the ``expected`` reference."""
    problems = []
    for key, ref in expected.items():
        if key not in outputs:
            problems.append(f"{key}: missing from the run's outputs")
            continue
        got = outputs[key]
        tol = TOLERANCES[key]
        if isinstance(ref, list):
            if len(got) != len(ref):
                problems.append(f"{key}: {len(got)} values, reference has "
                                f"{len(ref)}")
                continue
            bad = [i for i, (g, r) in enumerate(zip(got, ref))
                   if not _close(g, r, tol)]
            if bad:
                i = bad[0]
                problems.append(f"{key}[{i}] = {got[i]!r}, reference "
                                f"{ref[i]!r} (rel tol {tol:g}; "
                                f"{len(bad)} values off)")
        elif not _close(got, ref, tol):
            problems.append(f"{key} = {got!r}, reference {ref!r} "
                            f"(rel tol {tol:g})")
    return problems
