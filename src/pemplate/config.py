"""Run-configuration parsing for the batch front-end.

Grammar: a flat structured-text file of ``[section]`` headers followed by
``key = value`` lines. ``#`` starts a comment, values may be quoted (a
quoted value may contain ``#``), and only the ``[bc]`` section may repeat
(each block declares one boundary condition). The section getters check
each value as they read it, before any computation starts, and a bad one
fails naming the field: ``config field [S] K must be <rule>, got <value>``.
An unknown section or a key the run does not read is an error naming its
line. The optional ``[tuning]`` and ``[search]`` blocks are
switched on by their header alone: an empty ``[tuning]`` tunes mode 1 to
mode 1, and ``[search]`` must give ``r_lo`` and ``r_hi``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .assembly import BoundaryCondition
from .errors import ValidationError
from .material import NetworkParams, PlateParams, build_material, has_cholesky


# Every section the parser reads; any other section name is a typo.
_SECTIONS = ("mesh", "material", "network", "bc", "modal", "tuning",
             "simulation", "search")

# a quoted value, which may contain '#', after 'key ='
_QUOTED = re.compile(r"""^([^=#]*=\s*)("[^"]*"|'[^']*')(.*)$""")


def _strip_comment(raw):
    """``raw`` without its ``#`` comment; a quoted value keeps its ``#``."""
    m = _QUOTED.match(raw)
    if m:
        return m.group(1) + m.group(2) + m.group(3).split("#", 1)[0]
    return raw.split("#", 1)[0]


def parse_sections(text, origin="<config>"):
    """Parse the raw text into an ordered list of sections.

    Each is a :class:`_Section`: a ``{key: value}`` dict that also records
    the line of its header and of every key.
    """
    sections = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = _Section(line[1:-1].strip(), {}, lineno)
            sections.append(current)
            continue
        if "=" not in line:
            raise ValidationError(f"{origin}:{lineno}: expected 'key = value'")
        if current is None:
            raise ValidationError(f"{origin}:{lineno}: key before any [section]")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip().strip('"').strip("'")
        if not key:
            raise ValidationError(f"{origin}:{lineno}: empty key")
        if key in current:
            raise ValidationError(
                f"{origin}:{lineno}: duplicate key '{key}' in [{current.name}]")
        current[key] = value
        current.key_lines[key] = lineno
    return sections


class _Section(dict):
    def __init__(self, name, data, lineno=None):
        super().__init__(data)
        self.name = name
        self.lineno = lineno
        self.key_lines = {}
        self.used = set()

    def get_str(self, key, default=None):
        self.used.add(key)
        if key in self:
            return self[key]
        if default is None:
            raise ValidationError(f"missing config field [{self.name}] {key}")
        return default

    def check(self, key, value, holds, rule):
        """``value``; fails naming the field unless ``holds``."""
        if not holds:
            raise ValidationError(f"config field [{self.name}] {key} must be "
                                  f"{rule}, got {value!r}")
        return value

    def _number(self, key, default, convert, what):
        raw = self.get_str(key, None if default is None else str(default))
        try:
            return raw, convert(raw)
        except ValueError:
            raise ValidationError(
                f"config field [{self.name}] {key} = '{raw}' is not {what}"
            ) from None

    def get_float(self, key, default=None, positive=False):
        raw, value = self._number(key, default, float, "a number")
        if not math.isfinite(value):
            raise ValidationError(
                f"config field [{self.name}] {key} = '{raw}' is not finite")
        return self.check(key, value, value > 0 or not positive,
                          "finite and positive")

    def get_int(self, key, default=None, least=1, most=None):
        value = self._number(key, default, int, "an integer")[1]
        if most is None:
            return self.check(key, value, value >= least, f">= {least}")
        return self.check(key, value, least <= value <= most,
                          f"between {least} and {most}")

    def get_choice(self, key, default, choices):
        value = self.get_str(key, default)
        names = [repr(c) for c in choices]
        return self.check(key, value, value in choices,
                          f"{', '.join(names[:-1])} or {names[-1]}")

    def get_floats(self, key, count, default=None):
        raw = self.get_str(key, default)
        parts = raw.replace(",", " ").split()
        if len(parts) != count:
            raise ValidationError(
                f"config field [{self.name}] {key} needs {count} numbers, "
                f"got '{raw}'"
            )
        try:
            values = tuple(float(p) for p in parts)
        except ValueError:
            raise ValidationError(
                f"config field [{self.name}] {key} = '{raw}' has a non-number"
            ) from None
        if not all(map(math.isfinite, values)):
            raise ValidationError(
                f"config field [{self.name}] {key} = '{raw}' is not finite")
        return values


@dataclass(frozen=True)
class SimulationBlock:
    ic: str                 # unimodal | impulse
    mode: int               # 1-based index within the chosen family
    family: str
    on: str
    amplitude: float
    point: tuple | None
    magnitude: float
    beats: float
    steps_per_period: int
    t_f: float | None
    dt: float | None


@dataclass(frozen=True)
class RunConfig:
    """Validated run description driving the pipeline stages."""

    mesh_kind: str
    mesh_n: int | None      # structured meshes only
    mesh_side: float | None
    mesh_pattern: str | None
    mesh_path: Path | None  # file meshes only
    plate: PlateParams
    network: NetworkParams
    bcs: tuple
    n_mech: int
    n_elec: int
    tune_mech: int | None   # 1-based tuning targets
    tune_elec: int | None
    simulation: SimulationBlock
    search_lo: float | None
    search_hi: float | None
    source_text: str = field(repr=False, default="")


def package_file(folder, name):
    """Path of the file ``name`` in the package's ``folder``."""
    ref = resources.files("pemplate") / folder / name
    with resources.as_file(ref) as concrete:
        return Path(concrete)


def _resolve_mesh_path(raw, base_dir):
    if raw.startswith("builtin:"):
        return package_file("data", raw.split(":", 1)[1])
    p = Path(raw)
    if not p.is_absolute() and base_dir is not None:
        p = Path(base_dir) / p
    return p


def load_config(path):
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ValidationError(f"config file {path} is unreadable: {reason}") from None
    return parse_config(text, origin=str(path), base_dir=path.parent)


def parse_config(text, origin="<config>", base_dir=None):
    raw_sections = parse_sections(text, origin)
    singles = {}
    bc_sections = []
    for sec in raw_sections:
        if sec.name not in _SECTIONS:
            raise ValidationError(
                f"{origin}:{sec.lineno}: unknown section [{sec.name}]")
        if sec.name == "bc":
            bc_sections.append(sec)
        elif sec.name in singles:
            raise ValidationError(f"{origin}: duplicate section [{sec.name}]")
        else:
            singles[sec.name] = sec

    def section(name):
        return singles.get(name, _Section(name, {}))

    mesh = section("mesh")
    kind = mesh.get_choice("kind", "structured", ("structured", "file"))
    # a key of the other mesh kind is an unknown-key error below
    n = side = pattern = mesh_path = None
    if kind == "structured":
        n = mesh.get_int("n", 16)
        side = mesh.get_float("side", 1.0, positive=True)
        pattern = mesh.get_choice("pattern", "crossed", ("crossed", "diagonal"))
    else:
        mesh_path = _resolve_mesh_path(mesh.get_str("path"), base_dir)
        if not mesh_path.exists():
            raise ValidationError(f"mesh file not found: {mesh_path}")

    # build_material's invariants, checked here to name their fields; it
    # still runs them below, with its inertia overflow check
    m = section("material")
    poisson = m.get_float("poisson", 0.3)
    rigidity = m.get_float("rigidity", 1.0, positive=True)
    plate = PlateParams.isotropic(
        half_thickness=m.get_float("h", 1e-3, positive=True),
        density=m.get_float("rho", 500.0, positive=True),
        rigidity=rigidity,
        # D [[1, nu, 0], [nu, 1, 0], [0, 0, (1 - nu) / 2]] is positive
        # definite for D > 0 and |nu| < 1, unless an entry underflows
        poisson=m.check("poisson", poisson, -1 < poisson < 1,
                        "between -1 and 1, exclusive"),
        coupling=m.get_floats("g_me", 3, default="0.1 0.1 0.0"),
        piezo_capacitance=m.get_float("g_ee", 0.0),
    )
    m.check("rigidity", rigidity, has_cholesky(plate.bending_stiffness),
            "large enough that D [[1, nu, 0], [nu, 1, 0], [0, 0, (1 - nu) / 2]]"
            " is positive definite in float64")
    nw = section("network")
    if nw.get_float("resistance", 0.0) != 0.0:
        raise ValidationError(
            f"config field [network] resistance = '{nw['resistance']}' would "
            "be ignored: the simulation runs the conservative network "
            "(R_N = 0) and the search scans [search] r_lo..r_hi; set it to 0")
    conductance = nw.get_float("conductance", 0.0)
    network = NetworkParams(
        inductance=nw.get_float("inductance", 1.0, positive=True),
        capacitance=nw.get_float("capacitance", 1.0),
        conductance=nw.check("conductance", conductance, conductance >= 0,
                             "non-negative"),
    )
    c_n = network.capacitance + plate.piezo_capacitance
    if not c_n > 0:
        raise ValidationError(
            f"config fields [network] capacitance = {network.capacitance!r} and "
            f"[material] g_ee = {plate.piezo_capacitance!r}: the total "
            f"capacitance C_N = capacitance + g_ee must be positive, got {c_n!r}")
    build_material(plate, network)

    bcs = []
    for s in bc_sections:
        group = s.get_str("group")
        for kind_name in s.get_str("kind").split("+"):
            try:
                bcs.append(BoundaryCondition(group=group, kind=kind_name.strip()))
            except ValidationError as exc:
                raise ValidationError(f"config field [bc] kind: {exc}") from None
    if not bcs:
        raise ValidationError("config declares no [bc] section")

    modal_s = section("modal")
    n_mech = modal_s.get_int("n_mech", 8)
    n_elec = modal_s.get_int("n_elec", 8)

    tune_mech = tune_elec = None
    if "tuning" in singles:
        tuning = singles["tuning"]
        tune_mech = tuning.get_int("mech_mode", 1, most=n_mech)
        tune_elec = tuning.get_int("elec_mode", 1, most=n_elec)

    sim = section("simulation")
    ic = sim.get_choice("ic", "unimodal", ("unimodal", "impulse"))
    family = sim.get_choice("family", "mechanical", ("mechanical", "electric"))
    # each initial condition reads only its own keys, so setting a key of
    # the other one is an unknown-key error below
    on, amplitude, point, magnitude = "displacement", 1.0, None, 1.0
    if ic == "unimodal":
        on = sim.get_choice("on", on, ("displacement", "velocity"))
        amplitude = sim.get_float("amplitude", amplitude)
    else:
        point = sim.get_floats("point", 2)
        magnitude = sim.get_float("magnitude", magnitude)
    for key, value in (("amplitude", amplitude), ("magnitude", magnitude)):
        sim.check(key, value, value != 0, "finite and nonzero")
    beats = sim.get_float("beats", 10.0, positive=True)
    t_f = sim.get_float("t_f", positive=True) if "t_f" in sim else None
    dt = sim.get_float("dt", positive=True) if "dt" in sim else None
    if t_f is not None and dt is not None:
        if dt > t_f:
            raise ValidationError(f"config field [simulation] dt = {dt:g} "
                                  f"exceeds [simulation] t_f = {t_f:g}")
        # a run takes whole steps; a remainder would end it past t_f (an
        # overflowing count fails in the integration, naming both fields)
        steps = t_f / dt
        if math.isfinite(steps) and abs(steps - round(steps)) > 1e-9 * steps:
            raise ValidationError(
                f"config fields [simulation] t_f = {t_f:g} and dt = {dt:g}: "
                f"t_f / dt = {steps:.10g} is not a whole number of steps")
    simulation = SimulationBlock(
        ic=ic, mode=sim.get_int("mode", 1), family=family, on=on,
        amplitude=amplitude, point=point, magnitude=magnitude, beats=beats,
        steps_per_period=sim.get_int("steps_per_period", 100, least=4),
        t_f=t_f, dt=dt,
    )
    retained = n_mech if family == "mechanical" else n_elec
    if simulation.mode > retained:
        raise ValidationError(
            f"config field [simulation] mode {simulation.mode} exceeds the "
            f"{retained} retained {family} modes")

    search_lo = search_hi = None
    if "search" in singles:
        search = singles["search"]
        search_lo = search.get_float("r_lo", positive=True)
        search_hi = search.get_float("r_hi", positive=True)
        search.check("r_hi", search_hi, search_hi > search_lo,
                     f"above r_lo = {search_lo!r}")
        if tune_mech is None:
            raise ValidationError(
                "[search] needs a [tuning] section: the resistance search "
                "damps the tuned mechanical/electric pair")

    unused = sorted((sec.key_lines[key], sec.name, key)
                    for sec in raw_sections for key in sec
                    if key not in sec.used)
    if unused:
        lineno, name, key = unused[0]
        raise ValidationError(
            f"{origin}:{lineno}: unknown key '{key}' in [{name}] (misspelled, "
            "or not used with the other settings of this file)"
        )

    return RunConfig(
        mesh_kind=kind, mesh_n=n, mesh_side=side, mesh_pattern=pattern,
        mesh_path=mesh_path, plate=plate, network=network, bcs=tuple(bcs),
        n_mech=n_mech, n_elec=n_elec, tune_mech=tune_mech, tune_elec=tune_elec,
        simulation=simulation, search_lo=search_lo, search_hi=search_hi,
        source_text=text,
    )
