"""Run-configuration parsing for the batch front-end.

Grammar: a flat structured-text file of ``[section]`` headers followed by
``key = value`` lines. ``#`` starts a comment, values may be quoted (a
quoted value may contain ``#``), and only the ``[bc]`` section may repeat
(each block declares one boundary condition). Every numeric parameter is
validated against the owning module's invariants before any computation
starts, and an unknown section or a key the run does not read is an error
naming its line. The optional ``[tuning]`` and ``[search]`` blocks are
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
from .material import NetworkParams, PlateParams, build_material


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

    def get_float(self, key, default=None):
        raw = self.get_str(key, None if default is None else str(default))
        try:
            value = float(raw)
        except ValueError:
            raise ValidationError(
                f"config field [{self.name}] {key} = '{raw}' is not a number"
            ) from None
        if not math.isfinite(value):
            raise ValidationError(
                f"config field [{self.name}] {key} = '{raw}' is not finite")
        return value

    def get_int(self, key, default=None):
        raw = self.get_str(key, None if default is None else str(default))
        try:
            return int(raw)
        except ValueError:
            raise ValidationError(
                f"config field [{self.name}] {key} = '{raw}' is not an integer"
            ) from None

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
    kind = mesh.get_str("kind", "structured")
    if kind not in ("structured", "file"):
        raise ValidationError(f"config field [mesh] kind must be "
                              f"'structured' or 'file', got '{kind}'")
    # a key of the other mesh kind is an unknown-key error below
    n = side = pattern = mesh_path = None
    if kind == "structured":
        n = mesh.get_int("n", 16)
        side = mesh.get_float("side", 1.0)
        pattern = mesh.get_str("pattern", "crossed")
        if n < 1:
            raise ValidationError("config field [mesh] n must be >= 1")
        if side <= 0:
            raise ValidationError("config field [mesh] side must be positive")
        if pattern not in ("crossed", "diagonal"):
            raise ValidationError(
                f"config field [mesh] pattern must be 'crossed' or "
                f"'diagonal', got '{pattern}'"
            )
    else:
        mesh_path = _resolve_mesh_path(mesh.get_str("path"), base_dir)
        if not mesh_path.exists():
            raise ValidationError(f"mesh file not found: {mesh_path}")

    m = section("material")
    plate = PlateParams.isotropic(
        half_thickness=m.get_float("h", 1e-3),
        density=m.get_float("rho", 500.0),
        rigidity=m.get_float("rigidity", 1.0),
        poisson=m.get_float("poisson", 0.3),
        coupling=m.get_floats("g_me", 3, default="0.1 0.1 0.0"),
        piezo_capacitance=m.get_float("g_ee", 0.0),
    )
    nw = section("network")
    if nw.get_float("resistance", 0.0) != 0.0:
        raise ValidationError(
            f"config field [network] resistance = '{nw['resistance']}' would "
            "be ignored: the simulation runs the conservative network "
            "(R_N = 0) and the search scans [search] r_lo..r_hi; set it to 0")
    network = NetworkParams(
        inductance=nw.get_float("inductance", 1.0),
        capacitance=nw.get_float("capacitance", 1.0),
        conductance=nw.get_float("conductance", 0.0),
    )
    build_material(plate, network)  # runs the material invariants now

    bcs = []
    for s in bc_sections:
        group = s.get_str("group")
        for kind_name in s.get_str("kind").split("+"):
            bcs.append(BoundaryCondition(group=group, kind=kind_name.strip()))
    if not bcs:
        raise ValidationError("config declares no [bc] section")

    modal_s = section("modal")
    n_mech = modal_s.get_int("n_mech", 8)
    n_elec = modal_s.get_int("n_elec", 8)
    if n_mech < 1 or n_elec < 1:
        raise ValidationError("retained mode counts must be >= 1")

    tune_mech = tune_elec = None
    if "tuning" in singles:
        tuning = singles["tuning"]
        tune_mech = tuning.get_int("mech_mode", 1)
        tune_elec = tuning.get_int("elec_mode", 1)
        if tune_mech < 1 or tune_elec < 1:
            raise ValidationError("tuning mode indices are 1-based (>= 1)")
        if tune_mech > n_mech or tune_elec > n_elec:
            raise ValidationError("tuning target outside the retained modes")

    sim = section("simulation")
    ic = sim.get_str("ic", "unimodal")
    if ic not in ("unimodal", "impulse"):
        raise ValidationError("config field [simulation] ic must be "
                              "'unimodal' or 'impulse'")
    family = sim.get_str("family", "mechanical")
    if family not in ("mechanical", "electric"):
        raise ValidationError("[simulation] family must be mechanical|electric")
    # each initial condition reads only its own keys, so setting a key of
    # the other one is an unknown-key error below
    on, amplitude, point, magnitude = "displacement", 1.0, None, 1.0
    if ic == "unimodal":
        on = sim.get_str("on", on)
        if on not in ("displacement", "velocity"):
            raise ValidationError("config field [simulation] on must be "
                                  f"'displacement' or 'velocity', got '{on}'")
        amplitude = sim.get_float("amplitude", amplitude)
    else:
        point = sim.get_floats("point", 2)
        magnitude = sim.get_float("magnitude", magnitude)
    beats = sim.get_float("beats", 10.0)
    t_f = sim.get_float("t_f") if "t_f" in sim else None
    dt = sim.get_float("dt") if "dt" in sim else None
    for key, value in (("amplitude", amplitude), ("magnitude", magnitude)):
        if value == 0:
            raise ValidationError(f"config field [simulation] {key} must be "
                                  f"finite and nonzero, got {value}")
    for key, value in (("beats", beats), ("t_f", t_f), ("dt", dt)):
        if value is not None and not value > 0:
            raise ValidationError(f"config field [simulation] {key} must be "
                                  f"finite and positive, got {value}")
    if t_f is not None and dt is not None and dt > t_f:
        raise ValidationError(f"config field [simulation] dt = {dt:g} exceeds "
                              f"[simulation] t_f = {t_f:g}")
    simulation = SimulationBlock(
        ic=ic, mode=sim.get_int("mode", 1), family=family, on=on,
        amplitude=amplitude, point=point, magnitude=magnitude, beats=beats,
        steps_per_period=sim.get_int("steps_per_period", 100), t_f=t_f, dt=dt,
    )
    if simulation.mode < 1:
        raise ValidationError("[simulation] mode is 1-based (>= 1)")
    retained = n_mech if family == "mechanical" else n_elec
    if simulation.mode > retained:
        raise ValidationError(
            f"[simulation] mode {simulation.mode} exceeds the {retained} "
            f"retained {family} modes")
    if simulation.steps_per_period < 4:
        raise ValidationError("[simulation] steps_per_period must be >= 4")

    search_lo = search_hi = None
    if "search" in singles:
        search = singles["search"]
        search_lo = search.get_float("r_lo")
        search_hi = search.get_float("r_hi")
        if not 0 < search_lo < search_hi:
            raise ValidationError("[search] needs 0 < r_lo < r_hi")
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
