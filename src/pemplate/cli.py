"""Batch command-line front-end.

Subcommands: ``modes``, ``tune``, ``simulate``, ``optimize-r``, ``coupling``,
``patch-test``, ``pipeline``. Exit codes: 0 success, 1 validation error,
2 numerical failure.

Every subcommand but ``patch-test`` is a list of reports (``COMMANDS``),
each writing one stage's CSV tables with :func:`write_csv` (``%.17g``:
re-runs give byte-identical bodies) and returning its summary lines, which
go to ``summary.txt``, next to ``manifest.json``, and to stdout. Reports ask
one :class:`Run`, a memoized stage graph, for what they report; a stage runs
once per run (``system``, ``modes``, ``coupling`` and ``reduced`` once per
network), and only ``Run`` assembles or solves a network::

    mesh -> system(net) -> mechanical modes (one set serves every network)
                        -> modes(net) -> network (L_N tuned by [tuning])
         -> basis -> reduced(net) -> simulation, search

Modes, coupling, basis and simulation use the conservative network
(``conservative_twin``: R_N = G_N = 0); the search combines the tuned
network reduced at R_N = 0 and 1 and always drives the tuned mechanical mode
against the tuned electric mode ([tuning] mech_mode / elec_mode).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import replace
from functools import partial
from importlib import metadata, resources
from pathlib import Path

import numpy as np
import scipy

from . import dynamics, modal, reference
from .assembly import AssemblyWorkspace, assemble, patch_test
from .config import is_square_benchmark, load_config
from .errors import NumericalError, PemplateError, ValidationError
from .material import NetworkParams, PlateParams, build_material, conservative_twin
from .mesh import generate_structured_square, load_mesh, mesh_statistics
from .modal import build_modal_basis, reduce, solve_family_modes, tune_inductance

FLOAT_FMT = "%.17g"


def _fmt(x):
    return FLOAT_FMT % x if isinstance(x, (float, np.floating)) else str(x)


def write_csv(path, header, rows):
    """Writes ``header`` and the 2-D array ``rows``, one line per row:
    numbers with ``FLOAT_FMT``, text cells as they are."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    np.savetxt(path, rows, fmt="%s" if rows.dtype.kind == "U" else FLOAT_FMT,
               delimiter=",", header=",".join(header), comments="")


def _stage(name):
    """Memoizes a :class:`Run` stage per argument and prefixes its errors
    with ``[stage name]``; an upstream stage's error keeps its own prefix."""

    def wrap(method):
        def staged(self, *args):
            key = (method.__name__, *args)
            if key not in self._memo:
                try:
                    self._memo[key] = method(self, *args)
                except PemplateError as exc:
                    if getattr(exc, "stage", None):
                        raise
                    err = exc.__class__(f"[stage {name}] {exc}")
                    err.stage = name
                    raise err from exc
            return self._memo[key]

        return staged

    return wrap


class Run:
    """The stage graph of one configuration."""

    def __init__(self, cfg):
        self.cfg = cfg
        self._memo = {}
        self._workspace = AssemblyWorkspace()

    @_stage("mesh")
    def mesh(self):
        c = self.cfg
        if c.mesh_kind == "file":
            return load_mesh(c.mesh_path)
        return generate_structured_square(c.mesh_n, c.mesh_side, c.mesh_pattern)

    @_stage("assembly")
    def system(self, net):
        """The system of ``net`` as given."""
        return assemble(self.mesh(), build_material(self.cfg.plate, net),
                        self.cfg.bcs, workspace=self._workspace)

    @_stage("modal")
    def mechanical_modes(self):
        """Bending-family modes, the same for every network: L_N, R_N and
        G_N reach no entry of the bending block of K2 and K0."""
        sys = self.system(conservative_twin(self.cfg.network))
        return solve_family_modes(sys, "mechanical", self.cfg.n_mech)

    @_stage("modal")
    def modes(self, net):
        """(mechanical, electric) family modes of the conservative system."""
        sys = self.system(conservative_twin(net))
        return (self.mechanical_modes(),
                solve_family_modes(sys, "electric", self.cfg.n_elec))

    @_stage("tuning")
    def network(self):
        c = self.cfg
        if c.tune_mech is None:
            return c.network
        return tune_inductance(*self.modes(c.network), c.network,
                               c.tune_mech - 1, c.tune_elec - 1)

    @_stage("coupling")
    def coupling(self, net):
        return modal.coupling_table(*self.modes(net),
                                    self.system(conservative_twin(net)))

    @_stage("modal")
    def basis(self):
        """Retained basis of the tuned network."""
        return build_modal_basis(*self.modes(self.network()))

    @_stage("modal")
    def reduced(self, net):
        """The system of ``net`` reduced on the retained basis."""
        return reduce(self.system(net), self.basis())

    @_stage("simulation")
    def simulation(self):
        sim = self.cfg.simulation
        net = conservative_twin(self.network())
        basis, rs = self.basis(), self.reduced(net)
        drive = (basis.mechanical_indices() if sim.family == "mechanical"
                 else basis.electric_indices())[sim.mode - 1]
        if sim.ic == "unimodal":
            ic = dynamics.unimodal_ic(rs, drive, sim.amplitude, sim.on)
        else:
            ic = dynamics.impulse_ic(self.system(net), basis, sim.point,
                                     sim.magnitude)
        t_f, dt = dynamics.default_horizon(rs, drive, sim.beats,
                                           sim.steps_per_period)
        traj = dynamics.integrate(rs, ic, sim.t_f or t_f, sim.dt or dt)
        return traj, dynamics.energies(rs, traj)

    @_stage("resistance-search")
    def search(self):
        c = self.cfg
        net = self.network()
        basis = self.basis()
        drive = basis.mechanical_indices()[c.tune_mech - 1]
        beat = dynamics.beat_period(self.reduced(conservative_twin(net)), drive,
                                    basis.electric_indices()[c.tune_elec - 1])
        if not np.isfinite(beat):
            raise ValidationError("zero electromechanical coupling: nothing to damp")
        rs0, rs1 = (self.reduced(replace(net, resistance=r)) for r in (0.0, 1.0))
        evaluate = dynamics.damping_evaluator(
            dynamics.resistance_family(rs0, rs1, net.inductance), basis, drive,
            t_f=4.0 * beat, dt=2.0 * np.pi / basis.omegas[drive] / 60.0)
        report = dynamics.optimize_resistance(evaluate, (c.search_lo, c.search_hi))
        if not report.best.converged:
            raise NumericalError("the damping fit did not converge at R* = "
                                 f"{_fmt(report.best.resistance)}; R* is no optimum")
        return report


def _configured(value, section, optional):
    """Whether ``section`` is configured; if not, fails unless ``optional``."""
    if value is None and not optional:
        raise ValidationError(f"config has no [{section}] section")
    return value is not None


def report_mesh(run, out_dir, files):
    stats = mesh_statistics(run.mesh())
    return [f"mesh: {stats.n_nodes} nodes, {stats.n_triangles} triangles, "
            f"area {_fmt(stats.total_area)}, min angle {_fmt(stats.min_angle)} deg"]


def report_tuning(run, out_dir, files, optional=False):
    """The retuned L_N and the frequency mismatch of the pair it lines up."""
    c = run.cfg
    if not _configured(c.tune_mech, "tuning", optional):
        return []
    net = run.network()
    mech, elec = run.modes(net)
    wm, we = mech.omegas[c.tune_mech - 1], elec.omegas[c.tune_elec - 1]
    return [f"tuned L_N: {_fmt(c.network.inductance)} -> {_fmt(net.inductance)}",
            f"relative mismatch after retune: {_fmt(abs(we - wm) / wm)}"]


def report_modes(run, out_dir, files, tuned=True):
    """The mode table of the tuned (else the configured) network."""
    net = run.network() if tuned else run.cfg.network
    header, rows, notices = reference.mode_table(
        *run.modes(net), {bc.kind for bc in run.cfg.bcs},
        is_square_benchmark(run.cfg))
    write_csv(out_dir / files.get("modes", "modes.csv"), header,
              np.array([[_fmt(v) for v in row] for row in rows]))
    return [f"note: {n}" for n in notices]


def report_coupling(run, out_dir, files, tuned=True):
    """The max-normalized coupling table; the raw one too if ``files`` names it."""
    table = run.coupling(run.network() if tuned else run.cfg.network)
    header = ["elec_mode"] + [f"mech_{j + 1}" for j in range(table.raw.shape[1])]
    index = np.arange(1, table.raw.shape[0] + 1)
    for name, values in (("coupling.csv", table.normalized),
                         (files.get("coupling_raw"), table.raw)):
        if name:
            write_csv(out_dir / name, header, np.column_stack([index, values]))
    return []


def _write_trajectory(path, traj, en):
    header = ["t", *(f"z_{k + 1}" for k in range(traj.z.shape[1])),
              "E_mech", "E_elec", "E_total"]
    write_csv(path, header, np.column_stack(
        [traj.t, traj.z, en.mech, en.elec, en.total]))


def report_simulation(run, out_dir, files):
    """Steps, energy drift and min E / E(0) of the family the run starts in."""
    sim = run.cfg.simulation
    traj, en = run.simulation()
    _write_trajectory(out_dir / "trajectory.csv", traj, en)
    drift = float(np.abs(en.total - en.total[0]).max() / en.total[0])
    # an impulse loads the bending field whatever family sets the horizon
    family = ("elec" if sim.ic == "unimodal" and sim.family == "electric"
              else "mech")
    energy = getattr(en, family)
    return [f"simulation: {len(traj.t) - 1} steps, drift {_fmt(drift)}, "
            f"min E_{family}/E_0 {_fmt(float(energy.min() / energy[0]))}"]


def report_search(run, out_dir, files, optional=False):
    """The sampled zeta(R_N) and three regime runs; R*, its zeta, warnings."""
    if not _configured(run.cfg.search_lo, "search", optional):
        return []
    report = run.search()
    write_csv(out_dir / "damping.csv", ["R_N", "zeta", "settling_time"],
              np.array([[s.resistance, s.zeta, s.settling_time]
                        for s in report.samples]))
    for name, sample in report.regimes.items():
        _write_trajectory(out_dir / f"trajectory_{name}.csv",
                          sample.trajectory, sample.trajectory.energies)
    return [f"optimal resistance R* {_fmt(report.best.resistance)}, "
            f"zeta {_fmt(report.best.zeta)}",
            *(f"warning: {w}" for w in report.warnings)]


def cmd_patch_test(corrupt_mu=False):
    mat = build_material(PlateParams.isotropic(1e-3, 500.0, 1.0, 0.3),
                         NetworkParams(inductance=1.0))
    report = patch_test(mat, corrupt_mu=corrupt_mu)
    for state, err in report.per_state.items():
        print(f"{state:12s} max relative error {_fmt(err)}")
    print(f"max error {_fmt(report.max_error)}; rigid {_fmt(report.max_rigid_error)}")
    print("patch test PASSED" if report.passed else "patch test FAILED")
    return 0 if report.passed else 2


def _manifest(config_text):
    try:
        package = metadata.version("pemplate")
    except metadata.PackageNotFoundError:
        package = "unknown"
    return {"config_sha256": hashlib.sha256(config_text.encode()).hexdigest(),
            "package": package, "numpy": np.__version__,
            "scipy": scipy.__version__}


# subcommand -> (reports, file names, help). ``modes`` and ``coupling`` report
# the configured network; ``pipeline`` skips the sections the config lacks.
COMMANDS = {
    "modes": ([partial(report_modes, tuned=False)], {},
              "eigenfrequency tables (Fig. 4 style)"),
    "tune": ([report_tuning, report_modes], {"modes": "modes_tuned.csv"},
             "retune the net inductance to a mechanical mode"),
    "simulate": ([report_simulation], {}, "integrate the reduced dynamics"),
    "coupling": ([partial(report_coupling, tuned=False)],
                 {"coupling_raw": "coupling_raw.csv"},
                 "modal coupling table (Fig. 5 style)"),
    "optimize-r": ([report_search], {}, "search the optimal net resistance"),
    "pipeline": ([report_mesh, partial(report_tuning, optional=True),
                  report_modes, report_coupling, report_simulation,
                  partial(report_search, optional=True)], {},
                 "full run: modes, tuning, coupling, simulation, damping"),
}


def build_parser():
    p = argparse.ArgumentParser(
        prog="pemplate",
        description="Coupled-plate eigenanalysis, network tuning and "
                    "electric vibration damping.")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (_, _, help_text) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        g = sp.add_mutually_exclusive_group(required=True)
        g.add_argument("--config", help="run configuration file")
        g.add_argument("--preset", choices=["paper-square", "clamped-demo"],
                       help="bundled run configuration")
        sp.add_argument("--out", default="out", help="output directory")
    pt = sub.add_parser("patch-test",
                        help="constant-curvature patch test of the bending element")
    pt.add_argument("--corrupt-mu", action="store_true",
                    help="negative control: flip the element mu parameters")
    return p


def _config_path(args):
    if args.preset is None:
        return Path(args.config)
    ref = resources.files("pemplate") / "presets" / f"{args.preset}.cfg"
    with resources.as_file(ref) as concrete:
        return Path(concrete)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "patch-test":
            return cmd_patch_test(corrupt_mu=args.corrupt_mu)
        run = Run(load_config(_config_path(args)))
        reports, files, _ = COMMANDS[args.command]
        out_dir = Path(args.out)
        lines = [line for report in reports for line in report(run, out_dir, files)]
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = json.dumps(_manifest(run.cfg.source_text), indent=2)
    (out_dir / "manifest.json").write_text(manifest + "\n")
    summary = "".join(f"{line}\n" for line in lines)
    (out_dir / "summary.txt").write_text(summary)
    print(f"{summary}{args.command} outputs in {out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
