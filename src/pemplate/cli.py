"""Batch command-line front-end.

Subcommands: ``modes``, ``tune``, ``simulate``, ``optimize-r``, ``coupling``,
``patch-test``, ``pipeline``. Exit codes: 0 success, 1 validation error,
2 numerical failure. Floats are written with 17 significant digits, so a
re-run of a configuration reproduces byte-identical CSV bodies.

Each subcommand but ``patch-test`` asks one :class:`Run`, a memoized stage
graph, for the stages it reports; a stage runs once per run (``system``,
``modes`` and ``coupling`` once per network)::

    mesh -> system(net) -> modes(net) -> network (L_N tuned by [tuning])
         -> basis (retained basis + reduced system) -> simulation, search

``modes`` asks for modes(untuned), ``coupling`` for coupling(untuned),
``tune`` for network and modes(tuned), ``simulate`` for simulation,
``optimize-r`` for search, ``pipeline`` for mesh, modes(tuned),
coupling(tuned), simulation and search. Without [tuning] the tuned network
is the configured one. The search always drives the tuned mechanical mode
against the tuned electric mode ([tuning] mech_mode / elec_mode).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from importlib import metadata, resources
from pathlib import Path

import numpy as np
import scipy

from . import dynamics, modal, reference
from .assembly import assemble, patch_test
from .config import is_square_benchmark, load_config
from .errors import NumericalError, PemplateError, ValidationError
from .material import NetworkParams, PlateParams, build_material, conservative_twin
from .mesh import generate_structured_square, load_mesh, mesh_statistics
from .modal import build_modal_basis, reduce, solve_family_modes, tune_inductance

FLOAT_FMT = "{:.17g}"


def _fmt(x):
    if isinstance(x, (float, np.floating)):
        return FLOAT_FMT.format(float(x))
    return str(x)


def write_csv(path, header, rows):
    lines = [",".join(header)] + [",".join(_fmt(v) for v in row) for row in rows]
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text("\n".join(lines) + "\n")


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

    @_stage("mesh")
    def mesh(self):
        c = self.cfg
        if c.mesh_kind == "file":
            return load_mesh(c.mesh_path)
        return generate_structured_square(c.mesh_n, c.mesh_side, c.mesh_pattern)

    @_stage("assembly")
    def system(self, net):
        mat = conservative_twin(build_material(self.cfg.plate, net))
        return assemble(self.mesh(), mat, self.cfg.bcs)

    @_stage("modal")
    def modes(self, net):
        """(mechanical, electric) family modes of the conservative system."""
        sys = self.system(net)
        return (solve_family_modes(sys, "mechanical", self.cfg.n_mech),
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
        return modal.coupling_table(*self.modes(net), self.system(net))

    @_stage("modal")
    def basis(self):
        """Retained basis of the tuned network and its reduced system."""
        net = self.network()
        basis = build_modal_basis(*self.modes(net))
        return basis, reduce(self.system(net), basis)

    @_stage("simulation")
    def simulation(self):
        sim = self.cfg.simulation
        basis, rs = self.basis()
        drive = (basis.mechanical_indices() if sim.family == "mechanical"
                 else basis.electric_indices())[sim.mode - 1]
        if sim.ic == "unimodal":
            ic = dynamics.unimodal_ic(rs, drive, sim.amplitude, sim.on)
        else:
            ic = dynamics.impulse_ic(self.system(self.network()), basis,
                                     sim.point, sim.magnitude)
        t_f, dt = dynamics.default_horizon(rs, drive, sim.beats,
                                           sim.steps_per_period)
        traj = dynamics.integrate(rs, ic, sim.t_f or t_f, sim.dt or dt)
        return traj, dynamics.energies(rs, traj)

    @_stage("resistance-search")
    def search(self):
        c = self.cfg
        basis, rs = self.basis()
        drive = basis.mechanical_indices()[c.tune_mech - 1]
        beat = dynamics.beat_period(rs, drive,
                                    basis.electric_indices()[c.tune_elec - 1])
        if not np.isfinite(beat):
            raise ValidationError("zero electromechanical coupling: nothing to damp")
        evaluate = dynamics.damping_evaluator(
            self.mesh(), c.plate, self.network(), c.bcs, basis, drive,
            t_f=4.0 * beat, dt=2.0 * np.pi / basis.omegas[drive] / 60.0,
        )
        return dynamics.optimize_resistance(evaluate, (c.search_lo, c.search_hi))


def _write_modes(run, net, path):
    """Writes the mode table of ``net``; returns (header, rows, notices)."""
    header, rows, notices = reference.mode_table(
        *run.modes(net), {bc.kind for bc in run.cfg.bcs},
        is_square_benchmark(run.cfg))
    write_csv(path, header, rows)
    return header, rows, notices


def _write_coupling(run, net, out_dir, names=("coupling.csv",)):
    """Writes the max-normalized (then the raw) modal coupling table."""
    table = run.coupling(net)
    header = ["elec_mode"] + [f"mech_{j + 1}" for j in range(table.raw.shape[1])]
    for name, values in zip(names, (table.normalized, table.raw)):
        write_csv(out_dir / name, header,
                  [[i + 1, *row] for i, row in enumerate(values)])


def _write_trajectory(path, traj, en):
    header = ["t", *(f"z_{k + 1}" for k in range(traj.z.shape[1])),
              "E_mech", "E_elec", "E_total"]
    write_csv(path, header, [[traj.t[i], *traj.z[i], en.mech[i], en.elec[i],
                              en.total[i]] for i in range(len(traj.t))])


def _write_simulation(run, out_dir):
    """Writes trajectory.csv; returns (steps, drift, min E_mech / E_mech(0))."""
    traj, en = run.simulation()
    _write_trajectory(out_dir / "trajectory.csv", traj, en)
    drift = float(np.abs(en.total - en.total[0]).max() / en.total[0])
    return len(traj.t) - 1, drift, float(en.mech.min() / en.mech[0])


def _write_search(run, out_dir):
    report = run.search()
    write_csv(out_dir / "damping.csv", ["R_N", "zeta", "settling_time"],
              [[s.resistance, s.zeta, s.settling_time] for s in report.samples])
    for name, sample in report.regimes.items():
        _write_trajectory(out_dir / f"trajectory_{name}.csv",
                          sample.trajectory, sample.trajectory.energies)
    return report


def cmd_modes(run, out_dir):
    header, rows, notices = _write_modes(run, run.cfg.network,
                                         out_dir / "modes.csv")
    for n in notices:
        print(f"note: {n}")
    print(f"wrote {out_dir / 'modes.csv'}")
    for row in [header, *rows]:
        print(" ".join(f"{_fmt(v):>20s}" for v in row))


def cmd_tune(run, out_dir):
    c = run.cfg
    if c.tune_mech is None:
        raise ValidationError("config has no [tuning] section")
    net = run.network()
    print(f"net inductance: {_fmt(c.network.inductance)} -> {_fmt(net.inductance)}")
    mech, elec = run.modes(net)
    wm, we = mech.omegas[c.tune_mech - 1], elec.omegas[c.tune_elec - 1]
    print(f"mechanical mode {c.tune_mech}: omega = {_fmt(wm)}")
    print(f"electric  mode {c.tune_elec}: omega = {_fmt(we)}")
    print(f"relative mismatch after retune: {_fmt(abs(we - wm) / wm)}")
    _write_modes(run, net, out_dir / "modes_tuned.csv")
    print(f"wrote {out_dir / 'modes_tuned.csv'}")


def cmd_simulate(run, out_dir):
    steps, drift, mech_min = _write_simulation(run, out_dir)
    print(f"steps: {steps}, total-energy drift: {_fmt(drift)}")
    print(f"min E_mech / E_mech(0): {_fmt(mech_min)}")
    print(f"wrote {out_dir / 'trajectory.csv'}")


def cmd_coupling(run, out_dir):
    _write_coupling(run, run.cfg.network, out_dir,
                    ("coupling.csv", "coupling_raw.csv"))
    print(f"wrote {out_dir / 'coupling.csv'} (max-normalized) and coupling_raw.csv")


def cmd_optimize_r(run, out_dir):
    if run.cfg.search_lo is None:
        raise ValidationError("config has no [search] section")
    report = _write_search(run, out_dir)
    for w in report.warnings:
        print(f"warning: {w}")
    print(f"best net resistance R* = {_fmt(report.best.resistance)} with "
          f"damping ratio zeta = {_fmt(report.best.zeta)}")
    print(f"wrote {out_dir / 'damping.csv'} and regime trajectories")


def cmd_pipeline(run, out_dir):
    c = run.cfg
    out_dir.mkdir(parents=True, exist_ok=True)
    stats = mesh_statistics(run.mesh())
    summary = [f"mesh: {stats.n_nodes} nodes, {stats.n_triangles} triangles, "
               f"area {_fmt(stats.total_area)}, min angle {_fmt(stats.min_angle)} deg"]
    net = run.network()
    if c.tune_mech is not None:
        summary.append(
            f"tuned L_N: {_fmt(c.network.inductance)} -> {_fmt(net.inductance)}")
    _, _, notices = _write_modes(run, net, out_dir / "modes.csv")
    summary.extend(f"note: {n}" for n in notices)
    _write_coupling(run, net, out_dir)
    steps, drift, mech_min = _write_simulation(run, out_dir)
    summary.append(f"simulation: {steps} steps, drift {_fmt(drift)}, "
                   f"min E_mech/E_0 {_fmt(mech_min)}")
    if c.search_lo is not None:
        report = _write_search(run, out_dir)
        summary.append(f"optimal resistance R* {_fmt(report.best.resistance)}, "
                       f"zeta {_fmt(report.best.zeta)}")
        summary.extend(f"warning: {w}" for w in report.warnings)
    manifest = json.dumps(_manifest(c.source_text), indent=2)
    (out_dir / "manifest.json").write_text(manifest + "\n")
    (out_dir / "summary.txt").write_text("\n".join(summary) + "\n")
    print("\n".join(summary))
    print(f"pipeline outputs in {out_dir}")


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


COMMANDS = {  # subcommand -> (function, help)
    "modes": (cmd_modes, "eigenfrequency tables (Fig. 4 style)"),
    "tune": (cmd_tune, "retune the net inductance to a mechanical mode"),
    "simulate": (cmd_simulate, "integrate the reduced dynamics"),
    "coupling": (cmd_coupling, "modal coupling table (Fig. 5 style)"),
    "optimize-r": (cmd_optimize_r, "search the optimal net resistance"),
    "pipeline": (cmd_pipeline,
                 "full run: modes, tuning, coupling, simulation, damping"),
}


def build_parser():
    p = argparse.ArgumentParser(
        prog="pemplate",
        description="Coupled-plate eigenanalysis, network tuning and "
                    "electric vibration damping.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        g = sp.add_mutually_exclusive_group(required=True)
        g.add_argument("--config", help="run configuration file")
        g.add_argument("--preset", choices=["paper-square", "clamped-demo"],
                       help="bundled run configuration")
        sp.add_argument("--out", default="out", help="output directory")
    pt = sub.add_parser("patch-test",
                        help="constant-curvature patch test of the bending element")
    pt.add_argument("--out", default="out", help="output directory")
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
        COMMANDS[args.command][0](run, Path(args.out))
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
