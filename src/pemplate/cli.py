"""Batch command-line front-end.

Subcommands: ``modes``, ``tune``, ``simulate``, ``optimize-r``, ``coupling``,
``patch-test``, ``pipeline``. Exit codes: 0 success, 1 validation error,
2 numerical failure. All floating output is written with 17 significant
digits so that re-running a configuration reproduces byte-identical CSV
bodies.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from importlib import metadata
from pathlib import Path

import numpy as np
import scipy

from . import dynamics, modal, reference
from .assembly import assemble, patch_test
from .config import is_square_benchmark, load_config
from .errors import NumericalError, PemplateError, ValidationError
from .material import build_material, conservative_twin
from .mesh import generate_structured_square, load_mesh, mesh_statistics
from .modal import build_modal_basis, reduce, solve_family_modes, tune_inductance

FLOAT_FMT = "{:.17g}"


def _fmt(x):
    if isinstance(x, (float, np.floating)):
        return FLOAT_FMT.format(float(x))
    return str(x)


def write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


class _Stage:
    """Re-raises stage errors with the stage name prefixed."""

    def __init__(self, name):
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc is not None and isinstance(exc, PemplateError):
            raise exc.__class__(f"[stage {self.name}] {exc}") from exc
        return False


def _build_mesh(cfg):
    with _Stage("mesh"):
        if cfg.mesh_kind == "structured":
            return generate_structured_square(cfg.mesh_n, cfg.mesh_side,
                                              cfg.mesh_pattern)
        return load_mesh(cfg.mesh_path)


def _conservative_system(cfg, mesh, network=None):
    net = network if network is not None else cfg.network
    mat = conservative_twin(build_material(cfg.plate, net))
    with _Stage("assembly"):
        return assemble(mesh, mat, cfg.bcs)


def _family_modes(cfg, sys):
    with _Stage("modal"):
        mech = solve_family_modes(sys, "mechanical", cfg.n_mech)
        elec = solve_family_modes(sys, "electric", cfg.n_elec)
    return mech, elec


def _tuned_network(cfg, mech, elec):
    if cfg.tune_mech is None:
        return cfg.network, False
    with _Stage("tuning"):
        net = tune_inductance(mech, elec, cfg.network,
                              cfg.tune_mech - 1, cfg.tune_elec - 1)
    return net, True


def _modes_rows(cfg, mech, elec):
    catalog = reference.catalog_for({bc.kind for bc in cfg.bcs},
                                    is_square_benchmark(cfg))
    rows = []
    notices = []
    index = 1
    for family, modes in (("electric", elec), ("mechanical", mech)):
        ratios = modes.omegas / modes.omegas[0]
        analytic = catalog[family]
        table = analytic(len(ratios)) if analytic is not None else None
        if table is None:
            notices.append(
                f"analytic catalog does not cover the {family} family here; "
                "analytical columns omitted"
            )
        for k in range(len(ratios)):
            row = [index, modes.omegas[k], ratios[k], modes.labels[k]]
            if table is not None:
                err = 100.0 * abs(ratios[k] - table[k]) / table[k]
                row += [table[k], err]
            rows.append(row)
            index += 1
    header = ["index", "omega", "omega_normalized", "classification"]
    if any(len(r) > 4 for r in rows):
        header += ["analytic_normalized", "error_percent"]
        for r in rows:
            while len(r) < 6:
                r.append("")
    return header, rows, notices


def cmd_modes(cfg, out_dir):
    mesh = _build_mesh(cfg)
    sys = _conservative_system(cfg, mesh)
    mech, elec = _family_modes(cfg, sys)
    header, rows, notices = _modes_rows(cfg, mech, elec)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(out_dir / "modes.csv", header, rows)
    for n in notices:
        print(f"note: {n}")
    print(f"wrote {out_dir / 'modes.csv'}")
    _print_mode_table(header, rows)
    return 0


def _print_mode_table(header, rows):
    print(" ".join(f"{h:>20s}" for h in header))
    for row in rows:
        print(" ".join(f"{_fmt(v):>20s}" for v in row))


def cmd_tune(cfg, out_dir):
    if cfg.tune_mech is None:
        raise ValidationError("config has no [tuning] section")
    mesh = _build_mesh(cfg)
    sys = _conservative_system(cfg, mesh)
    mech, elec = _family_modes(cfg, sys)
    net, _ = _tuned_network(cfg, mech, elec)
    print(f"net inductance: {_fmt(cfg.network.inductance)} -> "
          f"{_fmt(net.inductance)}")
    sys2 = _conservative_system(cfg, mesh, net)
    mech2, elec2 = _family_modes(cfg, sys2)
    wm = mech2.omegas[cfg.tune_mech - 1]
    we = elec2.omegas[cfg.tune_elec - 1]
    print(f"mechanical mode {cfg.tune_mech}: omega = {_fmt(wm)}")
    print(f"electric  mode {cfg.tune_elec}: omega = {_fmt(we)}")
    print(f"relative mismatch after retune: {_fmt(abs(we - wm) / wm)}")
    out_dir.mkdir(parents=True, exist_ok=True)
    header, rows, _ = _modes_rows(cfg, mech2, elec2)
    write_csv(out_dir / "modes_tuned.csv", header, rows)
    print(f"wrote {out_dir / 'modes_tuned.csv'}")
    return 0


def _simulation_run(cfg, mesh, net):
    sys = _conservative_system(cfg, mesh, net)
    with _Stage("modal"):
        basis = build_modal_basis(sys, cfg.n_mech, cfg.n_elec)
        rs = reduce(sys, basis)
    sim = cfg.simulation
    fam_idx = (basis.mechanical_indices() if sim.family == "mechanical"
               else basis.electric_indices())
    if sim.mode > len(fam_idx):
        raise ValidationError(
            f"[simulation] mode {sim.mode} exceeds the {len(fam_idx)} retained "
            f"{sim.family} modes"
        )
    drive = fam_idx[sim.mode - 1]

    with _Stage("simulation"):
        if sim.ic == "unimodal":
            ic = dynamics.unimodal_ic(rs, drive, sim.amplitude, sim.on)
        else:
            ic = dynamics.impulse_ic(sys, basis, sim.point, sim.magnitude)
        omega1 = basis.omegas[drive]
        t1 = 2.0 * np.pi / omega1
        partner = min(
            (i for i in range(basis.n_modes)
             if i != drive and basis.labels[i] != basis.labels[drive]),
            key=lambda i: abs(basis.omegas[i] - omega1),
            default=None,
        )
        beat = (dynamics.beat_period(rs, drive, partner)
                if partner is not None else np.inf)
        if not np.isfinite(beat):
            beat = 20.0 * t1
        t_f = sim.t_f if sim.t_f else sim.beats * beat
        # default step: the driven-mode fraction, capped by the shortest
        # retained period over 40 (impulses put energy on the high modes)
        dt = sim.dt if sim.dt else min(t1 / sim.steps_per_period,
                                       dynamics.suggested_dt(rs))
        traj = dynamics.integrate(rs, ic, t_f, dt)
        en = dynamics.energies(rs, traj)
    return sys, basis, rs, traj, en, drive


def _trajectory_rows(rs, traj, en):
    n = rs.n_modes
    header = ["t"] + [f"z_{k + 1}" for k in range(n)] + \
        ["E_mech", "E_elec", "E_total"]
    rows = []
    for i in range(len(traj.t)):
        rows.append([traj.t[i], *traj.z[i], en.mech[i], en.elec[i], en.total[i]])
    return header, rows


def cmd_simulate(cfg, out_dir):
    mesh = _build_mesh(cfg)
    sys = _conservative_system(cfg, mesh)
    mech, elec = _family_modes(cfg, sys)
    net, _ = _tuned_network(cfg, mech, elec)
    _, _, rs, traj, en, _ = _simulation_run(cfg, mesh, net)
    out_dir.mkdir(parents=True, exist_ok=True)
    header, rows = _trajectory_rows(rs, traj, en)
    write_csv(out_dir / "trajectory.csv", header, rows)
    drift = float(np.abs(en.total - en.total[0]).max() / en.total[0])
    print(f"steps: {len(traj.t) - 1}, total-energy drift: {_fmt(drift)}")
    print(f"min E_mech / E_mech(0): {_fmt(float(en.mech.min() / en.mech[0]))}")
    print(f"wrote {out_dir / 'trajectory.csv'}")
    return 0


def cmd_coupling(cfg, out_dir):
    mesh = _build_mesh(cfg)
    sys = _conservative_system(cfg, mesh)
    mech, elec = _family_modes(cfg, sys)
    with _Stage("coupling"):
        table = modal.coupling_table(mech, elec, sys)
    out_dir.mkdir(parents=True, exist_ok=True)
    header = ["elec_mode"] + [f"mech_{j + 1}" for j in range(table.raw.shape[1])]
    rows = [[i + 1, *table.normalized[i]] for i in range(table.raw.shape[0])]
    write_csv(out_dir / "coupling.csv", header, rows)
    rows_raw = [[i + 1, *table.raw[i]] for i in range(table.raw.shape[0])]
    write_csv(out_dir / "coupling_raw.csv", header, rows_raw)
    print(f"wrote {out_dir / 'coupling.csv'} (max-normalized) and coupling_raw.csv")
    return 0


def cmd_optimize_r(cfg, out_dir):
    if cfg.search_lo is None:
        raise ValidationError("config has no [search] section")
    mesh = _build_mesh(cfg)
    sys = _conservative_system(cfg, mesh)
    mech, elec = _family_modes(cfg, sys)
    net, tuned = _tuned_network(cfg, mech, elec)
    if not tuned:
        raise ValidationError("resistance optimization requires a [tuning] section")
    sys_t = _conservative_system(cfg, mesh, net)
    with _Stage("modal"):
        basis = build_modal_basis(sys_t, cfg.n_mech, cfg.n_elec)
        rs = reduce(sys_t, basis)
    drive = basis.mechanical_indices()[cfg.tune_mech - 1]
    e_part = basis.electric_indices()[cfg.tune_elec - 1]
    t1 = 2.0 * np.pi / basis.omegas[drive]
    beat = dynamics.beat_period(rs, drive, e_part)
    if not np.isfinite(beat):
        raise ValidationError("zero electromechanical coupling: nothing to damp")
    with _Stage("resistance-search"):
        evaluate = dynamics.damping_evaluator(
            mesh, cfg.plate, net, cfg.bcs, basis, drive,
            t_f=4.0 * beat, dt=t1 / 60.0,
        )
        report = dynamics.optimize_resistance(
            evaluate, (cfg.search_lo, cfg.search_hi)
        )
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(
        out_dir / "damping.csv",
        ["R_N", "zeta", "settling_time"],
        [[s.resistance, s.zeta, s.settling_time] for s in report.samples],
    )
    for name, sample in report.regimes.items():
        header, rows = _trajectory_rows(rs, sample.trajectory,
                                        sample.trajectory.energies)
        write_csv(out_dir / f"trajectory_{name}.csv", header, rows)
    for w in report.warnings:
        print(f"warning: {w}")
    print(f"best net resistance R* = {_fmt(report.best.resistance)} with "
          f"damping ratio zeta = {_fmt(report.best.zeta)}")
    print(f"wrote {out_dir / 'damping.csv'} and regime trajectories")
    return 0


def cmd_patch_test(corrupt_mu=False):
    from .material import NetworkParams, PlateParams

    mat = build_material(
        PlateParams.isotropic(1e-3, 500.0, 1.0, 0.3),
        NetworkParams(inductance=1.0),
    )
    report = patch_test(mat, corrupt_mu=corrupt_mu)
    for state, err in report.per_state.items():
        print(f"{state:12s} max relative error {_fmt(err)}")
    print(f"max error {_fmt(report.max_error)}; rigid {_fmt(report.max_rigid_error)}")
    print("patch test PASSED" if report.passed else "patch test FAILED")
    return 0 if report.passed else 2


def cmd_pipeline(cfg, out_dir, config_text):
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = []

    mesh = _build_mesh(cfg)
    stats = mesh_statistics(mesh)
    summary.append(
        f"mesh: {stats.n_nodes} nodes, {stats.n_triangles} triangles, "
        f"area {_fmt(stats.total_area)}, min angle {_fmt(stats.min_angle)} deg"
    )

    sys0 = _conservative_system(cfg, mesh)
    mech, elec = _family_modes(cfg, sys0)
    net, tuned = _tuned_network(cfg, mech, elec)
    if tuned:
        summary.append(
            f"tuned L_N: {_fmt(cfg.network.inductance)} -> {_fmt(net.inductance)}"
        )
        sys_t = _conservative_system(cfg, mesh, net)
        mech_t, elec_t = _family_modes(cfg, sys_t)
    else:
        sys_t, mech_t, elec_t = sys0, mech, elec

    header, rows, notices = _modes_rows(cfg, mech_t, elec_t)
    write_csv(out_dir / "modes.csv", header, rows)
    summary.extend(f"note: {n}" for n in notices)

    with _Stage("coupling"):
        table = modal.coupling_table(mech_t, elec_t, sys_t)
    ch = ["elec_mode"] + [f"mech_{j + 1}" for j in range(table.raw.shape[1])]
    write_csv(out_dir / "coupling.csv", ch,
              [[i + 1, *table.normalized[i]] for i in range(table.raw.shape[0])])

    _, basis, rs, traj, en, drive = _simulation_run(cfg, mesh, net)
    th, trows = _trajectory_rows(rs, traj, en)
    write_csv(out_dir / "trajectory.csv", th, trows)
    drift = float(np.abs(en.total - en.total[0]).max() / en.total[0])
    summary.append(f"simulation: {len(traj.t) - 1} steps, drift {_fmt(drift)}, "
                   f"min E_mech/E_0 {_fmt(float(en.mech.min() / en.mech[0]))}")

    if cfg.search_lo is not None and tuned:
        with _Stage("resistance-search"):
            evaluate = dynamics.damping_evaluator(
                mesh, cfg.plate, net, cfg.bcs, basis, drive,
                t_f=4.0 * dynamics.beat_period(
                    rs, drive, basis.electric_indices()[cfg.tune_elec - 1]),
                dt=2.0 * np.pi / basis.omegas[drive] / 60.0,
            )
            report = dynamics.optimize_resistance(
                evaluate, (cfg.search_lo, cfg.search_hi)
            )
        write_csv(out_dir / "damping.csv", ["R_N", "zeta", "settling_time"],
                  [[s.resistance, s.zeta, s.settling_time]
                   for s in report.samples])
        for name, sample in report.regimes.items():
            sh, srows = _trajectory_rows(rs, sample.trajectory,
                                         sample.trajectory.energies)
            write_csv(out_dir / f"trajectory_{name}.csv", sh, srows)
        summary.append(f"optimal resistance R* {_fmt(report.best.resistance)}, "
                       f"zeta {_fmt(report.best.zeta)}")
        summary.extend(f"warning: {w}" for w in report.warnings)

    manifest = {
        "config_sha256": hashlib.sha256(config_text.encode()).hexdigest(),
        "package": _package_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    (out_dir / "summary.txt").write_text("\n".join(summary) + "\n")
    print("\n".join(summary))
    print(f"pipeline outputs in {out_dir}")
    return 0


def _package_version():
    try:
        return metadata.version("pemplate")
    except metadata.PackageNotFoundError:
        return "unknown"


def build_parser():
    p = argparse.ArgumentParser(
        prog="pemplate",
        description="Coupled-plate eigenanalysis, network tuning and "
                    "electric vibration damping.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, needs_config=True, **kw):
        sp = sub.add_parser(name, **kw)
        if needs_config:
            g = sp.add_mutually_exclusive_group(required=True)
            g.add_argument("--config", help="run configuration file")
            g.add_argument("--preset", choices=["paper-square", "clamped-demo"],
                           help="bundled run configuration")
        sp.add_argument("--out", default="out", help="output directory")
        return sp

    add("modes", help="eigenfrequency tables (Fig. 4 style)")
    add("tune", help="retune the net inductance to a mechanical mode")
    add("simulate", help="integrate the reduced dynamics")
    add("coupling", help="modal coupling table (Fig. 5 style)")
    add("optimize-r", help="search the optimal net resistance")
    add("pipeline", help="full run: modes, tuning, coupling, simulation, damping")
    pt = add("patch-test", needs_config=False,
             help="constant-curvature patch test of the bending element")
    pt.add_argument("--corrupt-mu", action="store_true",
                    help="negative control: flip the element mu parameters")
    return p


def _config_path(args):
    if getattr(args, "preset", None):
        from importlib import resources

        ref = resources.files("pemplate").joinpath("presets") \
            .joinpath(args.preset + ".cfg")
        with resources.as_file(ref) as concrete:
            return Path(concrete)
    return Path(args.config)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "patch-test":
            return cmd_patch_test(corrupt_mu=args.corrupt_mu)
        cfg = load_config(_config_path(args))
        out_dir = Path(args.out)
        if args.command == "modes":
            return cmd_modes(cfg, out_dir)
        if args.command == "tune":
            return cmd_tune(cfg, out_dir)
        if args.command == "simulate":
            return cmd_simulate(cfg, out_dir)
        if args.command == "coupling":
            return cmd_coupling(cfg, out_dir)
        if args.command == "optimize-r":
            return cmd_optimize_r(cfg, out_dir)
        if args.command == "pipeline":
            return cmd_pipeline(cfg, out_dir, cfg.source_text)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
