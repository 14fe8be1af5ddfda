"""Batch command-line front-end.

Subcommands: ``modes``, ``tune``, ``simulate``, ``optimize-r``, ``coupling``,
``patch-test``, ``pipeline``. Exit codes: 0 success, 1 validation error,
2 numerical failure.

Every subcommand but ``patch-test`` is a list of reports (``COMMANDS``),
each writing one stage's CSV tables with :func:`write_csv` and returning its
summary lines, which go to ``summary.txt``, next to ``manifest.json``, and to
stdout. Numbers are written as ``%.17g`` writes them, so re-runs give
byte-identical bodies: :mod:`.csvfmt` formats numeric tables with array
operations and hands the values whose last digit it cannot be sure of, and
non-finite values and zeros, to ``%`` itself. Reports ask
one :class:`Run`, a memoized stage graph, for what they report; a stage runs
once per run (``system``, ``first_order``, ``modes``, ``coupling`` and
``reduced`` once per network), and only ``Run`` assembles or solves a
network::

    mesh -> system(net) -> mechanical modes (one set serves every network)
                        -> modes(net) -> network (L_N tuned by [tuning])
                        -> first_order(net) -> coupling(net)
         -> basis -> reduced(net) -> tuned pair -> simulation, search

``system`` sums K2 and K0, the pencil of the modal analysis; ``first_order``
sums K1, which only ``coupling`` and ``reduced`` read. So ``modes`` sums no
K1, ``coupling`` the configured network's, and ``tune``, ``simulate``,
``optimize-r`` and a tuned ``pipeline`` only the tuned network's.

The tuned pair must couple: ``tune``, a tuned simulation and the search
fail on it before anything is integrated. The simulation is the one stage
not kept: its trajectory, and the energy traces its table fills, leave
memory once ``trajectory.csv`` and its summary line are written. No run
holds a state history: a trajectory's states are stepped, a chunk of rows
at a time, by the one pass that writes its table, and that table owns the
energy traces the pass fills (:func:`.dynamics.energy_chunks`). Tables are
written one chunk of rows at a time (:class:`.csvfmt.Columns`).

Every network a run assembles is conservative (R_N = G_N = 0), made once
from the configured one; the search scales R_N and G_N into the simulation's
reduction (:func:`.dynamics.resistance_family`) and always drives the tuned
mechanical mode against the tuned electric mode ([tuning] mech_mode / elec_mode).

Importing this module freezes (:func:`gc.freeze`) every object alive at that
moment, the caller's as well as numpy's and scipy's: the cyclic garbage
collector never walks them again, neither in a run's collections nor at
interpreter exit. It collects nothing while the imports run, and it is left
enabled or disabled as the importer had it.

It also defers the numpy submodules that scipy's import touches and no run
uses (``numpy.f2py``, ``testing``, ``polynomial``, ``char``, ``strings``,
``ctypeslib``, ``rec``): each is an
:class:`importlib.util.LazyLoader` module, which runs its code on the first
attribute access, so a caller that uses one gets the real module. One
already imported is left as it is.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import sys
from contextlib import contextmanager, suppress
from functools import partial
from importlib.util import LazyLoader, find_spec, module_from_spec
from pathlib import Path

# An idle OpenBLAS worker spins for 2**timeout cycles before it sleeps; the
# built-in 28 (~0.1 s) burns a core after every threaded call. Each bundled
# copy (numpy's, scipy's) reads the variable once, when it loads, so this
# must come before numpy's first import. A value the user set wins.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "20")
# numpy asks for transparent huge pages on every large array it allocates,
# so the kernel may back the heap under the dense eigh arrays with 2 MiB
# pages, and the resident set rounds up to them (paper-square's pipeline
# peaks ~3.5 MiB higher, for half the page faults: ~0.03 s of system time).
# numpy reads the variable when it loads; a value the user set wins.
os.environ.setdefault("NUMPY_MADVISE_HUGEPAGE", "0")
# The imports below leave ~36k container objects alive for the whole run. A
# collection during the imports walks those made so far, and the one at
# interpreter exit walks them all (~55 ms of a clamped-demo process). So
# none runs while importing, and gc.freeze then moves them out of its reach.
_gc_was_enabled = gc.isenabled()
gc.disable()

import numpy as np

# scipy's array-API shim (scipy._lib.array_api_compat.numpy, which
# scipy.sparse loads) clones numpy: it calls hasattr(numpy, name) for every
# name in dir(numpy), and that imports each submodule numpy exposes lazily.
# No run uses these, so each is registered as a LazyLoader module, which
# runs its code on first attribute access (Python 3.11's is not safe for a
# first access from two threads at once; pemplate runs on one). The numpy
# attribute is set too: numpy's __getattr__ imports `numpy.x as x`, which
# reads that attribute, and would recurse without it. Cumulative import
# cost of each here (Python 3.11, numpy 2.4): f2py 70-90 ms, testing 18-31
# ms, polynomial 4 ms, char and strings 1-2 ms, ctypeslib 1 ms, rec 0.1 ms.
# Left out: numpy.random, which scipy's own import uses, and numpy.ma
# (8-12 ms), which every dense eigh loads (scipy's _asarray_validated calls
# np.ma.isMaskedArray), so deferring it would move its cost into the first
# dense solve on most runs. A submodule already imported stays as it is.
for _name in ("f2py", "testing", "polynomial", "char", "strings",
              "ctypeslib", "rec"):
    _qualified = f"numpy.{_name}"
    _spec = None if _qualified in sys.modules else find_spec(_qualified)
    if _spec is not None:
        _spec.loader = LazyLoader(_spec.loader)
        sys.modules[_qualified] = _module = module_from_spec(_spec)
        _spec.loader.exec_module(_module)
        setattr(np, _name, _module)

import scipy

from . import __version__, dynamics, modal, reference
from .assembly import assemble, build_dof_map, patch_test, scatter_plan
from .blas import numpy_blas_single_thread
from .config import load_config, package_file
from .csvfmt import FMT, Columns, format_rows
from .errors import NumericalError, PemplateError, ValidationError
from .material import NetworkParams, PlateParams, build_material, conservative_twin
from .mesh import generate_structured_square, load_mesh, mesh_statistics
from .modal import build_modal_basis, reduce, solve_family_modes, tune_inductance

gc.freeze()
if _gc_was_enabled:
    gc.enable()


def _fmt(x):
    return FMT % x if isinstance(x, (float, np.floating)) else str(x)


def write_csv(path, header, rows):
    """Writes ``header`` and ``rows``, a 2-D array or :class:`.Columns`,
    one line per row: numbers exactly as ``FMT`` writes them
    (:mod:`.csvfmt`), a chunk of rows at a time, text cells as they are.
    A write that fails (a trajectory's state stops being finite while its
    table is written) removes the file, so no table is left half written."""
    try:
        with open(path, "wb") as fh:
            fh.write(",".join(header).encode() + b"\n")
            if isinstance(rows, np.ndarray) and rows.dtype.kind == "U":
                fh.writelines(",".join(row).encode() + b"\n" for row in rows)
            else:
                fh.writelines(format_rows(rows))
    except BaseException:
        Path(path).unlink(missing_ok=True)
        raise


def _stage(name, keep=True):
    """Memoizes a :class:`Run` stage per argument, unless not ``keep``, and
    prefixes its errors with ``[stage name]``; an upstream stage's error
    keeps its own prefix."""

    def wrap(method):
        def staged(self, *args):
            key = (method.__name__, *args)
            if key in self._memo:
                return self._memo[key]
            try:
                result = method(self, *args)
            except PemplateError as exc:
                if getattr(exc, "stage", None):
                    raise
                err = exc.__class__(f"[stage {name}] {exc}")
                err.stage = name
                raise err from exc
            if keep:
                self._memo[key] = result
            return result

        return staged

    return wrap


class Run:
    """The stage graph of one configuration."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.configured = conservative_twin(cfg.network)  # R_N = G_N = 0
        self._memo = {}

    @_stage("mesh")
    def plan(self):
        """The scatter plan every assembly of the run shares; it holds the
        mesh and its DOF map under [bc]. Fails here, before the plan is
        built, if a structured [mesh] n cannot be allocated, if the mesh
        does not hold the impulse point or a [bc] group, or if its families
        give fewer modes than [modal] keeps. A plan that cannot be
        allocated fails here too."""
        c = self.cfg
        if c.mesh_kind == "file":
            mesh = load_mesh(c.mesh_path)
        else:
            # the config checked n and pattern; what fails here is the size
            try:
                mesh = generate_structured_square(c.mesh_n, c.mesh_side,
                                                  c.mesh_pattern)
            except ValidationError as exc:
                raise ValidationError(f"config field [mesh] side = "
                                      f"{c.mesh_side:g}: {exc}") from None
            except MemoryError as exc:
                raise ValidationError(f"config field [mesh] n = {c.mesh_n} "
                                      f"is too large: {exc}") from None
        point = c.simulation.point
        if point is not None and mesh.locate(*point) is None:
            raise ValidationError(f"config field [simulation] point {point[0]:g} "
                                  f"{point[1]:g} lies outside the mesh")
        try:
            dof_map = build_dof_map(mesh, c.bcs)
        except ValidationError as exc:
            raise ValidationError(f"config field [bc] group: {exc}") from None
        for key, n, mask in (("n_mech", c.n_mech, dof_map.mechanical_mask),
                             ("n_elec", c.n_elec, dof_map.electric_mask)):
            most = modal.most_modes(np.count_nonzero(mask))
            if n > most:
                raise ValidationError(f"config field [modal] {key} must be at "
                                      f"most {most} on this mesh, got {n}")
        try:
            return scatter_plan(mesh, c.bcs, dof_map)
        except MemoryError as exc:
            size = (f"mesh file {c.mesh_path}" if c.mesh_kind == "file"
                    else f"config field [mesh] n = {c.mesh_n}")
            raise ValidationError(f"{size} is too large: its scatter plan "
                                  f"cannot be allocated ({exc})") from None

    @_stage("assembly")
    def system(self, net):
        """The system of ``net`` as given."""
        plan = self.plan()
        return assemble(plan.mesh, build_material(self.cfg.plate, net),
                        self.cfg.bcs, workspace=plan)

    @_stage("assembly")
    def first_order(self, net):
        """The system of ``net`` with its K1 summed, here so that an
        overflowing K1 fails at this stage."""
        sys = self.system(net)
        sys.k1_blocks  # the first read sums them
        return sys

    @_stage("modal")
    def mechanical_modes(self):
        """Bending-family modes, the same for every network: L_N, R_N and
        G_N reach no entry of the bending block of K2 and K0."""
        sys = self.system(self.configured)
        return solve_family_modes(sys, "mechanical", self.cfg.n_mech)

    @_stage("modal")
    def modes(self, net):
        """(mechanical, electric) family modes of ``net``."""
        return (self.mechanical_modes(),
                solve_family_modes(self.system(net), "electric", self.cfg.n_elec))

    @_stage("tuning")
    def network(self):
        c = self.cfg
        if c.tune_mech is None:
            return self.configured
        return tune_inductance(*self.modes(self.configured), self.configured,
                               c.tune_mech - 1, c.tune_elec - 1)

    @_stage("coupling")
    def coupling(self, net):
        return modal.coupling_table(*self.modes(net), self.first_order(net))

    @_stage("modal")
    def basis(self):
        """Retained basis of the tuned network."""
        return build_modal_basis(*self.modes(self.network()))

    @_stage("modal")
    def reduced(self, net):
        """The system of ``net`` reduced on the retained basis."""
        return reduce(self.first_order(net), self.basis())

    @_stage("tuning")
    def tuned_pair(self):
        """Basis indices (drive, partner) of the tuned mechanical and
        electric modes; fails if they do not couple, since the tuned network
        then exchanges no energy and has nothing to damp."""
        c = self.cfg
        basis, rs = self.basis(), self.reduced(self.network())
        drive = basis.mechanical_indices()[c.tune_mech - 1]
        partner = basis.electric_indices()[c.tune_elec - 1]
        if not np.isfinite(dynamics.beat_period(rs, drive, partner)):
            raise ValidationError(
                f"config fields [tuning] mech_mode = {c.tune_mech} and elec_mode "
                f"= {c.tune_elec}: zero electromechanical coupling: nothing to "
                "damp (the coupling comes from [material] g_me, [network] "
                "capacitance and [material] g_ee)")
        return drive, partner

    @_stage("simulation", keep=False)
    def simulation(self):
        """(reduced system, trajectory) over ``beats`` beat periods, at
        the step :func:`.dynamics.default_horizon` chooses: the drive
        period over ``steps_per_period``, capped by :func:`.dynamics.step`'s
        stability limit and by :func:`.dynamics.suggested_dt`. Its one
        reader, :func:`report_simulation`, writes the trajectory with its
        energies and lets both go: not memoized."""
        sim = self.cfg.simulation
        if self.cfg.tune_mech is not None:
            self.tuned_pair()
        net = self.network()
        basis, rs = self.basis(), self.reduced(net)
        drive = (basis.mechanical_indices() if sim.family == "mechanical"
                 else basis.electric_indices())[sim.mode - 1]
        if sim.ic == "unimodal":
            ic = dynamics.unimodal_ic(rs, drive, sim.amplitude, sim.on)
        else:
            ic = dynamics.impulse_ic(self.system(net), basis, sim.point,
                                     sim.magnitude)
        # the drift and min E / E_0 are read against E_0
        y0 = np.concatenate([ic.z0, ic.zdot0])
        start = dynamics.Trajectory(np.zeros(1), y0, np.empty((0, len(y0))))
        with np.errstate(all="ignore"):
            e_0 = dynamics.energies(rs, start).total[0]
        if not 0.0 < e_0 < np.inf:
            key = "amplitude" if sim.ic == "unimodal" else "magnitude"
            raise ValidationError(
                f"config field [simulation] {key} = {getattr(sim, key):g} "
                f"gives the initial energy E_0 = {e_0:g}; it must be finite "
                "and positive")
        return rs, dynamics.integrate(
            rs, ic, *dynamics.default_horizon(rs, drive, sim.beats,
                                              sim.steps_per_period))

    @_stage("resistance-search")
    def evaluator(self):
        """The search's evaluator, R_N -> :class:`.dynamics.DampingSample`."""
        net = self.network()
        drive, partner = self.tuned_pair()
        basis, rs = self.basis(), self.reduced(net)
        return dynamics.damping_evaluator(
            dynamics.resistance_family(rs, self.system(net).material,
                                       self.cfg.network.conductance),
            basis, drive, partner)

    @_stage("resistance-search")
    def search(self):
        c = self.cfg
        report = dynamics.optimize_resistance(self.evaluator(),
                                              (c.search_lo, c.search_hi))
        if not report.best.converged:
            raise NumericalError("the damping fit did not converge at R* = "
                                 f"{_fmt(report.best.resistance)}; R* is no optimum")
        return report


def _configured(value, section, optional):
    """Whether ``section`` is configured; if not, fails unless ``optional``."""
    if value is None and not optional:
        raise ValidationError(f"config has no [{section}] section")
    return value is not None


def report_mesh(run, out_dir):
    stats = mesh_statistics(run.plan().mesh)
    return [f"mesh: {stats.n_nodes} nodes, {stats.n_triangles} triangles, "
            f"area {_fmt(stats.total_area)}, min angle {_fmt(stats.min_angle)} deg"]


def report_tuning(run, out_dir, optional=False):
    """The retuned L_N and the frequency mismatch of the pair it lines up."""
    c = run.cfg
    if not _configured(c.tune_mech, "tuning", optional):
        return []
    net = run.network()
    run.tuned_pair()
    mech, elec = run.modes(net)
    wm, we = mech.omegas[c.tune_mech - 1], elec.omegas[c.tune_elec - 1]
    return [f"tuned L_N: {_fmt(c.network.inductance)} -> {_fmt(net.inductance)}",
            f"relative mismatch after retune: {_fmt(abs(we - wm) / wm)}"]


def report_modes(run, out_dir, tuned=True, name="modes.csv"):
    """The mode table of the tuned (else the configured) network."""
    net = run.network() if tuned else run.configured
    # the square catalogs apply to every structured mesh: the generator only
    # produces squares, and the normalized spectra are side-independent
    header, rows, notices = reference.mode_table(
        *run.modes(net), {bc.kind for bc in run.cfg.bcs},
        run.cfg.mesh_kind == "structured")
    write_csv(out_dir / name, header,
              np.array([[_fmt(v) for v in row] for row in rows]))
    return [f"note: {n}" for n in notices]


def report_coupling(run, out_dir, tuned=True, raw=False):
    """The max-normalized coupling table; the raw one too if ``raw``."""
    table = run.coupling(run.network() if tuned else run.configured)
    header = ["elec_mode"] + [f"mech_{j + 1}" for j in range(table.raw.shape[1])]
    index = np.arange(1, table.raw.shape[0] + 1)
    write_csv(out_dir / "coupling.csv", header,
              Columns(index, table.normalized))
    if raw:
        write_csv(out_dir / "coupling_raw.csv", header,
                  Columns(index, table.raw))
    return []


class _TrajectoryTable:
    """The rows t, z, E_mech, E_elec, E_total of the trajectory ``traj`` of
    ``rs``, its states read a chunk at a time; ``len`` is the row count.
    It owns the energy traces ``en``, which the pass that reads its rows
    fills."""

    def __init__(self, rs, traj):
        self.rs, self.traj = rs, traj
        self.en = dynamics.energy_traces(traj)

    def __len__(self):
        return len(self.traj.t)

    def chunks(self):
        t, en, n = self.traj.t, self.en, self.traj.n_modes
        for start, y in dynamics.energy_chunks(self.rs, self.traj, en):
            rows = slice(start, start + len(y))
            yield from Columns(t[rows], y[:, :n], en.mech[rows],
                               en.elec[rows], en.total[rows]).chunks()


def _write_trajectory(path, rs, traj):
    """Writes the table of ``traj``, a trajectory of ``rs``, and returns
    the energy traces the write filled."""
    table = _TrajectoryTable(rs, traj)
    header = ["t", *(f"z_{k + 1}" for k in range(traj.n_modes)),
              "E_mech", "E_elec", "E_total"]
    write_csv(path, header, table)
    return table.en


@_stage("simulation", keep=False)
def report_simulation(run, out_dir):
    """Steps, energy drift and min E / E(0) of the family the run starts in,
    from the energies that writing ``trajectory.csv`` fills."""
    sim = run.cfg.simulation
    en = _write_trajectory(out_dir / "trajectory.csv", *run.simulation())
    drift = float(np.abs(en.total - en.total[0]).max() / en.total[0])
    # an impulse loads the bending field whatever family sets the horizon
    family = ("elec" if sim.ic == "unimodal" and sim.family == "electric"
              else "mech")
    energy = getattr(en, family)
    return [f"simulation: {len(en.total) - 1} steps, drift {_fmt(drift)}, "
            f"min E_{family}/E_0 {_fmt(float(energy.min() / energy[0]))}"]


def report_search(run, out_dir, optional=False):
    """The sampled zeta(R_N) and three regime runs; R*, its zeta, warnings."""
    if not _configured(run.cfg.search_lo, "search", optional):
        return []
    report = run.search()
    write_csv(out_dir / "damping.csv", ["R_N", "zeta", "settling_time"],
              np.array([[s.resistance, s.zeta, s.settling_time]
                        for s in report.samples]))
    for name, sample in report.regimes.items():
        _write_trajectory(out_dir / f"trajectory_{name}.csv",
                          *run.evaluator().run(sample))
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
    return {"config_sha256": hashlib.sha256(config_text.encode()).hexdigest(),
            "package": __version__, "numpy": np.__version__,
            "scipy": scipy.__version__}


# subcommand -> (reports, help). ``modes`` and ``coupling`` report the
# configured network; ``pipeline`` skips the sections the config lacks.
COMMANDS = {
    "modes": ([partial(report_modes, tuned=False)],
              "eigenfrequency tables (Fig. 4 style)"),
    "tune": ([report_tuning, partial(report_modes, name="modes_tuned.csv")],
             "retune the net inductance to a mechanical mode"),
    "simulate": ([report_simulation], "integrate the reduced dynamics"),
    "coupling": ([partial(report_coupling, tuned=False, raw=True)],
                 "modal coupling table (Fig. 5 style)"),
    "optimize-r": ([report_search], "search the optimal net resistance"),
    "pipeline": ([report_mesh, partial(report_tuning, optional=True),
                  report_modes, report_coupling, report_simulation,
                  partial(report_search, optional=True)],
                 "full run: modes, tuning, coupling, simulation, damping"),
}


def build_parser():
    p = argparse.ArgumentParser(
        prog="pemplate",
        description="Coupled-plate eigenanalysis, network tuning and "
                    "electric vibration damping.")
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
    pt.add_argument("--corrupt-mu", action="store_true",
                    help="negative control: flip the element mu parameters")
    return p


@contextmanager
def _output_dir(path):
    """Makes the output directory for the block; a failed block removes the
    files it added to it and the directories it made."""
    out_dir = Path(path)
    missing = [p for p in (out_dir, *out_dir.parents) if not p.exists()]
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        before = set(out_dir.iterdir())
    except OSError as exc:
        raise ValidationError(f"--out {path}: {exc.strerror}") from None
    try:
        yield out_dir
    except BaseException:
        for made in set(out_dir.iterdir()) - before:  # the reports' files
            with suppress(OSError):
                made.unlink()
        for made in missing:
            with suppress(OSError):
                made.rmdir()
        raise


def main(argv=None):
    args = build_parser().parse_args(argv)
    # numpy's BLAS thread count moves no output bit (see pemplate.blas)
    with numpy_blas_single_thread():
        try:
            if args.command == "patch-test":
                return cmd_patch_test(corrupt_mu=args.corrupt_mu)
            run = Run(load_config(args.config if args.preset is None else
                                  package_file("presets", f"{args.preset}.cfg")))
            reports, _ = COMMANDS[args.command]
            with _output_dir(args.out) as out_dir:
                lines = [line for report in reports
                         for line in report(run, out_dir)]
        except ValidationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except NumericalError as exc:
            print(f"numerical failure: {exc}", file=sys.stderr)
            return 2
        manifest = json.dumps(_manifest(run.cfg.source_text), indent=2)
        (out_dir / "manifest.json").write_text(manifest + "\n")
        summary = "".join(f"{line}\n" for line in lines)
        (out_dir / "summary.txt").write_text(summary)
        print(f"{summary}{args.command} outputs in {out_dir}")
        return 0


if __name__ == "__main__":
    sys.exit(main())
