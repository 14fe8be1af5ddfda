"""pemplate benchmark: whole batch runs, timed one fresh process at a time.

One workload (the form the command in BENCHMARK.json takes):

    python3 benchmarks/run.py --workload square-pipeline --seed 1 \
        --seconds 40 --trace 0

runs ``python -m pemplate.cli`` on the workload for about ``--seconds``
seconds (at least once), plus a few set-up probes, checks every run's outputs
against ``reference.json`` and prints, as the last stdout line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end medians with ``--trace 0``; with ``--trace 1`` the per-layer
metrics of one extra traced process.

All three workloads, repeats interleaved in an order set by ``--seed``:

    python3 benchmarks/run.py --workload all --seed 1 --repeats 3 --trace 1

prints each end-to-end metric per workload (median, max, sample count), the
fail ratio, the traced per-layer metrics and the workload-design checks.

Run from anywhere; the program measured is ``src/pemplate`` of the checkout
that holds this file. Scratch files go to ``benchmarks/.work/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from tracer import PER_LAYER, layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

# Why these three: README.md in this directory.
WORKLOADS = {
    "square-pipeline": ["pipeline", "--preset", "paper-square"],
    "lshape-pipeline": ["pipeline", "--preset", "clamped-demo"],
    "square64-modes": ["modes", "--config", str(BENCH / "square64.cfg")],
}
END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MiB")]
# Set-up probes per measurement; their median is setup_s.
SETUP_PROBES = 7
# What the traced run must show for the workload to test what it is for.
DESIGN = {
    "square-pipeline": ("largest self time", "assembly.assemble_s"),
    "lshape-pipeline": ("largest self time", "dynamics.integrate_s"),
    "square64-modes": ("zero", "dynamics.integrate.calls"),
}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def context():
    """Machine and software facts recorded with every result."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version",
                                         "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "loadavg_start": _loadavg(),
    }


def _digests(out):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


def setup_probe(workload, workdir):
    """Seconds from spawn until ``pemplate.cli`` is imported and the config
    validated, in a fresh process."""
    cmd = [sys.executable, str(BENCH / "child.py"), "probe", "--",
           *WORKLOADS[workload], "--out", "out"]
    t0 = time.monotonic()
    res = subprocess.run(cmd, cwd=workdir, env=child_env(),
                         capture_output=True, text=True, timeout=120)
    if res.returncode != 0:
        raise BenchError(f"set-up probe of {workload} failed:\n{res.stderr}")
    return float(res.stdout.split()[-1]) - t0


def timed_run(workload, workdir, expected, spans=None):
    """One fresh process running the workload; checks its outputs against
    the ``expected`` reference.

    With ``spans`` (a path) the process is the traced one. Returns a dict
    with wall_s, cpu_s, peak_rss_mb, the problems found and the sha256 of
    every output file.
    """
    out = workdir / "out"
    shutil.rmtree(out, ignore_errors=True)
    argv = [*WORKLOADS[workload], "--out", str(out)]
    if spans is None:
        cmd = [sys.executable, "-m", "pemplate.cli", *argv]
    else:
        cmd = [sys.executable, str(BENCH / "child.py"), "trace", str(spans),
               f"{workload}-{workdir.name}", "--", *argv]
    log = workdir / "log.txt"
    with log.open("wb") as fh:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=workdir, env=child_env(), stdout=fh,
                                stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = log.read_text(errors="replace").strip().splitlines()[-3:]
        problems = [f"exit code {proc.returncode}: " + " | ".join(tail)]
    else:
        problems = checks.check(checks.read_outputs(out), expected)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB
        "problems": problems,
        "digests": _digests(out) if out.is_dir() else {},
    }


class Measurement:
    """Samples and outcomes of one workload, pooled over visits."""

    def __init__(self, workload, expected):
        self.workload = workload
        self.expected = expected
        self.samples = {name: [] for name, _ in END_TO_END}
        self.problems = []  # one list per timed process
        self.digests = None  # outputs of the first untraced run
        self.layers = None

    def visit(self, seconds, rng, workdir):
        """Timed processes for about ``seconds`` (at least one), with the
        set-up probes split before and after them at a seeded point."""
        before = rng.randint(0, SETUP_PROBES)
        for _ in range(before):
            self.samples["setup_s"].append(setup_probe(self.workload, workdir))
        walls = []
        start = time.monotonic()
        while True:
            run = timed_run(self.workload, workdir, self.expected)
            for key in ("wall_s", "cpu_s", "peak_rss_mb"):
                self.samples[key].append(run[key])
            self.problems.append(run["problems"])
            if self.digests is None:
                self.digests = run["digests"]
            walls.append(run["wall_s"])
            if time.monotonic() - start + statistics.median(walls) > seconds:
                break
        for _ in range(SETUP_PROBES - before):
            self.samples["setup_s"].append(setup_probe(self.workload, workdir))

    def trace(self, workdir):
        """One traced process: per-layer metrics and tracing overhead."""
        spans_path = workdir / "spans.json"
        run = timed_run(self.workload, workdir, self.expected,
                        spans=spans_path)
        if run["digests"] != self.digests:
            run["problems"].append("traced outputs differ from the untraced run")
        self.problems.append(run["problems"])
        spans = []
        if spans_path.is_file():  # absent only if the process was killed
            spans = json.loads(spans_path.read_text())["spans"]
            shutil.copyfile(spans_path, WORK / f"spans-{self.workload}.json")
        self.layers = layer_metrics(spans)
        self.layers["trace.wall_s"] = run["wall_s"]
        self.layers["trace.overhead_s"] = (
            run["wall_s"] - statistics.median(self.samples["wall_s"]))

    @property
    def failed(self):
        return sum(1 for p in self.problems if p)

    def design_check(self):
        kind, name = DESIGN[self.workload]
        if kind == "zero":
            return self.layers[name] == 0, f"{name} = {self.layers[name]}"
        times = {k: self.layers[k] for k, unit in PER_LAYER
                 if unit == "s" and not k.startswith("trace.")}
        top = max(times, key=times.get)
        return top == name, f"largest self time is {top} ({times[top]:.3g} s)"

    def summary(self):
        """Per-metric median, max and sample count, plus the fail ratio."""
        out = {}
        for name, unit in END_TO_END:
            v = self.samples[name]
            out[name] = {"median": statistics.median(v), "max": max(v),
                         "n": len(v), "unit": unit}
        out["fail_ratio"] = {"value": self.failed / len(self.problems),
                             "failed": self.failed,
                             "attempted": len(self.problems)}
        return out

    def print_report(self):
        print(f"== {self.workload}")
        for name, s in self.summary().items():
            if name == "fail_ratio":
                print(f"  {name:<12} {s['value']:.3g}  "
                      f"({s['failed']} of {s['attempted']} runs)")
            else:
                print(f"  {name:<12} median {s['median']:.4g} {s['unit']}  "
                      f"max {s['max']:.4g}  n={s['n']}")
        for i, problems in enumerate(self.problems):
            for p in problems:
                print(f"  run {i}: {p}")
        if self.layers is not None:
            for name, unit in PER_LAYER:
                print(f"  {name:<36} {self.layers[name]:.6g} {unit}")
            ok, detail = self.design_check()
            print(f"  design check ({DESIGN[self.workload][0]} "
                  f"{DESIGN[self.workload][1]}): "
                  f"{'PASS' if ok else 'FAIL'}; {detail}")


def prepare():
    if not (SRC / "pemplate" / "cli.py").is_file():
        raise BenchError(f"no pemplate sources under {SRC}")
    # build: byte-compile once so no measured process pays for it
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    str(SRC / "pemplate")], check=True, env=child_env(),
                   stdout=subprocess.DEVNULL)
    WORK.mkdir(exist_ok=True)


def run(workloads, seed, seconds, repeats, trace):
    """Measure ``workloads``; returns the context and one Measurement each."""
    prepare()
    reference = checks.load_reference()
    ctx = context()
    rng = random.Random(seed)
    order = [w for w in workloads for _ in range(repeats)]
    rng.shuffle(order)
    ctx["seed"] = seed
    ctx["order"] = order
    workdir = WORK / f"run-{seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        setup_probe(order[0], workdir)  # warm the file cache; not counted
        results = {w: Measurement(w, reference[w]) for w in workloads}
        for w in order:
            results[w].visit(seconds, rng, workdir)
        if trace:
            for w in workloads:
                results[w].trace(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ctx["loadavg_end"] = _loadavg()
    return ctx, results


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0,
                   help="sets the order of repeats and probes")
    p.add_argument("--seconds", type=float, default=1.0,
                   help="measuring time per visit of a workload")
    p.add_argument("--repeats", type=int, default=1,
                   help="visits per workload")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        ctx, results = run(names, args.seed, args.seconds, args.repeats,
                           args.trace)
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    for m in results.values():
        m.print_report()
    attempted = sum(len(m.problems) for m in results.values())
    failed = sum(m.failed for m in results.values())
    detail = {"context": ctx, "workloads": {
        w: {"end_to_end": m.summary(), "samples": m.samples,
            "per_layer": m.layers} for w, m in results.items()}}
    print(json.dumps(detail))
    if args.workload == "all":
        path = WORK / f"all-seed{args.seed}.json"
        path.write_text(json.dumps(detail, indent=1) + "\n")
        print(f"result written to {path}")
        print(json.dumps({"correct": failed == 0, "attempted": attempted,
                          "failed": failed}))
        return 0

    m = results[args.workload]
    if args.trace:
        metrics = {name: {"value": m.layers[name], "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": statistics.median(m.samples[name]),
                          "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
