"""Spans around the calls into each pemplate layer, and the per-layer metrics.

The traced run patches timing wrappers onto every name through which a layer
is reached (see ``SITES``), runs the real ``pemplate.cli.main`` and keeps the
spans in memory until the run ends. Nothing in the package itself changes.

A span is (id, name, start, end, parent id, run id, attrs); a layer's self
time is its span's duration minus the durations of its child spans. Calls run
on one thread, so children never overlap and that difference is exact.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from pathlib import Path

# (name, unit) of every per-layer metric, in report order. Times named
# ``*_s`` are summed self times; ``*_ms`` are medians of whole-call durations.
PER_LAYER = [
    ("config.load_s", "s"),
    ("mesh.build_s", "s"),
    ("mesh.statistics_s", "s"),
    ("element.shape_combination.calls", "count"),
    ("element.shape_combination_s", "s"),
    ("element.triangle_quadrature_s", "s"),
    ("material.build_material.calls", "count"),
    ("material.build_material_s", "s"),
    ("assembly.assemble.calls", "count"),
    ("assembly.assemble_s", "s"),
    ("assembly.assemble_cold_ms", "ms"),
    ("assembly.assemble_warm_ms", "ms"),
    ("assembly.n_free", "count"),
    ("assembly.nnz", "count"),
    ("assembly.csr_bytes", "bytes"),
    ("modal.solve_family_modes.calls", "count"),
    ("modal.solve_family_modes_s", "s"),
    ("modal.family_dofs_max", "count"),
    ("modal.build_modal_basis_s", "s"),
    ("modal.reduce.calls", "count"),
    ("modal.reduce_s", "s"),
    ("modal.coupling_table_s", "s"),
    ("dynamics.integrate.calls", "count"),
    ("dynamics.integrate_s", "s"),
    ("dynamics.rk4_steps", "count"),
    ("dynamics.rk4_steps_per_s", "1/s"),
    ("dynamics.energies_s", "s"),
    ("dynamics.fit_damping_s", "s"),
    ("dynamics.search.evaluations", "count"),
    ("dynamics.search.evaluate_ms", "ms"),
    ("dynamics.search.horizon_doublings", "count"),
    ("dynamics.search.useful_ratio", "ratio"),
    ("dynamics.optimize_resistance_s", "s"),
    ("cli.write_csv.calls", "count"),
    ("cli.write_csv_s", "s"),
    ("cli.write_csv.rows", "count"),
    ("cli.write_csv.bytes", "bytes"),
    ("cli.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
]


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []  # [name, start, end, parent, attrs]
        self._stack = []

    def wrap(self, name, fn, before=None, after=None):
        """``fn`` timed as span ``name``.

        ``before(*args, **kwargs)`` and ``after(result, *args, **kwargs)``
        return attrs for the span; they run outside the timed interval.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = before(*args, **kwargs) if before else {}
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None,
                    attrs]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if after:
                attrs.update(after(result, *args, **kwargs))
            return result

        return traced

    def dump(self, path):
        spans = [{"id": i, "name": s[0], "start": s[1], "end": s[2],
                  "parent": s[3], "run": self.run_id, "attrs": s[4]}
                 for i, s in enumerate(self.spans)]
        Path(path).write_text(json.dumps({"run": self.run_id, "spans": spans}))


def _system_size(sys):
    mats = (sys.k2, sys.k1, sys.k0)
    return {
        "n_free": int(sys.n_free),
        "nnz": int(sum(m.nnz for m in mats)),
        "csr_bytes": int(sum(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
                             for m in mats)),
    }


def _family_dofs(sys, family, n):
    dm = sys.dof_map
    mask = dm.mechanical_mask if family == "mechanical" else dm.electric_mask
    return {"family_dofs": int(mask.sum())}


def install(tracer):
    """Patch the timing wrappers onto every lookup site of a layer call."""
    import pemplate.assembly as asm
    import pemplate.cli as cli
    import pemplate.dynamics as dyn
    import pemplate.element as el
    import pemplate.modal as modal

    seen_workspaces = set()

    def assemble_kind(mesh, mat, bcs=(), *args, workspace=None, **kwargs):
        # warm: the workspace already holds this mesh's geometry chunks
        warm = workspace is not None and id(workspace) in seen_workspaces
        if workspace is not None:
            seen_workspaces.add(id(workspace))
        return {"warm": warm}

    def assemble_size(result, *args, **kwargs):
        return _system_size(result)

    def steps(result, *args, **kwargs):
        return {"steps": len(result.t) - 1}

    def csv_size(result, path, header, rows):
        return {"rows": len(rows), "bytes": Path(path).stat().st_size}

    def evaluator(fn):
        def make(*args, **kwargs):
            return tracer.wrap("dynamics.search.evaluate", fn(*args, **kwargs))

        return functools.wraps(fn)(make)

    # (module, attribute, span name, before, after); one original function
    # reached under several names gets one wrapper per name.
    sites = [
        (cli, "load_config", "config.load", None, None),
        (cli, "generate_structured_square", "mesh.build", None, None),
        (cli, "load_mesh", "mesh.build", None, None),
        (cli, "mesh_statistics", "mesh.statistics", None, None),
        (cli, "build_material", "material.build_material", None, None),
        (dyn, "build_material", "material.build_material", None, None),
        (el, "shape_combination", "element.shape_combination", None, None),
        (el, "triangle_quadrature", "element.triangle_quadrature", None, None),
        (cli, "assemble", "assembly.assemble", assemble_kind, assemble_size),
        (asm, "assemble", "assembly.assemble", assemble_kind, assemble_size),
        (cli, "solve_family_modes", "modal.solve_family_modes", _family_dofs,
         None),
        (modal, "solve_family_modes", "modal.solve_family_modes", _family_dofs,
         None),
        (cli, "build_modal_basis", "modal.build_modal_basis", None, None),
        (cli, "reduce", "modal.reduce", None, None),
        (modal, "reduce", "modal.reduce", None, None),
        (cli, "tune_inductance", "modal.tune_inductance", None, None),
        (modal, "coupling_table", "modal.coupling_table", None, None),
        (dyn, "integrate", "dynamics.integrate", None, steps),
        (dyn, "energies", "dynamics.energies", None, None),
        (dyn, "fit_damping", "dynamics.fit_damping", None, None),
        (dyn, "optimize_resistance", "dynamics.optimize_resistance", None, None),
        (cli, "write_csv", "cli.write_csv", None, csv_size),
    ]
    for module, attr, name, before, after in sites:
        setattr(module, attr,
                tracer.wrap(name, getattr(module, attr), before, after))
    dyn.damping_evaluator = evaluator(dyn.damping_evaluator)
    return tracer.wrap("cli.main", cli.main)


def _median(values):
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(spans):
    """Per-layer metrics (``PER_LAYER`` minus the ``trace.*`` pair).

    A metric of a layer that did no work in the run reads 0.
    """
    by_name = {}
    child_time = [0.0] * len(spans)
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]

    def calls(name):
        return by_name.get(name, [])

    def self_s(*names):
        return sum(s["end"] - s["start"] - child_time[s["id"]]
                   for n in names for s in calls(n))

    def durations_ms(spans_):
        return [1e3 * (s["end"] - s["start"]) for s in spans_]

    def attr_max(name, key):
        return max((s["attrs"][key] for s in calls(name)), default=0)

    def attr_sum(name, key):
        return sum(s["attrs"][key] for s in calls(name))

    assembles = calls("assembly.assemble")
    integrations = calls("dynamics.integrate")
    evaluations = calls("dynamics.search.evaluate")
    evaluation_ids = {s["id"] for s in evaluations}
    searched = sum(1 for s in integrations if s["parent"] in evaluation_ids)
    steps = attr_sum("dynamics.integrate", "steps")
    integrate_s = self_s("dynamics.integrate")
    return {
        "config.load_s": self_s("config.load"),
        "mesh.build_s": self_s("mesh.build"),
        "mesh.statistics_s": self_s("mesh.statistics"),
        "element.shape_combination.calls": len(calls("element.shape_combination")),
        "element.shape_combination_s": self_s("element.shape_combination"),
        "element.triangle_quadrature_s": self_s("element.triangle_quadrature"),
        "material.build_material.calls": len(calls("material.build_material")),
        "material.build_material_s": self_s("material.build_material"),
        "assembly.assemble.calls": len(assembles),
        "assembly.assemble_s": self_s("assembly.assemble"),
        "assembly.assemble_cold_ms": _median(
            durations_ms([s for s in assembles if not s["attrs"]["warm"]])),
        "assembly.assemble_warm_ms": _median(
            durations_ms([s for s in assembles if s["attrs"]["warm"]])),
        "assembly.n_free": attr_max("assembly.assemble", "n_free"),
        "assembly.nnz": attr_max("assembly.assemble", "nnz"),
        "assembly.csr_bytes": attr_max("assembly.assemble", "csr_bytes"),
        "modal.solve_family_modes.calls": len(calls("modal.solve_family_modes")),
        "modal.solve_family_modes_s": self_s("modal.solve_family_modes"),
        "modal.family_dofs_max": attr_max("modal.solve_family_modes",
                                          "family_dofs"),
        "modal.build_modal_basis_s": self_s("modal.build_modal_basis"),
        "modal.reduce.calls": len(calls("modal.reduce")),
        "modal.reduce_s": self_s("modal.reduce"),
        "modal.coupling_table_s": self_s("modal.coupling_table"),
        "dynamics.integrate.calls": len(integrations),
        "dynamics.integrate_s": integrate_s,
        "dynamics.rk4_steps": steps,
        "dynamics.rk4_steps_per_s": steps / integrate_s if integrate_s else 0.0,
        "dynamics.energies_s": self_s("dynamics.energies"),
        "dynamics.fit_damping_s": self_s("dynamics.fit_damping"),
        "dynamics.search.evaluations": len(evaluations),
        "dynamics.search.evaluate_ms": _median(durations_ms(evaluations)),
        "dynamics.search.horizon_doublings": searched - len(evaluations),
        "dynamics.search.useful_ratio": (len(evaluations) / searched
                                         if searched else 0.0),
        "dynamics.optimize_resistance_s": self_s("dynamics.optimize_resistance"),
        "cli.write_csv.calls": len(calls("cli.write_csv")),
        "cli.write_csv_s": self_s("cli.write_csv"),
        "cli.write_csv.rows": attr_sum("cli.write_csv", "rows"),
        "cli.write_csv.bytes": attr_sum("cli.write_csv", "bytes"),
        "cli.self_s": self_s("cli.main"),
    }
