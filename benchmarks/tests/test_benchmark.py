"""Tests of the benchmark itself, on a tiny pipeline (n = 4).

    python3 -m pytest benchmarks/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
from tracer import PER_LAYER, layer_metrics

TINY = Path(__file__).resolve().parent / "tiny.cfg"


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """One untraced and one traced run of the tiny pipeline."""
    run.WORKLOADS["tiny"] = ["pipeline", "--config", str(TINY)]
    try:
        plain_dir = tmp_path_factory.mktemp("plain")
        traced_dir = tmp_path_factory.mktemp("traced")
        plain = run.timed_run("tiny", plain_dir, expected={})
        outputs = checks.read_outputs(plain_dir / "out")
        traced = run.timed_run("tiny", traced_dir, expected={},
                               spans=traced_dir / "spans.json")
        spans = json.loads((traced_dir / "spans.json").read_text())["spans"]
    finally:
        del run.WORKLOADS["tiny"]
    return plain, traced, outputs, spans


def test_traced_outputs_are_byte_identical(tiny):
    plain, traced, _, _ = tiny
    assert plain["problems"] == [] and traced["problems"] == []
    assert "trajectory.csv" in plain["digests"]
    assert traced["digests"] == plain["digests"]


def test_outputs_carry_every_key_the_checker_reads(tiny):
    _, _, outputs, _ = tiny
    assert set(outputs) == set(checks.TOLERANCES)
    assert checks.check(outputs, outputs) == []


def test_spans_nest_and_self_times_are_non_negative(tiny):
    _, _, _, spans = tiny
    assert spans and len({s["run"] for s in spans}) == 1
    child_time = [0.0] * len(spans)
    for s in spans:
        assert s["start"] <= s["end"]
        if s["parent"] is not None:
            parent = spans[s["parent"]]
            assert parent["id"] < s["id"]
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"]
            child_time[parent["id"]] += s["end"] - s["start"]
    roots = [s for s in spans if s["parent"] is None]
    assert [s["name"] for s in roots] == ["cli.main"]
    for s in spans:
        assert s["end"] - s["start"] - child_time[s["id"]] >= 0.0
    metrics = layer_metrics(spans)
    assert all(v >= 0 for v in metrics.values())


def test_every_per_layer_metric_is_reported(tiny):
    _, _, _, spans = tiny
    metrics = layer_metrics(spans)
    traced_only = {"trace.wall_s", "trace.overhead_s"}
    assert set(metrics) | traced_only == {name for name, _ in PER_LAYER}
    # the tiny pipeline reaches every layer
    for name in ("element.shape_combination.calls",
                 "material.build_material.calls", "assembly.assemble.calls",
                 "modal.solve_family_modes.calls", "modal.reduce.calls",
                 "dynamics.integrate.calls", "dynamics.search.evaluations",
                 "cli.write_csv.calls"):
        assert metrics[name] > 0, name
    assert metrics["assembly.assemble_warm_ms"] > 0
    assert 0 < metrics["dynamics.search.useful_ratio"] <= 1


def test_design_check_compares_self_times_only(tiny):
    _, _, _, spans = tiny
    m = run.Measurement("square-pipeline", {})
    m.layers = dict(layer_metrics(spans), **{"trace.wall_s": 99.0,
                                             "trace.overhead_s": 0.0})
    m.layers["assembly.assemble_s"] = 50.0
    assert m.layers["dynamics.rk4_steps_per_s"] > 50.0
    assert m.design_check()[0]
    m.layers["dynamics.integrate_s"] = 60.0
    assert not m.design_check()[0]


def test_benchmark_json_matches_the_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert ([(m["name"], m["unit"]) for m in spec["end_to_end"]]
            == run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER


def test_checker_rejects_a_perturbed_resistance():
    expected = checks.load_reference()["square-pipeline"]
    assert checks.check(dict(expected), expected) == []
    within = dict(expected, resistance=expected["resistance"] * 1.005)
    assert checks.check(within, expected) == []
    off = dict(expected, resistance=expected["resistance"] * 1.02)
    problems = checks.check(off, expected)
    assert len(problems) == 1 and problems[0].startswith("resistance")


def test_checker_rejects_a_perturbed_frequency_and_a_missing_key():
    expected = checks.load_reference()["square64-modes"]
    omega = list(expected["omega"])
    omega[3] *= 1.0 + 1e-9
    assert checks.check({"omega": omega}, expected)[0].startswith("omega[3]")
    assert checks.check({}, expected) == ["omega: missing from the run's outputs"]


def test_fails_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark's files: exit non-zero, no result."""
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    res = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "square-pipeline",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert res.returncode != 0
    assert res.stdout.strip() == ""
