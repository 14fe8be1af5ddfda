"""Seeded input fuzz through the command line.

Fixed value mutations of the keys of ``benchmarks/tests/tiny.cfg`` run
``pipeline``, and seeded token mutations of a small mesh file run ``modes``,
each through :func:`pemplate.cli.main` in this process with RuntimeWarning as
an error. Every case must exit 0, 1 or 2 with no exception escaping; a
failed run leaves no output directory, and a successful one no ``nan`` in
``summary.txt``. The mesh mutations' seed is fixed, so every failure names a
case that reruns.
"""

import random
import re
import warnings
from pathlib import Path

import pytest

from pemplate.cli import main
from pemplate.mesh import generate_structured_square, save_mesh

TINY = (Path(__file__).resolve().parents[1] / "benchmarks" / "tests"
        / "tiny.cfg").read_text()
# (line, key) of every line that sets a key: [mesh] and [bc] both set kind
KEYS = [(i, m[1]) for i, line in enumerate(TINY.splitlines())
        if (m := re.match(r"(\w+) = ", line))]
VALUES = ["", "nan", "inf", "-1", "0", "-0", "0.5", "1 2", "abc", "1e-300",
          "1e5", "1e300"]
# keys that set how much work a run does: no large values, which would only
# take long or allocate much before they fail
SIZE_KEYS = {"n", "n_mech", "n_elec", "mode", "mech_mode", "elec_mode",
             "beats", "steps_per_period"}
LARGE = {"1e5", "1e300"}
SEED = 20261020
MESH_CASES = 40
MESH_TOKENS = ["-1", "0", "1", "2", "7", "12", "13", "nan", "inf", "1e300",
               "-1e300", "0.5", "x", ""]


def config_cases():
    return [(line, key, value) for line, key in KEYS for value in VALUES
            if not (key in SIZE_KEYS and value in LARGE)]


def mesh_cases():
    rng = random.Random(SEED)
    return [(rng.random(), rng.choice(MESH_TOKENS)) for _ in range(MESH_CASES)]


def mutated_mesh(text, where, token):
    """``text`` with the token at relative position ``where`` replaced."""
    spans = [m.span() for m in re.finditer(r"\S+", text)]
    start, end = spans[int(where * len(spans))]
    return text[:start] + token + text[end:]


def run_case(command, cfg, out):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        warnings.simplefilter("ignore", UserWarning)
        code = main([command, "--config", str(cfg), "--out", str(out)])
    assert code in (0, 1, 2)
    if code == 0:
        assert "nan" not in (out / "summary.txt").read_text()
    else:
        assert not out.exists()


@pytest.mark.parametrize("line, key, value", config_cases())
def test_mutated_config(tmp_path, line, key, value):
    lines = TINY.splitlines()
    lines[line] = f"{key} = {value}"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    run_case("pipeline", cfg, tmp_path / "out")


@pytest.mark.parametrize("where, token", mesh_cases())
def test_mutated_mesh(tmp_path, where, token):
    path = tmp_path / "plate.mesh"
    save_mesh(generate_structured_square(2), path)
    path.write_text(mutated_mesh(path.read_text(), where, token))
    cfg = tmp_path / "run.cfg"
    text = TINY.replace("kind = structured\nn = 4\nside = 1.0\n"
                        "pattern = crossed\n", f"kind = file\npath = {path}\n")
    assert "kind = file" in text
    cfg.write_text(text)
    run_case("modes", cfg, tmp_path / "out")
