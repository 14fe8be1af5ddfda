import functools
import itertools
import json
import math
import re
import tracemalloc
import weakref
from decimal import Decimal
from fractions import Fraction
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import pemplate
from pemplate import assembly, cli, csvfmt, dynamics, modal
from pemplate.cli import main
from pemplate.config import load_config, parse_config
from pemplate.errors import (IntegrationError, StepStabilityError,
                             ValidationError)
from pemplate.mesh import generate_structured_square, save_mesh

import oracle
from oracle import HeldTrajectory, held
from test_blas import run_child

SMALL_CFG = """
[mesh]
kind = structured
n = 4
side = 1.0
pattern = crossed

[material]
h = 0.001
rho = 500.0
rigidity = 1.0
poisson = 0.3
g_me = 0.1 0.1 0.0

[network]
inductance = 1.0
capacitance = 1.0

[bc]
group = boundary
kind = simply_supported+grounded

[modal]
n_mech = 4
n_elec = 4

[tuning]
mech_mode = 1
elec_mode = 1

[simulation]
ic = unimodal
family = mechanical
mode = 1
beats = 2
steps_per_period = 60
"""

SEARCH = "\n[search]\nr_lo = 0.02\nr_hi = 2.0\n"
UNTUNED_CFG = SMALL_CFG.replace("[tuning]\nmech_mode = 1\nelec_mode = 1\n", "")
IMPULSE_CFG = SMALL_CFG.replace("ic = unimodal", "ic = impulse\npoint = 0.6 0.6")
TINY_CFG = (Path(__file__).resolve().parents[1] / "benchmarks" / "tests"
            / "tiny.cfg").read_text()
DEMO_CFG = (resources.files("pemplate") / "presets" / "clamped-demo.cfg").read_text()


def never_assemble(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("assembled")

    monkeypatch.setattr(cli, "assemble", fail)


def never_plan(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("planned")

    monkeypatch.setattr(cli, "scatter_plan", fail)


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestConfigParsing:
    def test_small_config_valid(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, SMALL_CFG))
        assert cfg.mesh_n == 4
        assert cfg.tune_mech == 1
        assert len(cfg.bcs) == 2
        assert {bc.kind for bc in cfg.bcs} == {"simply_supported", "grounded"}

    def test_bad_number_names_field(self):
        with pytest.raises(ValidationError, match=r"\[mesh\] n"):
            parse_config("[mesh]\nkind = structured\nn = four\n[bc]\n"
                         "group = boundary\nkind = free\n")

    def test_missing_bc_section(self):
        with pytest.raises(ValidationError, match="no \\[bc\\]"):
            parse_config("[mesh]\nkind = structured\nn = 2\n")

    def test_zero_retained_modes_rejected(self):
        text = SMALL_CFG.replace("n_mech = 4", "n_mech = 0")
        with pytest.raises(ValidationError, match=re.escape(
                "config field [modal] n_mech must be >= 1, got 0")):
            parse_config(text)

    def test_tuning_target_outside_retained(self):
        text = SMALL_CFG.replace("mech_mode = 1", "mech_mode = 9")
        with pytest.raises(ValidationError, match=re.escape(
                "config field [tuning] mech_mode must be between 1 and 4, "
                "got 9")):
            parse_config(text)

    def test_missing_mesh_file(self):
        with pytest.raises(ValidationError, match="mesh file not found"):
            parse_config("[mesh]\nkind = file\npath = nowhere.mesh\n[bc]\n"
                         "group = boundary\nkind = free\n")

    def test_unknown_bc_kind(self):
        text = SMALL_CFG.replace("simply_supported+grounded", "welded")
        with pytest.raises(ValidationError, match=re.escape(
                "config field [bc] kind: unknown boundary-condition kind "
                "'welded'")):
            parse_config(text)

    def test_material_invariants_checked_upfront(self):
        text = SMALL_CFG.replace("inductance = 1.0", "inductance = -2.0")
        with pytest.raises(ValidationError, match=re.escape(
                "config field [network] inductance must be finite and "
                "positive, got -2.0")):
            parse_config(text)

    @pytest.mark.parametrize("old, new, message", [
        ("kind = structured", "kind = disc",
         "field [mesh] kind must be 'structured' or 'file', got 'disc'"),
        ("pattern = crossed", "pattern = star",
         "field [mesh] pattern must be 'crossed' or 'diagonal', got 'star'"),
        ("h = 0.001", "h = 0",
         "field [material] h must be finite and positive, got 0.0"),
        ("rho = 500.0", "rho = -0",
         "field [material] rho must be finite and positive, got -0.0"),
        ("rigidity = 1.0", "rigidity = -1",
         "field [material] rigidity must be finite and positive, got -1.0"),
        ("rigidity = 1.0", "rigidity = 5e-324",
         "field [material] rigidity must be large enough that D [[1, nu, 0], "
         "[nu, 1, 0], [0, 0, (1 - nu) / 2]] is positive definite in float64, "
         "got 5e-324"),
        ("poisson = 0.3", "poisson = 1",
         "field [material] poisson must be between -1 and 1, exclusive, "
         "got 1.0"),
        ("capacitance = 1.0", "capacitance = 1.0\nconductance = -1",
         "field [network] conductance must be non-negative, got -1.0"),
        ("capacitance = 1.0", "capacitance = -1",
         "fields [network] capacitance = -1.0 and [material] g_ee = 0.0: the "
         "total capacitance C_N = capacitance + g_ee must be positive, "
         "got -1.0"),
        ("n_elec = 4", "n_elec = -1",
         "field [modal] n_elec must be >= 1, got -1"),
        ("elec_mode = 1", "elec_mode = 0",
         "field [tuning] elec_mode must be between 1 and 4, got 0"),
        ("family = mechanical", "family = both",
         "field [simulation] family must be 'mechanical' or 'electric', "
         "got 'both'"),
        ("\nmode = 1", "\nmode = 0",
         "field [simulation] mode must be >= 1, got 0"),
        ("steps_per_period = 60", "steps_per_period = 3",
         "field [simulation] steps_per_period must be >= 4, got 3"),
        ("r_hi = 2.0", "r_hi = 0.02",
         "field [search] r_hi must be above r_lo = 0.02, got 0.02"),
    ], ids=["mesh-kind", "pattern", "h", "rho", "rigidity",
            "rigidity-underflow", "poisson",
            "conductance", "C_N", "n_elec", "elec_mode", "family", "mode",
            "steps_per_period", "r_hi"])
    def test_bad_value_names_field_and_value(self, old, new, message):
        text = SMALL_CFG + SEARCH
        assert text.count(old) == 1
        with pytest.raises(ValidationError,
                           match=re.escape(f"config {message}")):
            parse_config(text.replace(old, new))

    def test_builtin_mesh_path(self):
        cfg = parse_config("[mesh]\nkind = file\npath = builtin:l_shape.mesh\n"
                           "[bc]\ngroup = boundary\nkind = clamped+grounded\n")
        assert cfg.mesh_path.exists()

    @pytest.mark.parametrize("line", ["n = 32", "side = 5", "pattern = bogus"])
    def test_file_mesh_rejects_structured_keys(self, tmp_path, capsys, line):
        text = DEMO_CFG.replace("kind = file\n", f"kind = file\n{line}\n")
        cfg = write_cfg(tmp_path, text)
        lineno = text.splitlines().index(line) + 1
        key = line.split(" =")[0]
        out = tmp_path / "out"
        assert main(["modes", "--config", str(cfg), "--out", str(out)]) == 1
        assert f"run.cfg:{lineno}: unknown key '{key}' in [mesh]" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_typo_key_names_file_and_line(self, tmp_path):
        text = SMALL_CFG.replace("side = 1.0", "sied = 2.0")
        path = write_cfg(tmp_path, text)
        line = text.splitlines().index("sied = 2.0") + 1
        with pytest.raises(ValidationError,
                           match=rf"run\.cfg:{line}: unknown key 'sied' in \[mesh\]"):
            load_config(path)

    def test_typo_section_names_file_and_line(self, tmp_path):
        text = SMALL_CFG + "\n[serach]\nr_lo = 0.01\nr_hi = 1.0\n"
        path = write_cfg(tmp_path, text)
        line = text.splitlines().index("[serach]") + 1
        with pytest.raises(ValidationError,
                           match=rf"run\.cfg:{line}: unknown section \[serach\]"):
            load_config(path)

    def test_typo_exits_1_naming_the_line(self, tmp_path, capsys, monkeypatch):
        never_assemble(monkeypatch)
        # the simulation's horizon is beats and its step steps_per_period:
        # there is no t_f or dt key
        for command, old, new, section in [
                ("modes", "inductance = 1.0", "inductnce = -5", "network"),
                ("simulate", "beats = 2", "beats = 2\nt_f = 1.0", "simulation"),
                ("simulate", "beats = 2", "beats = 2\ndt = 0.01", "simulation")]:
            text = SMALL_CFG.replace(old, new)
            cfg = write_cfg(tmp_path, text)
            bad = new.splitlines()[-1]
            line = text.splitlines().index(bad) + 1
            key = bad.split(" =")[0]
            out = tmp_path / "out"
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert f"run.cfg:{line}: unknown key '{key}' in [{section}]" in err
            assert "Traceback" not in err
            assert not out.exists()

    def test_key_unused_by_this_run_rejected(self):
        # [simulation] point is read only for impulse initial conditions
        text = SMALL_CFG.replace("ic = unimodal", "ic = unimodal\npoint = 0.5 0.5")
        with pytest.raises(ValidationError, match="unknown key 'point'"):
            parse_config(text)

    @pytest.mark.parametrize("base, line", [
        (SMALL_CFG, "magnitude = 2.5"),
        (IMPULSE_CFG, "amplitude = 2.0"),
        (IMPULSE_CFG, "on = velocity"),
    ], ids=["magnitude-unimodal", "amplitude-impulse", "on-impulse"])
    def test_key_of_the_other_initial_condition_rejected(self, base, line):
        key = line.split(" =")[0]
        with pytest.raises(ValidationError,
                           match=rf"unknown key '{key}' in \[simulation\]"):
            parse_config(base + line + "\n")

    def test_unimodal_on_validated_at_load(self, tmp_path, capsys):
        text = SMALL_CFG + "on = sideways\n"
        with pytest.raises(ValidationError,
                           match=r"\[simulation\] on must be 'displacement' "
                                 r"or 'velocity', got 'sideways'"):
            parse_config(text)
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        assert "[simulation] on must be" in capsys.readouterr().err
        assert not out.exists()

    def test_duplicate_key_rejected(self):
        text = SMALL_CFG.replace("n = 4", "n = 4\nn = 8")
        with pytest.raises(ValidationError, match="duplicate key 'n'"):
            parse_config(text)

    def test_hash_inside_quoted_value_kept(self, tmp_path):
        mesh_dir = tmp_path / "run#1"
        mesh_dir.mkdir()
        save_mesh(generate_structured_square(2, 1.0), mesh_dir / "plate.mesh")
        text = SMALL_CFG.replace(
            "kind = structured\nn = 4\nside = 1.0\npattern = crossed",
            'kind = file\npath = "run#1/plate.mesh"  # a # after the quotes')
        cfg = load_config(write_cfg(tmp_path, text))
        assert cfg.mesh_path == tmp_path / "run#1" / "plate.mesh"
        # single quotes too, and an unquoted value still ends at '#'
        cfg = parse_config(text.replace('"run#1/plate.mesh"', "'run#1/plate.mesh'")
                           .replace("n_mech = 4", "n_mech = 3 # three"),
                           base_dir=tmp_path)
        assert cfg.mesh_path == tmp_path / "run#1" / "plate.mesh"
        assert cfg.n_mech == 3

    def test_bad_syntax_line_number(self):
        with pytest.raises(ValidationError, match=":2"):
            parse_config("[mesh]\nthis is not a key value line\n")

    def test_simulation_mode_outside_retained(self):
        text = SMALL_CFG.replace("family = mechanical\nmode = 1",
                                 "family = electric\nmode = 5")
        with pytest.raises(ValidationError,
                           match="mode 5 exceeds the 4 retained electric"):
            parse_config(text)

    def test_empty_tuning_section_uses_defaults(self):
        text = SMALL_CFG.replace("[tuning]\nmech_mode = 1\nelec_mode = 1\n",
                                 "[tuning]\n")
        cfg = parse_config(text)
        assert (cfg.tune_mech, cfg.tune_elec) == (1, 1)

    @pytest.mark.parametrize("keys, missing", [("", "r_lo"),
                                               ("r_lo = 0.02\n", "r_hi")],
                             ids=["empty", "no-r_hi"])
    def test_search_section_needs_bracket(self, tmp_path, capsys, keys,
                                          missing):
        cfg = write_cfg(tmp_path, SMALL_CFG + "\n[search]\n" + keys)
        out = tmp_path / "out"
        assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 1
        assert f"missing config field [search] {missing}" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_search_without_tuning_rejected(self, tmp_path, capsys):
        assert "[tuning]" not in UNTUNED_CFG
        with pytest.raises(ValidationError, match=r"\[search\].*\[tuning\]"):
            parse_config(UNTUNED_CFG + SEARCH)
        cfg = write_cfg(tmp_path, UNTUNED_CFG + SEARCH)
        out = tmp_path / "out"
        assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 1
        assert "[tuning]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("base, key, value, rule", [
        (SMALL_CFG, "amplitude", "0", "must be finite and nonzero"),
        (SMALL_CFG, "amplitude", "nan", "= 'nan' is not finite"),
        (IMPULSE_CFG, "magnitude", "0", "must be finite and nonzero"),
        (SMALL_CFG, "beats", "0", "must be finite and positive"),
        (SMALL_CFG, "beats", "-1", "must be finite and positive"),
    ], ids=["amplitude", "amplitude-nan", "magnitude", "beats-zero",
            "beats-negative"])
    def test_bad_simulation_value_exits_1_at_load(self, tmp_path, capsys,
                                                  base, key, value, rule):
        text = base.replace("beats = 2\n", "") + f"{key} = {value}\n"
        message = f"[simulation] {key} {rule}"
        with pytest.raises(ValidationError, match=re.escape(message)):
            parse_config(text)
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("section, key, value", [
        ("material", "rho", "nan"),
        ("material", "h", "nan"),
        ("network", "inductance", "inf"),
        ("network", "capacitance", "nan"),
        ("mesh", "side", "inf"),
    ])
    def test_non_finite_number_exits_1_before_assembly(
            self, tmp_path, capsys, monkeypatch, section, key, value):
        never_assemble(monkeypatch)
        text = re.sub(rf"(?m)^{key} = .*$", f"{key} = {value}", SMALL_CFG)
        assert f"{key} = {value}" in text
        out = tmp_path / "out"
        assert main(["modes", "--config", str(write_cfg(tmp_path, text)),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"config field [{section}] {key} = '{value}' is not finite" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["5.0", "-1.0", "1e-300"])
    def test_nonzero_network_resistance_exits_1_at_load(
            self, tmp_path, capsys, monkeypatch, value):
        # the run simulates the conservative network and the search scans
        # its own bracket, so a configured R_N would reach no output
        never_assemble(monkeypatch)
        text = SMALL_CFG.replace("[network]\n",
                                 f"[network]\nresistance = {value}\n") + SEARCH
        out = tmp_path / "out"
        assert main(["pipeline", "--config", str(write_cfg(tmp_path, text)),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"config field [network] resistance = '{value}'" in err
        assert "the simulation runs the conservative network" in err
        assert "[search] r_lo..r_hi" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0.0", "0", "-0.0"])
    def test_zero_network_resistance_is_valid(self, value):
        text = SMALL_CFG.replace("[network]\n",
                                 f"[network]\nresistance = {value}\n")
        assert parse_config(text).network == parse_config(SMALL_CFG).network

    @pytest.mark.parametrize("kind", ["directory", "non-utf8"])
    def test_unreadable_config_exits_1(self, tmp_path, capsys, monkeypatch,
                                       kind):
        never_assemble(monkeypatch)
        cfg = tmp_path / "run.cfg"
        if kind == "directory":
            cfg.mkdir()
        else:
            cfg.write_bytes(SMALL_CFG.encode() + b"# \xff\xfe latin-1\n")
        out = tmp_path / "out"
        assert main(["modes", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"error: config file {cfg} is unreadable" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_mesh_path_naming_a_directory_exits_1(self, tmp_path, capsys,
                                                  monkeypatch):
        never_assemble(monkeypatch)
        (tmp_path / "plate.mesh").mkdir()
        text = ("[mesh]\nkind = file\npath = plate.mesh\n"
                "[bc]\ngroup = boundary\nkind = clamped+grounded\n")
        out = tmp_path / "out"
        assert main(["modes", "--config", str(write_cfg(tmp_path, text)),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"mesh file {tmp_path / 'plate.mesh'} is unreadable" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestCommands:
    def test_modes_command_csv(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_CFG)
        out = tmp_path / "out"
        assert main(["modes", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "modes.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[:4] == ["index", "omega", "omega_normalized",
                              "classification"]
        assert "analytic_normalized" in header
        assert len(lines) == 1 + 8
        # mechanical rows carry the analytic ratios 1, 2.5, 2.5, 4
        mech_rows = [l.split(",") for l in lines[1:] if "mechanical" in l]
        ratios = [float(r[4]) for r in mech_rows]
        assert ratios == [1.0, 2.5, 2.5, 4.0]

    def test_modes_catalog_missed_on_lshape(self, tmp_path, capsys):
        text = ("[mesh]\nkind = file\npath = builtin:l_shape.mesh\n"
                "[material]\ng_me = 0.1 0.1 0.0\n[network]\ninductance = 1.0\n"
                "[bc]\ngroup = boundary\nkind = clamped+grounded\n"
                "[modal]\nn_mech = 3\nn_elec = 3\n")
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        assert main(["modes", "--config", str(cfg), "--out", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "analytical columns omitted" in captured
        header = (out / "modes.csv").read_text().splitlines()[0]
        assert "analytic_normalized" not in header

    def test_overflowing_material_exits_2_at_assembly(self, tmp_path, capsys):
        text = SMALL_CFG.replace("rigidity = 1.0", "rigidity = 1e306")
        assert main(["modes", "--config", str(write_cfg(tmp_path, text)),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "[stage assembly] non-finite K0 entries" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, code", [
        ("modes", 0), ("coupling", 2), ("tune", 2), ("pipeline", 2)])
    def test_overflowing_k1_fails_only_the_stages_that_read_it(
            self, tmp_path, capsys, command, code):
        # g_me = 1e307 overflows K1 alone: the modal analysis never sums
        # it, and each stage that reads it fails at the assembly stage
        # (tune and pipeline on the tuned network, whose C scales with L_N)
        text = SMALL_CFG.replace("g_me = 0.1 0.1 0.0", "g_me = 1e307 1e307 0.0")
        out = tmp_path / "out"
        assert main([command, "--config", str(write_cfg(tmp_path, text)),
                     "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if code:
            assert ("[stage assembly] non-finite K1 entries: the material's "
                    "magnitudes (max |S| = 0, max |V| = 1e+307, max |C| = "
                    ) in err
            assert not out.exists()
        else:
            assert (out / "modes.csv").is_file()

    @pytest.mark.parametrize("key, count, dense_limit, most", [
        # the n = 4 crossed square has 107 bending and 25 electric free DOFs;
        # a dense solve gives them all, a sparse one one fewer
        ("n_mech", 108, modal._DENSE_LIMIT, 107),
        ("n_elec", 25, 10, 24),
    ], ids=["mechanical-dense", "electric-sparse"])
    def test_mode_count_the_family_cannot_give_exits_1_before_assembly(
            self, tmp_path, capsys, monkeypatch, key, count, dense_limit,
            most):
        never_plan(monkeypatch)
        never_assemble(monkeypatch)
        monkeypatch.setattr(modal, "_DENSE_LIMIT", dense_limit)
        text = SMALL_CFG.replace(f"{key} = 4", f"{key} = {count}")
        out = tmp_path / "out"
        assert main(["modes", "--config", str(write_cfg(tmp_path, text)),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert (f"[stage mesh] config field [modal] {key} must be at most "
                f"{most} on this mesh, got {count}") in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command, text, code, message", [
        ("modes", SMALL_CFG.replace("h = 0.001", "h = 1e300"), 1,
         "config fields [material] h = 1e+300 and rho = 500"),
        ("modes", SMALL_CFG.replace("rho = 500.0", "rho = 1e-300"), 2,
         "[stage modal] mechanical family solve: the dense eigensolve "
         "returned 0 of the 4 lowest eigenpairs"),
        ("simulate", SMALL_CFG.replace("mode = 1\nbeats", "mode = 1\n"
                                       "amplitude = 1e-300\nbeats"), 1,
         "config field [simulation] amplitude = 1e-300 gives the initial "
         "energy E_0 = 0"),
        ("simulate", SMALL_CFG.replace("mode = 1\nbeats", "mode = 1\n"
                                       "amplitude = 1e300\nbeats"), 1,
         "config field [simulation] amplitude = 1e+300 gives the initial "
         "energy E_0 = inf"),
        ("simulate", IMPULSE_CFG.replace("0.6 0.6", "0.6 0.6\nmagnitude = 1e300"),
         1, "config field [simulation] magnitude = 1e+300"),
        ("modes", SMALL_CFG.replace("side = 1.0", "side = 1e300"), 1,
         "[stage mesh] config field [mesh] side = 1e+300: the nodes span "
         "1e+300 x 1e+300"),
        # the generator's first array, 8e16 bytes, exceeds any 64-bit
        # address space, so it fails at once
        ("modes", SMALL_CFG.replace("\nn = 4\n", "\nn = 100000000\n"), 1,
         "[stage mesh] config field [mesh] n = 100000000 is too large: "),
    ], ids=["h=1e300", "rho=1e-300", "amplitude=1e-300", "amplitude=1e300",
            "magnitude=1e300", "side=1e300", "n=1e8"])
    def test_extreme_finite_values_fail_cleanly(self, tmp_path, capsys,
                                                command, text, code, message):
        # each once gave a traceback, a nan summary or a misplaced blame;
        # a RuntimeWarning on the way is an error under this suite
        out = tmp_path / "out"
        assert main([command, "--config", str(write_cfg(tmp_path, text)),
                     "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_failed_run_removes_the_files_it_wrote(self, tmp_path, capsys):
        # the pipeline writes modes.csv and coupling.csv before the
        # simulation finds E_0 = 0
        text = SMALL_CFG.replace("mode = 1\nbeats", "mode = 1\n"
                                 "amplitude = 1e-300\nbeats")
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "runs" / "out"
        assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 1
        assert "amplitude = 1e-300" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()
        # files that were there before the run stay
        out.mkdir(parents=True)
        (out / "notes.txt").write_text("kept")
        assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 1
        assert [p.name for p in out.iterdir()] == ["notes.txt"]

    def test_validation_error_exit_code(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL_CFG.replace("n = 4", "n = 0"))
        assert main(["modes", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert "error" in capsys.readouterr().err

    def test_non_conforming_file_mesh_exits_1(self, tmp_path, capsys):
        # edge (0, 1) borders two triangles above it and one below
        (tmp_path / "plate.mesh").write_text(
            "nodes 5 triangles 3 groups 1\n0 0\n1 0\n0.5 1\n0.5 -1\n0.5 2\n"
            "0 1 2\n1 0 3\n0 1 4\ngroup boundary\n0 1 2 3 4\n")
        text = ("[mesh]\nkind = file\npath = plate.mesh\n"
                "[bc]\ngroup = boundary\nkind = clamped+grounded\n")
        cfg = write_cfg(tmp_path, text)
        assert main(["modes", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "edge (0, 1) is shared by 3 triangles" in err
        assert "Traceback" not in err

    def test_nan_mesh_node_exits_1_before_assembly(self, tmp_path, capsys,
                                                   monkeypatch):
        never_assemble(monkeypatch)
        mesh = tmp_path / "plate.mesh"
        mesh.write_text(
            "nodes 4 triangles 2 groups 1\n0 0\n1 0\nnan 0.5\n0 1\n"
            "0 1 2\n0 2 3\ngroup boundary\n0 1 2 3\n")
        text = ("[mesh]\nkind = file\npath = plate.mesh\n"
                "[bc]\ngroup = boundary\nkind = clamped+grounded\n")
        out = tmp_path / "out"
        assert main(["modes", "--config", str(write_cfg(tmp_path, text)),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"[stage mesh] {mesh}: node 2 has a non-finite coordinate" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("body, message", [
        ("nodes 0 triangles 0 groups 1\ngroup boundary\n",
         ": mesh has no triangles"),
        ("nodes 3 triangles 1 groups 1\n0 0\n1 0\n0 1\n"
         "0 1 99999999999999999999999\ngroup boundary\n0 1 2\n",
         ":5: triangle 0 references node 99999999999999999999999 of 3"),
    ], ids=["empty", "oversized-index"])
    def test_bad_mesh_file_exits_1_naming_it(self, tmp_path, capsys,
                                             monkeypatch, body, message):
        never_assemble(monkeypatch)
        mesh = tmp_path / "plate.mesh"
        mesh.write_text(body)
        text = ("[mesh]\nkind = file\npath = plate.mesh\n"
                "[bc]\ngroup = boundary\nkind = clamped+grounded\n")
        out = tmp_path / "out"
        assert main(["modes", "--config", str(write_cfg(tmp_path, text)),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"[stage mesh] {mesh}{message}" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_negative_mesh_count_exits_1_before_assembly(self, tmp_path, capsys,
                                                         monkeypatch):
        never_assemble(monkeypatch)
        mesh = tmp_path / "plate.mesh"
        mesh.write_text("nodes -1 triangles 0 groups 0\n")
        text = ("[mesh]\nkind = file\npath = plate.mesh\n"
                "[bc]\ngroup = boundary\nkind = clamped+grounded\n")
        out = tmp_path / "out"
        assert main(["modes", "--config", str(write_cfg(tmp_path, text)),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"[stage mesh] {mesh}:1: negative count in header" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_out_naming_a_file_exits_1_before_assembly(self, tmp_path, capsys,
                                                       monkeypatch):
        never_assemble(monkeypatch)
        out = tmp_path / "afile"
        out.write_text("")
        assert main(["modes", "--preset", "paper-square", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"error: --out {out}" in err
        assert "Traceback" not in err
        assert out.read_text() == ""

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_impulse_point_off_mesh_exits_1_before_assembly(
            self, tmp_path, capsys, monkeypatch, command):
        never_assemble(monkeypatch)
        text = DEMO_CFG.replace("point = 0.6 0.6", "point = 5 5")
        out = tmp_path / "runs" / "out"
        assert main([command, "--config", str(write_cfg(tmp_path, text)),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "[stage mesh]" in err
        assert "[simulation] point 5 5 lies outside the mesh" in err
        assert not (tmp_path / "runs").exists()

    def test_unknown_bc_group_exits_1_at_the_mesh_stage(self, tmp_path, capsys,
                                                         monkeypatch):
        never_plan(monkeypatch)
        never_assemble(monkeypatch)
        text = SMALL_CFG.replace("group = boundary", "group = nosuch")
        out = tmp_path / "out"
        assert main(["modes", "--config", str(write_cfg(tmp_path, text)),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert ("[stage mesh] config field [bc] group: boundary condition "
                "references unknown edge group 'nosuch' (the mesh's groups: "
                "'boundary')") in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_folded_mesh_file_exits_1_at_the_mesh_stage(self, tmp_path, capsys,
                                                        monkeypatch):
        # node 30, the centre of cell (1, 1), moved across the cell's right
        # side: load_mesh turns the clockwise triangle round, and the plate
        # would read an area of 1.025
        never_assemble(monkeypatch)
        path = tmp_path / "plate.mesh"
        save_mesh(generate_structured_square(4), path)
        lines = path.read_text().splitlines()
        assert lines[31] == "0.375 0.375"  # node 30, after the header
        lines[31] = "0.6 0.375"
        path.write_text("\n".join(lines) + "\n")
        text = SMALL_CFG.replace("kind = structured\nn = 4\nside = 1.0\n"
                                 "pattern = crossed", "kind = file\npath = "
                                 "plate.mesh")
        out = tmp_path / "out"
        assert main(["modes", "--config", str(write_cfg(tmp_path, text)),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert (f"[stage mesh] {path}: edge (7, 30) runs the same way in two "
                "triangles: the mesh folds over itself") in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_patch_test_exit_codes(self, capsys):
        assert main(["patch-test"]) == 0
        assert "PASSED" in capsys.readouterr().out
        assert main(["patch-test", "--corrupt-mu"]) == 2
        assert "FAILED" in capsys.readouterr().out

    def test_simulate_csv_columns(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_CFG)
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        header = (out / "trajectory.csv").read_text().splitlines()[0].split(",")
        assert header[0] == "t"
        assert header[1:9] == [f"z_{k}" for k in range(1, 9)]
        assert header[-3:] == ["E_mech", "E_elec", "E_total"]

    def test_coupling_zero_when_uncoupled(self, tmp_path):
        text = SMALL_CFG.replace("g_me = 0.1 0.1 0.0", "g_me = 0 0 0")
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "coup"
        assert main(["coupling", "--config", str(cfg), "--out", str(out)]) == 0
        rows = (out / "coupling.csv").read_text().strip().splitlines()[1:]
        vals = [float(v) for r in rows for v in r.split(",")[1:]]
        assert all(v == 0.0 for v in vals)

    def test_tune_command(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL_CFG)
        out = tmp_path / "tune"
        assert main(["tune", "--config", str(cfg), "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "relative mismatch" in text
        mismatch = float(text.split("relative mismatch after retune:")[1].split()[0])
        assert mismatch <= 1e-6

    def test_pipeline_byte_determinism(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_CFG + "\n[search]\nr_lo = 0.02\nr_hi = 2.0\n")
        out1, out2 = tmp_path / "p1", tmp_path / "p2"
        assert main(["pipeline", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["pipeline", "--config", str(cfg), "--out", str(out2)]) == 0
        for name in ("modes.csv", "coupling.csv", "trajectory.csv",
                     "damping.csv", "trajectory_critical.csv",
                     "summary.txt", "manifest.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_help_does_not_crash(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "pipeline" in capsys.readouterr().out

    def test_float_precision_roundtrip(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_CFG)
        out = tmp_path / "prec"
        main(["modes", "--config", str(cfg), "--out", str(out)])
        rows = (out / "modes.csv").read_text().strip().splitlines()[1:]
        omega = float(rows[0].split(",")[1])
        # 17 significant digits reproduce the double exactly
        assert f"{omega:.17g}" == rows[0].split(",")[1]


def write_csv_reference(path, header, rows):
    """The former per-cell writer (ints as ``str``, floats as ``{:.17g}``):
    the oracle for ``write_csv``."""
    def fmt(x):
        return "{:.17g}".format(float(x)) if isinstance(x, float) else str(x)
    lines = [",".join(header)] + [",".join(fmt(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


class TestWriter:
    SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e20,
               1e-20, -1e20, -1e-20, float("inf"), float("-inf"), float("nan"),
               1.0, -3.0, 2.0 ** 53, 1e16, 0.1, 1.0 / 3.0, np.pi,
               1.7976931348623157e308]

    def test_array_writer_matches_per_cell_format(self, tmp_path):
        rng = np.random.default_rng(3)
        noise = rng.standard_normal(200) * 10.0 ** rng.integers(-300, 300, 200)
        values = np.concatenate([self.SPECIAL, noise]).reshape(-1, 4)
        # an integer first column, as the coupling tables' mode index
        rows = [[i + 1, *map(float, row)] for i, row in enumerate(values)]
        header = ["index", "a", "b", "c", "d"]
        write_csv_reference(tmp_path / "old.csv", header, rows)
        table = np.column_stack([np.arange(1, len(values) + 1), values])
        cli.write_csv(tmp_path / "table.csv", header, table)
        assert (tmp_path / "table.csv").read_bytes() == \
            (tmp_path / "old.csv").read_bytes()

    def test_text_cells_written_as_given(self, tmp_path):
        rows = [[1, 2.5, "mechanical", ""], [2, -0.0, "electric", 1e-20]]
        write_csv_reference(tmp_path / "old.csv", list("abcd"), rows)
        cells = np.array([[cli._fmt(v) for v in row] for row in rows])
        cli.write_csv(tmp_path / "new.csv", list("abcd"), cells)
        assert (tmp_path / "new.csv").read_bytes() == \
            (tmp_path / "old.csv").read_bytes()

    # values that only ``%`` formats: signed zeros, non-finite values and
    # magnitudes outside the scaled range (the test adds an exact tie)
    FALLBACK = [0.0, -0.0, float("inf"), float("-inf"), float("nan"), 1e-300,
                -1e300]

    @pytest.mark.parametrize("n_rows", [1, csvfmt.CHUNK - 1, csvfmt.CHUNK,
                                        csvfmt.CHUNK + 1, 3 * csvfmt.CHUNK + 7])
    def test_column_blocks_stream_the_percent_bytes(self, tmp_path, n_rows):
        # blocks as the reports pass them: an integer index, a strided view
        # of a state array, one-column traces; ``len`` is the row count
        rng = np.random.default_rng(n_rows)
        state = rng.standard_normal((n_rows, 6)) * 10.0 ** rng.integers(
            -8, 20, (n_rows, 6))
        fallback = np.array([*self.FALLBACK, self.exact_ties()[0]])
        assert csvfmt._scaled_digits(fallback, csvfmt._tables())[2].all()
        i = np.arange(len(fallback))
        state[i * 3 % n_rows, i % 4] = fallback  # in the columns written
        index = np.arange(1, n_rows + 1)
        energy = rng.random(n_rows)
        energy[-1] = fallback[-1]
        rows = csvfmt.Columns(index, state[:, :3], energy, state[:, 3])
        assert len(rows) == n_rows
        cli.write_csv(tmp_path / "t.csv", list("abcdef"), rows)
        table = np.column_stack([index, state[:, :3], energy, state[:, 3]])
        assert (tmp_path / "t.csv").read_bytes() == b"a,b,c,d,e,f\n" + \
            self.percent(table)

    def test_trajectory_table_is_written_a_chunk_at_a_time(self, tmp_path):
        # a 26k-step trajectory of 16 modes, read a chunk of states at a
        # time: a whole-table copy (4.3 MB) fails the bound; a chunk's
        # temporaries take ~270 B per cell
        rng = np.random.default_rng(5)
        steps, n = 26652, 16
        state = rng.standard_normal((steps + 1, 2 * n))
        traj = HeldTrajectory(t=1e-3 * np.arange(steps + 1), y=state)
        mech, elec = rng.random((2, steps + 1))
        en = dynamics.EnergyTraces(mech=mech, elec=elec, cross=0.0 * mech,
                                   total=mech + elec)
        cli._write_trajectory(tmp_path / "warm.csv", traj, en)  # the tables
        tracemalloc.start()
        try:
            cli._write_trajectory(tmp_path / "t.csv", traj, en)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n_cols = 1 + n + 3
        assert peak <= 3 * csvfmt.CHUNK * n_cols * 200

    @staticmethod
    def percent(table):
        """The oracle: every cell through CPython's ``%``."""
        return "".join(",".join("%.17g" % v for v in row) + "\n"
                       for row in table.tolist()).encode()

    def assert_formats_exactly(self, values, n_cols=4):
        values = np.asarray(values, dtype=np.float64)
        values = np.concatenate([values, np.zeros(-len(values) % n_cols)])
        table = values.reshape(-1, n_cols)
        assert b"".join(csvfmt.format_rows(table)) == self.percent(table)

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(11)
        bits = rng.integers(0, 2 ** 64, 120_000, dtype=np.uint64)
        self.assert_formats_exactly(bits.view(np.float64), n_cols=6)

    def test_powers_of_ten_and_their_neighbours(self):
        p = 10.0 ** np.arange(-300, 301)
        self.assert_formats_exactly(np.concatenate(
            [p, np.nextafter(p, 0), np.nextafter(p, np.inf), -p]))

    @staticmethod
    def exact_ties():
        """Odd m * 2**-k with exactly 18 significant digits, the last a 5:
        the 17-digit rounding is an exact tie."""
        rng = np.random.default_rng(12)
        ties = []
        for k in range(2, 25):
            lo, hi = -(-10 ** 17 // 5 ** k), min(10 ** 18 // 5 ** k, 2 ** 53)
            ties += [(m | 1) * 2.0 ** -k for m in rng.integers(lo, hi - 1, 30)]
        return np.array(ties)

    def test_exact_ties_round_half_even(self):
        ties = self.exact_ties()
        for v in ties:
            digits = str(Fraction(v).numerator * 10 ** 30
                         // Fraction(v).denominator).rstrip("0")
            assert len(digits.lstrip("0")) == 18 and digits[-1] == "5"
        self.assert_formats_exactly(np.concatenate([ties, -ties]))

    @pytest.mark.parametrize("error", [2.0 ** -47, -2.0 ** -47])
    def test_ties_take_percent_at_the_error_bound(self, monkeypatch, error):
        # the ties scale exactly; moved by the documented bound on the
        # scaling error, they must still reach ``%``, not be rounded
        scaled = csvfmt._scaled

        def off_by_the_bound(a, e, t):
            p, q = scaled(a, e, t)
            return p, q + error

        monkeypatch.setattr(csvfmt, "_scaled", off_by_the_bound)
        ties = self.exact_ties()
        self.assert_formats_exactly(np.concatenate([ties, -ties]))

    def test_integers_up_to_2_53(self):
        rng = np.random.default_rng(13)
        ints = np.concatenate([np.arange(0, 2000), 10 ** np.arange(16),
                               rng.integers(0, 2 ** 53, 4000),
                               [2 ** 53 - 1, 2 ** 53]])
        self.assert_formats_exactly(np.concatenate([ints, -ints]))

    def test_subnormals_zeros_and_non_finite(self):
        rng = np.random.default_rng(14)
        sub = rng.integers(1, 2 ** 52, 2000, dtype=np.uint64).view(np.float64)
        self.assert_formats_exactly(np.concatenate([
            sub, -sub, self.SPECIAL,
            [5e-324, np.nextafter(2.2250738585072014e-308, 0), -np.nan]]))

    @pytest.mark.parametrize("n_rows", [0, 1, csvfmt.CHUNK - 1, csvfmt.CHUNK,
                                        csvfmt.CHUNK + 1])
    def test_row_counts_around_the_chunk(self, tmp_path, n_rows):
        rng = np.random.default_rng(n_rows)
        table = rng.standard_normal((n_rows, 3)) * 10.0 ** rng.integers(
            -8, 20, (n_rows, 3))
        cli.write_csv(tmp_path / "t.csv", ["a", "b", "c"], table)
        assert (tmp_path / "t.csv").read_bytes() == b"a,b,c\n" + \
            self.percent(table)

    def test_every_notation_class(self):
        # 1..17 significant digits at every fixed-notation exponent
        # X = -4..16 and at exponential ones, also with short binary
        # fractions; the oracle's cells must cover each class with and
        # without fraction digits (X < 0 has them always, X = 16 never)
        digits = "12345678901234567"
        exps = [*range(-4, 17), -5, 17, -99, 100, -279, 279]
        values = [float(f"{digits[:n]}e{x - n + 1}") for x in exps
                  for n in range(1, 18)]
        values += [m * 10.0 ** x for x in exps for m in (1.0, 1.5, 2.25, 9.875)]
        cells = self.percent(np.array([values])).decode().strip().split(",")
        seen = {("e" if "e" in c else Decimal(c).adjusted(), "." in c)
                for c in cells}
        assert seen >= {*((x, True) for x in [*range(-4, 16), "e"]),
                        *((x, False) for x in [*range(0, 17), "e"])}
        self.assert_formats_exactly(values + [-v for v in values])

    def test_power_table_is_correctly_rounded(self):
        # 10**(16 - e) = hi + lo: hi correctly rounded, lo the correctly
        # rounded remainder, and hi's Veltkamp halves exact and 26 bits each
        hi, hi_high, hi_low, lo = csvfmt._tables().scale
        for e, h, hh, hl, l in zip(range(csvfmt._E_MIN, csvfmt._E_MAX + 1),
                                   hi, hi_high, hi_low, lo):
            power = Fraction(10) ** (16 - e)
            assert abs(Fraction(h) - power) <= abs(Fraction(np.spacing(h))) / 2, e
            rest = power - Fraction(h)
            assert abs(Fraction(l) - rest) <= abs(Fraction(np.spacing(l))) / 2, e
            assert hh + hl == h, e
            for half in (hh, hl):
                assert (math.frexp(half)[0] * 2 ** 26).is_integer(), e

    def test_power_table_matches_a_fraction_oracle(self):
        # hi and lo bit for bit as float() rounds the exact rationals
        hi, _, _, lo = csvfmt._tables().scale
        power = [Fraction(10) ** (16 - e)
                 for e in range(csvfmt._E_MIN, csvfmt._E_MAX + 1)]
        want_hi = np.array([float(p) for p in power])
        want_lo = np.array([float(p - Fraction(h))
                            for p, h in zip(power, want_hi.tolist())])
        assert hi.tobytes() == want_hi.tobytes()
        assert lo.tobytes() == want_lo.tobytes()

    def test_only_zeros_reach_percent(self, tmp_path, monkeypatch):
        # the double-double scaling settles every digit of a trajectory;
        # ``%`` is left the values it alone can format
        class CountingFormat(str):
            def __mod__(self, value):
                calls.append(value)
                return str.__mod__(self, value)

        calls = []
        monkeypatch.setattr(csvfmt, "FMT", CountingFormat("%.17g"))
        traj, en = cli.Run(load_config(write_cfg(tmp_path, IMPULSE_CFG))).simulation()
        traj = held(traj)
        table = np.column_stack([traj.t, traj.z, en.mech, en.elec, en.total])
        assert table.size > 10_000
        assert b"".join(csvfmt.format_rows(table)) == self.percent(table)
        assert len(calls) == np.count_nonzero(table == 0)
        assert set(calls) == {0.0}

    def test_trajectory_reads_back_exactly(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_CFG)
        out = run_cli("simulate", cfg, tmp_path / "sim")
        traj, en = cli.Run(load_config(cfg)).simulation()
        traj = held(traj)
        lines = (out / "trajectory.csv").read_text().splitlines()
        table = np.array([[float(v) for v in line.split(",")]
                          for line in lines[1:]])
        n = traj.z.shape[1]
        assert np.array_equal(table[:, 0], traj.t)
        assert np.array_equal(table[:, 1:n + 1], traj.z)
        assert np.array_equal(table[:, n + 1:],
                              np.column_stack([en.mech, en.elec, en.total]))


# the collector's state after importing pemplate.cli, and whether the
# import loaded fractions or decimal
GC_AFTER_IMPORT = """
import gc, sys
{before}
import pemplate.cli
print(gc.isenabled(), gc.get_freeze_count() > 0,
      "fractions" in sys.modules, "decimal" in sys.modules)
"""


@pytest.mark.parametrize("before, enabled", [("", "True"),
                                             ("gc.disable()", "False")])
def test_import_freezes_what_is_alive(before, enabled):
    # numpy's and scipy's objects leave the collector's reach, which is
    # left enabled or disabled as the importer had it
    out = run_child(GC_AFTER_IMPORT.format(before=before)).split()
    assert out == [enabled, "True", "False", "False"]


# whether a fresh import of pemplate.cli, and then a whole pipeline run,
# executes the numpy submodules it defers (the two modules named cost most);
# then each deferred submodule is the real one on first use
DEFERRED = """
import sys
import pemplate.cli
import numpy as np
NAMES = ["numpy.f2py.crackfortran", "numpy.testing._private.utils"]
print(*[name in sys.modules for name in NAMES])
assert pemplate.cli.main(["pipeline", "--config", {cfg!r},
                          "--out", {out!r}]) == 0
print(*[name in sys.modules for name in NAMES])
np.testing.assert_array_equal(np.arange(3), [0, 1, 2])
assert np.polynomial.Polynomial([1, 2])(3) == 7
assert np.char.upper("ab") == "AB" and np.strings.lower("AB") == "ab"
assert np.rec.fromarrays([[1, 2]], names="a").a.tolist() == [1, 2]
assert np.ctypeslib.as_array(np.ctypeslib.as_ctypes(np.ones(2))).sum() == 2
import numpy.f2py
assert callable(numpy.f2py.run_main)
print("used")
"""

# a submodule imported before pemplate.cli is left as it was
IMPORTED_BEFORE = """
import sys
import numpy.testing, numpy.polynomial
before = numpy.testing, numpy.polynomial, sys.modules["numpy.testing"]
import pemplate.cli, numpy
print(before == (numpy.testing, numpy.polynomial, sys.modules["numpy.testing"]),
      type(numpy.testing) is type(sys))
"""


def test_import_defers_unused_numpy_submodules(tmp_path):
    # scipy's array-API shim touches every lazily exposed numpy submodule;
    # pemplate.cli leaves those no run uses unexecuted, run or no run
    tiny = Path(__file__).resolve().parents[1] / "benchmarks/tests/tiny.cfg"
    lines = run_child(DEFERRED.format(
        cfg=str(tiny), out=str(tmp_path / "out"))).splitlines()
    assert lines[0] == lines[-2] == "False False"
    assert lines[-3].startswith("pipeline outputs in")
    assert lines[-1] == "used"


def test_numpy_submodules_imported_before_are_kept():
    assert run_child(IMPORTED_BEFORE).split() == ["True", "True"]


def run_cli(command, cfg, out):
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_every_run_explains_itself(tmp_path, capsys, command):
    cfg = write_cfg(tmp_path, SMALL_CFG + SEARCH)
    out = run_cli(command, cfg, tmp_path / command)
    lines = (out / "summary.txt").read_text().splitlines()
    assert (out / "manifest.json").is_file()
    assert capsys.readouterr().out.splitlines() == \
        [*lines, f"{command} outputs in {out}"]


def test_manifest_records_the_package_version(tmp_path):
    # the version comes from the package itself, installed or not
    out = run_cli("modes", write_cfg(tmp_path, SMALL_CFG), tmp_path / "modes")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["package"] == pemplate.__version__


@pytest.mark.parametrize("command, text, section", [
    ("tune", UNTUNED_CFG, "tuning"), ("optimize-r", SMALL_CFG, "search")])
def test_report_needs_its_section(tmp_path, capsys, command, text, section):
    out = tmp_path / "out"
    assert main([command, "--config", str(write_cfg(tmp_path, text)),
                 "--out", str(out)]) == 1
    assert f"config has no [{section}] section" in capsys.readouterr().err
    assert not out.exists()


class TestStageGraph:
    def test_subcommands_match_pipeline_files(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_CFG + SEARCH)
        pipe = run_cli("pipeline", cfg, tmp_path / "pipeline")
        for command, names in (
            ("tune", {"modes_tuned.csv": "modes.csv"}),
            ("simulate", {"trajectory.csv": "trajectory.csv"}),
            ("optimize-r", {"damping.csv": "damping.csv",
                            **{f"trajectory_{regime}.csv": f"trajectory_{regime}.csv"
                               for regime in ("sub_critical", "critical",
                                              "super_critical")}}),
        ):
            out = run_cli(command, cfg, tmp_path / command)
            for name, pipe_name in names.items():
                assert (out / name).read_bytes() == (pipe / pipe_name).read_bytes()

    def test_pipeline_assembles_and_solves_each_network_once(
            self, tmp_path, monkeypatch):
        counts = {"assemble": 0, "solve_family_modes": 0, "build_dof_map": 0,
                  "scatter_plan": 0}

        def counted(name):
            fn = getattr(cli, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(cli, name, wrapper)

        for name in counts:
            counted(name)
        # assemble builds its own DOF map and plan when it is given no plan
        for name in ("build_dof_map", "scatter_plan"):
            monkeypatch.setattr(assembly, name, getattr(cli, name))
        # the networks whose K1 is summed
        first_order = []
        sum_matrices = assembly._sum_matrices

        def summing(plan, mat, names):
            if "k1" in names:
                first_order.append(mat.network)
            return sum_matrices(plan, mat, names)

        monkeypatch.setattr(assembly, "_sum_matrices", summing)
        cfg = write_cfg(tmp_path, SMALL_CFG + SEARCH)
        out = run_cli("pipeline", cfg, tmp_path / "out")
        # the untuned and the tuned conservative systems (the search scales
        # R_N into the tuned one's reduction), both from the mesh stage's
        # one DOF map and scatter plan; one mechanical family for every
        # network, one electric family each
        assert counts == {"assemble": 2, "solve_family_modes": 3,
                          "build_dof_map": 1, "scatter_plan": 1}
        # K1 only for the tuned network, whose coupling and reduction read it
        tuned = float((out / "summary.txt").read_text().split(
            "tuned L_N: ")[1].split(" -> ")[1].split()[0])
        assert [net.inductance for net in first_order] == [tuned]
        # the modal analysis reads no K1
        first_order.clear()
        run_cli("modes", cfg, tmp_path / "modes")
        assert first_order == []

    def test_pipeline_with_conductance_assembles_only_conservative_networks(
            self, tmp_path, monkeypatch):
        assembled = []
        assemble = cli.assemble

        def recording(mesh, mat, *args, **kwargs):
            assembled.append(mat.network)
            return assemble(mesh, mat, *args, **kwargs)

        monkeypatch.setattr(cli, "assemble", recording)
        text = SMALL_CFG.replace("capacitance = 1.0",
                                 "capacitance = 1.0\nconductance = 0.3")
        out = run_cli("pipeline", write_cfg(tmp_path, text + SEARCH),
                      tmp_path / "out")
        # G_N, like R_N, only scales blocks of the conservative reduction
        assert [(n.resistance, n.conductance) for n in assembled] == \
            [(0.0, 0.0), (0.0, 0.0)]
        assert assembled[0].inductance != assembled[1].inductance
        assert "optimal resistance R*" in (out / "summary.txt").read_text()
        # and the search still sees G_N
        plain = run_cli("optimize-r", write_cfg(tmp_path, SMALL_CFG + SEARCH,
                                                "plain.cfg"), tmp_path / "plain")
        assert ((plain / "damping.csv").read_bytes()
                != (out / "damping.csv").read_bytes())

    def test_electric_simulation_reports_electric_energy(self, tmp_path,
                                                         capsys):
        text = SMALL_CFG.replace("family = mechanical", "family = electric")
        cfg = write_cfg(tmp_path, text)
        out = run_cli("pipeline", cfg, tmp_path / "pipeline")
        line, = [l for l in (out / "summary.txt").read_text().splitlines()
                 if l.startswith("simulation:")]
        assert "min E_elec/E_0" in line
        assert np.isfinite(float(line.rsplit(" ", 1)[1]))
        capsys.readouterr()
        run_cli("simulate", cfg, tmp_path / "sim")
        assert line in capsys.readouterr().out.splitlines()

    def test_pipeline_search_drives_tuned_mechanical_mode(self, tmp_path):
        # the simulation drives an electric mode; the search still damps the
        # tuned mechanical/electric pair, as optimize-r does
        text = SMALL_CFG.replace("family = mechanical", "family = electric")
        cfg = write_cfg(tmp_path, text + SEARCH)
        pipe = run_cli("pipeline", cfg, tmp_path / "pipeline")
        opt = run_cli("optimize-r", cfg, tmp_path / "opt")
        assert (pipe / "damping.csv").read_bytes() == \
            (opt / "damping.csv").read_bytes()

    def test_pipeline_zero_coupling_fails_cleanly(self, tmp_path, capsys):
        text = SMALL_CFG.replace("g_me = 0.1 0.1 0.0", "g_me = 0 0 0")
        cfg = write_cfg(tmp_path, text + SEARCH)
        assert main(["pipeline", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert ("config fields [tuning] mech_mode = 1 and elec_mode = 1: zero "
                "electromechanical coupling: nothing to damp (the coupling "
                "comes from [material] g_me, [network] capacitance and "
                "[material] g_ee)") in err
        assert "Traceback" not in err

    @pytest.mark.filterwarnings("ignore:damping ratio not single-peaked")
    def test_unconverged_optimum_exits_2(self, tmp_path, capsys, monkeypatch):
        # one drive period holds two energy peaks, and nothing extends it, so
        # no fit converges and R* would be the bracket's first sample
        cfg = write_cfg(tmp_path, SMALL_CFG + SEARCH)
        run = cli.Run(load_config(cfg))
        basis, rs = run.basis(), run.reduced(run.network())
        drive = basis.mechanical_indices()[0]
        partner = basis.electric_indices()[0]
        period = 2 * math.pi / basis.omegas[drive]
        monkeypatch.setattr(dynamics, "SEARCH_BEATS",
                            period / dynamics.beat_period(rs, drive, partner))
        monkeypatch.setattr(dynamics, "MAX_EXTENSIONS", 0)
        assert main(["optimize-r", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert "[stage resistance-search]" in captured.err
        assert "did not converge at R* = " in captured.err
        assert "optimal resistance" not in captured.out

    def test_impulse_on_clamped_corner_exits_1(self, tmp_path, capsys):
        # every DOF the corner impulse loads is constrained, so z'(0) = 0
        text = IMPULSE_CFG.replace("point = 0.6 0.6", "point = 0.0 0.0")
        text = text.replace("simply_supported+grounded", "clamped+grounded")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(write_cfg(tmp_path, text)),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "[stage simulation]" in err and "[simulation] point" in err
        assert not out.exists()

    def test_unallocatable_simulation_exits_2(self, tmp_path, capsys):
        # a horizon of 1e15 beat periods needs ~3e18 steps
        cfg = write_cfg(tmp_path, UNTUNED_CFG.replace(
            "beats = 2\n", "beats = 1e15\n"))
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "[stage simulation]" in err and "t_f" in err

    def test_unallocatable_energy_traces_exit_2(self, tmp_path, capsys,
                                                monkeypatch):
        # 2**52 output times, held as one broadcast zero: the four energy
        # traces would take 2**57 bytes, more than any address space
        integrate = dynamics.integrate

        def endless(*args):
            traj = integrate(*args)
            return dynamics.Trajectory(np.broadcast_to(0.0, (2**52,)),
                                       traj.y0, traj.increments)

        monkeypatch.setattr(dynamics, "integrate", endless)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(write_cfg(tmp_path, SMALL_CFG)),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert ("[stage simulation] cannot allocate the energy traces of "
                f"{2**52 - 1} steps") in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["structured", "file"])
    def test_unallocatable_scatter_plan_exits_1(self, tmp_path, capsys,
                                                monkeypatch, kind):
        def fail(*args):
            raise MemoryError("Unable to allocate 1.00 TiB")

        monkeypatch.setattr(cli, "scatter_plan", fail)
        never_assemble(monkeypatch)
        text, size = SMALL_CFG, "config field [mesh] n = 4"
        if kind == "file":
            mesh = tmp_path / "plate.mesh"
            save_mesh(generate_structured_square(4), mesh)
            text = SMALL_CFG.replace("kind = structured\nn = 4\nside = 1.0\n"
                                     "pattern = crossed",
                                     "kind = file\npath = plate.mesh")
            size = f"mesh file {mesh}"
        out = tmp_path / "out"
        assert main(["modes", "--config", str(write_cfg(tmp_path, text)),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert (f"[stage mesh] {size} is too large: its scatter plan cannot "
                "be allocated (Unable to allocate 1.00 TiB)") in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_chosen_unstable_step_exits_2(self, tmp_path, capsys,
                                          monkeypatch):
        monkeypatch.setattr(dynamics, "default_horizon",
                            lambda *args: (10.0, 1.0))
        cfg = write_cfg(tmp_path, SMALL_CFG)
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "[stage simulation] the RK4 step dt = 1 lies outside" in err
        assert "config field" not in err

    def test_state_overflowing_in_the_table_write_exits_2(
            self, tmp_path, capsys, monkeypatch):
        # with the step check off, a step 3.2 / max |lambda| grows the
        # highest mode ~3.8x a step: its state overflows partway through
        # trajectory.csv, in the pass that also fills the energy traces
        run = cli.Run(load_config(write_cfg(tmp_path, SMALL_CFG)))
        rs = run.reduced(run.network())
        dt = 3.2 / np.abs(np.linalg.eigvals(dynamics._rate_matrix(rs))).max()
        monkeypatch.setattr(dynamics, "_check_step", lambda *args: None)
        monkeypatch.setattr(dynamics, "default_horizon",
                            lambda *args: (3000 * dt, dt))
        with pytest.raises(IntegrationError) as want:
            oracle.integrate(rs, dynamics.unimodal_ic(
                rs, run.basis().mechanical_indices()[0]), 3000 * dt, dt)
        step = int(re.search(r"at step (\d+) ", str(want.value)).group(1))
        assert csvfmt.CHUNK < step < 3000  # after the table's first chunk
        failed = []
        write_csv = cli.write_csv

        def recording(path, *args):
            try:
                write_csv(path, *args)
            except IntegrationError:
                failed.append(path.name)
                raise

        monkeypatch.setattr(cli, "write_csv", recording)
        # into a new directory, and into one holding an earlier run's table
        kept = tmp_path / "kept"
        kept.mkdir()
        (kept / "trajectory.csv").write_text("t\n0\n")
        for out in (tmp_path / "new" / "out", kept):
            assert main(["simulate", "--config", str(tmp_path / "run.cfg"),
                         "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert f"numerical failure: [stage simulation] {want.value}" in err
            assert "Traceback" not in err
        assert failed == ["trajectory.csv"] * 2
        assert not (tmp_path / "new").exists()
        assert list(kept.iterdir()) == []  # no half-written table

    @pytest.mark.filterwarnings("ignore:damping ratio not single-peaked")
    def test_search_steps_a_stiff_candidate_stably(self, tmp_path):
        # at rho = 0.5 tuning sets L_N ~ 5e-5, so R_N = 5 adds a rate ~150x
        # the drive's omega: one drive period / 60 leaves RK4's stability
        # region there, and the candidate's own step does not
        text = SMALL_CFG.replace("rho = 500.0", "rho = 0.5")
        cfg = write_cfg(tmp_path,
                        text + "\n[search]\nr_lo = 0.005\nr_hi = 5.0\n")
        run = cli.Run(load_config(cfg))
        basis, rs = run.basis(), run.reduced(run.network())
        drive = basis.mechanical_indices()[0]
        partner = basis.electric_indices()[0]
        evaluate = dynamics.damping_evaluator(
            dynamics.resistance_family(rs, run.system(run.network()).material,
                                       0.0), basis, drive, partner)
        stiff, dt = evaluate.step(5.0)
        share = 2 * math.pi / basis.omegas[drive] / 60
        assert dt < share
        ic = dynamics.unimodal_ic(stiff, drive)
        with pytest.raises(StepStabilityError):
            dynamics.integrate(stiff, ic, 100 * share, share)
        dynamics.integrate(stiff, ic, 100 * dt, dt)
        out = run_cli("optimize-r", cfg, tmp_path / "out")
        assert "optimal resistance R*" in (out / "summary.txt").read_text()

    @pytest.mark.parametrize("key, value, end, named", [
        ("r_hi", "1e5", "r_hi", "100000"),
        # R_N / L_N overflows: no step is stable
        ("r_hi", "1e307", "r_hi", "1e+307"),
        ("rigidity", "1e5", "r_hi", "2"),
        ("capacitance", "1e5", "r_lo", "0.02"),
    ])
    def test_too_stiff_bracket_exits_1_naming_its_end(self, tmp_path, capsys,
                                                      key, value, end, named):
        # the rate R_N / L_N grows with R_N, and with 1 / L_N: a stiffer
        # plate (higher omega) or a larger capacitance tunes L_N down
        text = re.sub(rf"(?m)^{key} = .*$", f"{key} = {value}",
                      SMALL_CFG + SEARCH)
        assert f"{key} = {value}" in text
        out = tmp_path / "out"
        assert main(["optimize-r", "--config", str(write_cfg(tmp_path, text)),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert (f"[stage resistance-search] config field [search] {end} = "
                f"{named}: at R_N = {named} a stable RK4 step is ") in err
        assert "times finer than the drive period / 60" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_untuned_drive_runs_twenty_periods(self, tmp_path):
        # untuned, the driven mode's nearest electric mode does not couple to
        # it by symmetry (kappa ~ 1e-14 omega, round-off): no beat, so the
        # default horizon is two times 20 drive periods
        cfg = write_cfg(tmp_path, UNTUNED_CFG)
        out = run_cli("simulate", cfg, tmp_path / "out")
        run = cli.Run(load_config(cfg))
        basis = run.basis()
        drive = basis.mechanical_indices()[0]
        t = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1,
                       usecols=0)
        assert t[-1] == pytest.approx(40 * 2 * math.pi / basis.omegas[drive],
                                      rel=1e-3)

    def test_tuned_to_uncoupled_pair_has_nothing_to_damp(self, tmp_path,
                                                         capsys):
        # paper-square's (1,1) bending mode tuned to electric mode 2, one of
        # the degenerate (1,2)/(2,1) pair: uncoupled by symmetry, with a
        # round-off kappa of ~1e-13 omega
        ref = resources.files("pemplate") / "presets" / "paper-square.cfg"
        text = ref.read_text().replace("elec_mode = 1", "elec_mode = 2")
        assert "elec_mode = 2" in text
        cfg = write_cfg(tmp_path, text)
        for command in ("optimize-r", "pipeline", "simulate", "tune"):
            assert main([command, "--config", str(cfg),
                         "--out", str(tmp_path / command)]) == 1
            assert "nothing to damp" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["tune", "simulate", "pipeline"])
    def test_decoupling_capacitance_exits_1_before_any_simulation(
            self, tmp_path, capsys, monkeypatch, command):
        # C_N = 1e300 tunes L_N to ~5e-302, and the tuned pair no longer
        # exchanges energy: every command that tunes fails at the tuning
        # stage, naming the fields, and integrates nothing
        def never(*args):
            raise AssertionError("a simulation ran")

        monkeypatch.setattr(dynamics, "integrate", never)
        text = TINY_CFG.replace("capacitance = 1.0", "capacitance = 1e300")
        out = tmp_path / "out"
        assert main([command, "--config", str(write_cfg(tmp_path, text)),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert ("[stage tuning] config fields [tuning] mech_mode = 1 and "
                "elec_mode = 1: zero electromechanical coupling") in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_written_simulation_leaves_memory(self, tmp_path, monkeypatch):
        # nothing after report_simulation reads the trajectory: once its
        # table and summary line are written, no reference to it, its times
        # or its energy traces is left
        states = []
        integrate, energy_stream = dynamics.integrate, dynamics.energy_stream

        def recording(*args):
            traj = integrate(*args)
            states.append(weakref.ref(traj.t))
            return traj

        def recording_energies(*args):
            stream = energy_stream(*args)
            states.append(weakref.ref(stream.en.total.base))
            return stream

        monkeypatch.setattr(dynamics, "integrate", recording)
        monkeypatch.setattr(dynamics, "energy_stream", recording_energies)
        run = cli.Run(load_config(write_cfg(tmp_path, SMALL_CFG + SEARCH)))
        line, = cli.report_simulation(run, tmp_path)
        assert line.startswith("simulation: ")
        # the initial energy's one-row pass, then the simulation's
        assert len(states) == 3 and all(ref() is None for ref in states)


class TestSteppedRows:
    """The rows each pipeline steps (``Trajectory.chunks``, from the row a
    pass starts at), by reader: a written run is stepped once for its
    table, whose pass also fills its energy traces, and a doubled search
    horizon steps on from the shorter run's last block, not from t = 0."""

    # the rows of trajectory.csv and of the sub-critical, critical and
    # super-critical tables
    TABLES = {"paper-square": [26165, 4806, 2403, 2403],
              "clamped-demo": [26653, 10662, 5331, 5331]}
    # every row paper-square's pipeline steps, the same at one and two BLAS
    # threads (155,660 when each written run was stepped two or three
    # times). clamped-demo's search samples other resistances at one
    # thread (its tied electric pair, ROADMAP S1), so its total is not
    # pinned: 208,003 rows here at two threads, 218,702 at one
    TOTAL = {"paper-square": 108043}

    @pytest.mark.parametrize("preset", ["paper-square", "clamped-demo"])
    def test_each_written_run_is_stepped_once_more(self, tmp_path,
                                                   monkeypatch, preset):
        passes, reader = [], ["other"]  # passes: (reader, first row, rows)
        chunks = dynamics.Trajectory.chunks

        def counted(traj):
            passes.append((reader[-1], traj.first, len(traj.t)))
            return chunks(traj)

        def read_by(name, fn):
            # fn, with the passes it makes counted for name(its argument)
            def call(arg, *args):
                reader.append(name(arg))
                try:
                    return fn(arg, *args)
                finally:
                    reader.pop()

            return functools.wraps(fn)(call)  # keeps evaluate.step, .run

        evaluations = itertools.count()
        make = dynamics.damping_evaluator
        monkeypatch.setattr(dynamics.Trajectory, "chunks", counted)
        monkeypatch.setattr(cli, "write_csv",
                            read_by(lambda path: path.name, cli.write_csv))
        monkeypatch.setattr(dynamics, "damping_evaluator", lambda *args: read_by(
            lambda r: next(evaluations), make(*args)))
        assert main(["pipeline", "--preset", preset,
                     "--out", str(tmp_path)]) == 0

        # outside the tables and the search: the initial energy's one row
        assert [p for p in passes if p[0] == "other"] == [("other", 0, 1)]
        names = ["trajectory.csv", *(f"trajectory_{regime}.csv" for regime in
                                     ("sub_critical", "critical",
                                      "super_critical"))]
        assert [p for p in passes if isinstance(p[0], str)
                and p[0] != "other"] == [
            (name, 0, rows) for name, rows in zip(names, self.TABLES[preset])]
        runs = {}
        for evaluation, first, rows in passes:
            if isinstance(evaluation, int):
                runs.setdefault(evaluation, []).append((first, rows))
        doublings = 0
        for horizons in runs.values():
            assert horizons[0][0] == 0
            for (_, shorter), (first, rows) in zip(horizons, horizons[1:]):
                # from the first row of the block holding the shorter run's
                # last row: at most BLOCK - 1 of its rows are stepped again
                assert first == (shorter - 1) // dynamics.BLOCK * dynamics.BLOCK
                assert shorter < rows
                doublings += 1
        assert doublings > 0
        # each regime table's run was stepped by its own evaluation too
        final = [horizons[-1][1] for horizons in runs.values()]
        assert all(rows in final for rows in self.TABLES[preset][1:])
        if preset in self.TOTAL:
            assert sum(rows - first for _, first, rows in passes) \
                == self.TOTAL[preset]


# Key numbers of `pipeline --preset paper-square` at the default OpenBLAS
# thread count (two threads), each within a relative bound of 10x the spread
# measured between that and OPENBLAS_NUM_THREADS=1: L_N 5.95e-11, zeta*
# 6.52e-10, drift 2.60e-5. R* is where the golden-section comparisons end,
# and it was the same to the last bit at both thread counts: bound 0.
PAPER_SQUARE_KEYS = {
    r"tuned L_N: \S+ -> (\S+)": (0.050697179860801578, 5.95e-10),
    r"optimal resistance R\* (\S+),": (0.17838262559945961, 0.0),
    r", zeta (\S+)": (0.037323924059153711, 6.52e-9),
    r", drift (\S+),": (7.2216516962752453e-08, 2.60e-4),
}


def test_paper_square_key_numbers(tmp_path):
    out = tmp_path / "out"
    assert main(["pipeline", "--preset", "paper-square", "--out", str(out)]) == 0
    summary = (out / "summary.txt").read_text()
    for pattern, (expected, bound) in PAPER_SQUARE_KEYS.items():
        value = float(re.search(pattern, summary).group(1))
        assert abs(value - expected) <= bound * expected, (pattern, value)
