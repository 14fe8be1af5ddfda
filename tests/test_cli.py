import numpy as np
import pytest

from pemplate.cli import main
from pemplate.config import load_config, parse_config
from pemplate.errors import ValidationError
from pemplate.mesh import generate_structured_square, save_mesh

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
        with pytest.raises(ValidationError, match="mode counts"):
            parse_config(text)

    def test_tuning_target_outside_retained(self):
        text = SMALL_CFG.replace("mech_mode = 1", "mech_mode = 9")
        with pytest.raises(ValidationError, match="tuning target"):
            parse_config(text)

    def test_missing_mesh_file(self):
        with pytest.raises(ValidationError, match="mesh file not found"):
            parse_config("[mesh]\nkind = file\npath = nowhere.mesh\n[bc]\n"
                         "group = boundary\nkind = free\n")

    def test_unknown_bc_kind(self):
        text = SMALL_CFG.replace("simply_supported+grounded", "welded")
        with pytest.raises(ValidationError, match="welded"):
            parse_config(text)

    def test_material_invariants_checked_upfront(self):
        text = SMALL_CFG.replace("inductance = 1.0", "inductance = -2.0")
        with pytest.raises(ValidationError, match="inductance"):
            parse_config(text)

    def test_builtin_mesh_path(self):
        cfg = parse_config("[mesh]\nkind = file\npath = builtin:l_shape.mesh\n"
                           "[bc]\ngroup = boundary\nkind = clamped+grounded\n")
        assert cfg.mesh_path.exists()

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

    def test_typo_exits_1_naming_the_line(self, tmp_path, capsys):
        text = SMALL_CFG.replace("inductance = 1.0", "inductnce = -5")
        cfg = write_cfg(tmp_path, text)
        line = text.splitlines().index("inductnce = -5") + 1
        out = tmp_path / "out"
        assert main(["modes", "--config", str(cfg), "--out", str(out)]) == 1
        assert f"run.cfg:{line}: unknown key 'inductnce'" in capsys.readouterr().err
        assert not out.exists()

    def test_key_unused_by_this_run_rejected(self):
        # [simulation] point is read only for impulse initial conditions
        text = SMALL_CFG.replace("ic = unimodal", "ic = unimodal\npoint = 0.5 0.5")
        with pytest.raises(ValidationError, match="unknown key 'point'"):
            parse_config(text)

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

    def test_validation_error_exit_code(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL_CFG.replace("n = 4", "n = 0"))
        assert main(["modes", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert "error" in capsys.readouterr().err

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
