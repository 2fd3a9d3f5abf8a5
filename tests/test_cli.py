import csv
import math
import re

import numpy as np
import pytest

from jcmagnus.cli import SWEEP_FIELDS, RunConfig, load_config_file, main

FAST = ["--fock-dim", "8", "--quad-steps", "256"]


def test_config_validation_names_field():
    cfg = RunConfig(fock_dim=3)
    with pytest.raises(ValueError, match="fock_dim"):
        cfg.validate()
    with pytest.raises(ValueError, match="buffer"):
        RunConfig(fock_dim=4, buffer=3).validate()
    with pytest.raises(ValueError, match="quad_steps"):
        RunConfig(quad_steps=63).validate()
    with pytest.raises(ValueError, match="g "):
        RunConfig(g=-0.1).validate()
    with pytest.raises(ValueError, match="omega0_grid"):
        RunConfig(omega0_grid=(0.5, -1.0)).validate()


def test_cli_rejects_bad_config_before_computing(capsys):
    assert main(["verify", "--fock-dim", "3"]) == 2
    err = capsys.readouterr().err
    assert "fock_dim" in err


def test_verify_passes_and_line_format(capsys):
    assert main(["verify", *FAST]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    pattern = re.compile(r"^[A-Z0-9_]+ (PASS|FAIL|SKIP) [0-9.e+-]+(e[+-]\d+)?$")
    assert len(out) >= 12
    for line in out:
        assert pattern.match(line), line
        assert " FAIL " not in line


def test_verify_skips_out_of_regime_checks(capsys):
    # g * t = 5 sits far outside the expansion's regime: the suite still runs
    # and the convergence-dependent checks report SKIP with the margin
    assert main(["verify", "--g", "0.05", "--t", "100", *FAST]) == 0
    out = capsys.readouterr().out
    for name in ("ERROR_SCALING", "SQUEEZING_VARIANCE", "UNITARITY"):
        assert re.search(rf"^{name} SKIP 1\.59", out, re.MULTILINE), name
    assert "ROTATION_CHAIN PASS" in out


def _report_lines(capsys, args):
    assert main(["report", *args]) == 0
    return capsys.readouterr().out.splitlines()


def test_report_contains_each_sweep_field_once(capsys):
    lines = _report_lines(capsys, FAST)
    for name in SWEEP_FIELDS:
        hits = [ln for ln in lines if ln.startswith(f"{name} = ")]
        assert len(hits) == 1, (name, hits)


def test_report_zero_coupling(capsys):
    lines = _report_lines(capsys, ["--g", "0", *FAST])
    values = dict(ln.split(" = ", 1) for ln in lines if " = " in ln)
    for name in ("err_rwa", "err_magnus1", "err_magnus2", "r_pred", "bs_measured"):
        assert float(values[name]) == 0.0
    assert float(values["bs_predicted"]) == 0.0


def test_report_flags_resonance_branch(capsys):
    lines = _report_lines(capsys, ["--omega0", "1.0", *FAST])
    assert any("zeta_branch = resonance (resonance branch)" in ln for ln in lines)
    lines = _report_lines(capsys, FAST)
    assert any(ln == "zeta_branch = closed" for ln in lines)


def test_single_point_sweep_matches_report(tmp_path, capsys):
    out = tmp_path / "point.csv"
    args = ["--g-grid", "0.05", *FAST, "--out", str(out)]
    assert main(["sweep", *args]) == 0
    capsys.readouterr()
    with open(out, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 1
    lines = _report_lines(capsys, FAST)
    values = dict(ln.split(" = ", 1) for ln in lines if " = " in ln)
    for name in SWEEP_FIELDS:
        assert rows[0][name] == values[name], name


def test_sweep_error_scaling_columns(tmp_path):
    out = tmp_path / "gsweep.csv"
    assert main(["sweep", "--g-grid", "0.01,0.02,0.04", *FAST, "--out", str(out)]) == 0
    with open(out, newline="") as handle:
        rows = list(csv.DictReader(handle))
    e1 = [float(r["err_magnus1"]) for r in rows]
    e2 = [float(r["err_magnus2"]) for r in rows]
    assert 3.0 <= e1[1] / e1[0] <= 5.5 and 3.0 <= e1[2] / e1[1] <= 5.5
    assert 6.0 <= e2[1] / e2[0] <= 10.0 and 6.0 <= e2[2] / e2[1] <= 10.0


def test_sweep_zeta_continuous_through_resonance(tmp_path):
    out = tmp_path / "res.csv"
    grid = ",".join(f"{w:.3f}" for w in np.linspace(0.9, 1.1, 11))
    assert main(["sweep", "--omega0-grid", grid, *FAST, "--out", str(out)]) == 0
    with open(out, newline="") as handle:
        rows = list(csv.DictReader(handle))
    z = np.array([complex(float(r["zeta_re"]), float(r["zeta_im"])) for r in rows])
    assert np.all(np.isfinite(z.real)) and np.all(np.isfinite(z.imag))
    jumps = np.abs(np.diff(z))
    for k in range(1, len(jumps) - 1):
        assert jumps[k] <= 10.0 * max(jumps[k - 1], jumps[k + 1])


def test_sweep_deterministic(tmp_path):
    args = ["--g-grid", "0.02,0.05", *FAST]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", *args, "--out", str(out1)]) == 0
    assert main(["sweep", *args, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_requires_grid_and_writable_path(tmp_path, capsys):
    assert main(["sweep", *FAST, "--out", str(tmp_path / "x.csv")]) == 2
    assert "grid axis" in capsys.readouterr().err
    assert main(["sweep", "--g-grid", "0.05", *FAST, "--out", str(tmp_path / "nodir" / "x.csv")]) == 2
    assert "output_path" in capsys.readouterr().err


def test_sweep_row_cap():
    grid = tuple(float(v) for v in range(1, 102))
    cfg = RunConfig(omega0_grid=grid, g_grid=grid[:100], t_grid=grid[:100])
    from jcmagnus.cli import cmd_sweep

    with pytest.raises(ValueError, match="cap"):
        cmd_sweep(cfg)


def test_config_file_and_flag_override(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "# sample configuration\n"
        "omega0 = 0.75\n"
        "g = 0.04\n"
        "fock_dim = 8\n"
        "buffer = 3\n"
        "quad_steps = 256\n"
    )
    parsed = load_config_file(str(cfg_file))
    assert parsed == {
        "omega0": 0.75,
        "g": 0.04,
        "fock_dim": 8,
        "buffer": 3,
        "quad_steps": 256,
    }
    lines = _report_lines(capsys, ["--config", str(cfg_file), "--g", "0.02"])
    values = dict(ln.split(" = ", 1) for ln in lines if " = " in ln)
    assert float(values["omega0"]) == 0.75  # from the file
    assert values["buffer"] == "3"
    assert float(values["g"]) == 0.02  # flag wins over the file


def test_config_file_rejects_unknown_key(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("omeg = 1.0\n")
    with pytest.raises(ValueError, match="unknown config key"):
        load_config_file(str(bad))
    # the stepping tolerance of the former time-stepped propagator is gone
    old = tmp_path / "old.cfg"
    old.write_text("step_tol = 1e-10\n")
    with pytest.raises(ValueError, match="unknown config key 'step_tol'"):
        load_config_file(str(old))


def test_grid_flag_parsing(tmp_path):
    out = tmp_path / "t.csv"
    assert main(
        ["sweep", "--t-grid", "0.5,1.0", *FAST, "--out", str(out)]
    ) == 0
    with open(out, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [float(r["t"]) for r in rows] == [0.5, 1.0]
    assert list(rows[0].keys()) == list(SWEEP_FIELDS)


# Points inside the convergence regime g t / pi < 1 where the former
# time-stepped propagator ran out of steps and the commands exited 2.


def test_readme_long_time_report(capsys):
    lines = _report_lines(capsys, ["--omega0", "0.9", "--g", "0.02", "--t", "20"])
    values = {}
    for line in lines:
        name, sep, value = line.partition(" = ")
        if sep and name != "zeta_branch":
            values[name] = float(value)
    assert set(SWEEP_FIELDS) <= set(values)
    assert all(math.isfinite(values[name]) for name in SWEEP_FIELDS)
    for name in ("err_rwa", "err_magnus1", "err_magnus2", "rwa_vs_magnus1", "rwa_vs_magnus2",
                 "magnus1_vs_magnus2"):
        assert 0.0 <= values[name] <= 2.0, name


def test_verify_long_time_passes(capsys):
    assert main(["verify", "--omega0", "0.9", "--g", "0.02", "--t", "5"]) == 0
    assert " FAIL " not in capsys.readouterr().out


def test_verify_long_time_runs_every_check(capsys):
    # t = 10 at the default g: every check runs and the propagator checks
    # pass; the squeezing check may fail on its own (exit 1), never with an
    # error (exit 2)
    assert main(["verify", "--t", "10"]) in (0, 1)
    captured = capsys.readouterr()
    assert "error:" not in captured.err
    status = dict(line.split()[:2] for line in captured.out.splitlines())
    for name in ("UNITARITY", "ERROR_SCALING", "ERR2_LE_ERR1"):
        assert status[name] == "PASS", name
