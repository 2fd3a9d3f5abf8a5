import csv
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from jcmagnus import cli, magnus
from jcmagnus.cli import SWEEP_FIELDS, RunConfig, load_config_file, main
from jcmagnus.hilbert import HilbertSpec
from jcmagnus.jc_model import ModelParams
from jcmagnus.observables import bs_phase_probe
from jcmagnus.propagator import error_report

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
    with pytest.raises(ValueError, match="omega "):
        RunConfig(omega=float("nan")).validate()
    with pytest.raises(ValueError, match="g "):
        RunConfig(g=float("inf")).validate()
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
    # on resonance the one zeta formula prints the analytic limit
    lines = _report_lines(capsys, ["--omega0", "1.0", *FAST])
    values = dict(ln.split(" = ", 1) for ln in lines if " = " in ln)
    limit = magnus.zeta_resonance_limit(ModelParams(1.0, 1.0, 0.05), 1.0)
    got = complex(float(values["zeta_re"]), float(values["zeta_im"]))
    assert abs(got - limit) <= 1e-15 * abs(limit)
    assert "zeta_branch" not in values


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
        if sep:
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
    # t = 10 at the default g: every check runs and passes, the squeezing
    # check included (its reference is the exact Gaussian readout, which
    # departs from e^{-2 r_pred}/4 by 4.6e-6 here)
    assert main(["verify", "--t", "10"]) == 0
    captured = capsys.readouterr()
    assert "error:" not in captured.err
    status = dict(line.split()[:2] for line in captured.out.splitlines())
    assert set(status.values()) == {"PASS"}, status


VERIFY_CHECKS = (
    "ANTIHERMITICITY",
    "BCH_RESIDUAL",
    "ROTATION_CHAIN",
    "COMMUTATOR_TABLE",
    "INTEGRAL_CONJUGACY",
    "INTEGRALS_CLOSED_VS_QUADRATURE",
    "OMEGA1_CLOSED_VS_QUADRATURE",
    "OMEGA2_CLOSED_VS_QUADRATURE",
    "RESONANCE_LIMIT",
    "UNITARITY",
    "ERROR_SCALING",
    "ERR2_LE_ERR1",
    "SQUEEZING_VARIANCE",
    "UNCERTAINTY_PRODUCT",
)


def test_verify_default_point_line_contract(capsys):
    # every check, in this order, passes at the default configuration
    assert main(["verify"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in out] == [[name, "PASS"] for name in VERIFY_CHECKS]
    for line in out:
        assert re.match(r"^[A-Z0-9_]+ PASS \d\.\d{3}e[+-]\d{2}$", line), line


def test_verify_error_scaling_inputs_match_error_report(monkeypatch, capsys):
    # ERROR_SCALING fits exactly the err_magnus1 / err_magnus2 values that
    # error_report tabulates at the same points
    fits = []

    def record(xs, ys):
        fits.append((tuple(xs), list(ys)))
        return real_fit(xs, ys)

    real_fit = cli._fit_log2_slope
    monkeypatch.setattr(cli, "_fit_log2_slope", record)
    cfg = RunConfig(fock_dim=8, quad_steps=256)
    assert cli.cmd_verify(cfg) == 0
    capsys.readouterr()
    (gs, err1), (gs2, err2) = fits
    assert gs == gs2 == (0.01, 0.02, 0.04)
    spec = HilbertSpec(cfg.fock_dim)
    for g, e1, e2 in zip(gs, err1, err2):
        _, table = error_report(ModelParams(cfg.omega, cfg.omega0, g), spec, cfg.t, cfg.buffer)
        assert (e1, e2) == (table["err_magnus1"], table["err_magnus2"])


def test_verify_builds_inner_sums_once(monkeypatch, capsys):
    # the Omega_2 oracle reuses the integrals of the INTEGRAL checks, so one
    # verify builds the inner Simpson sums exactly once
    calls = []

    def record(*args):
        calls.append(args)
        return real_inner_sums(*args)

    real_inner_sums = magnus._inner_sums
    monkeypatch.setattr(magnus, "_inner_sums", record)
    assert cli.cmd_verify(RunConfig()) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_verify_antihermiticity_fails_on_parity_coupling(monkeypatch, capsys):
    # the ANTIHERMITICITY norms are taken per parity block; a generator with
    # an (anti-Hermitian) entry between the blocks fails instead of passing
    real_omega1 = cli.omega1_closed

    def coupled(params, spec, t):
        res = real_omega1(params, spec, t)
        leak = np.zeros((spec.dim, spec.dim), dtype=complex)
        leak[0, 1], leak[1, 0] = 1e-3, -1e-3  # |0,e> and |0,g> differ in parity
        return replace(res, omega1=res.omega1 + leak)

    monkeypatch.setattr(cli, "omega1_closed", coupled)
    assert cli.cmd_verify(RunConfig(fock_dim=8, quad_steps=256)) == 1
    assert "ANTIHERMITICITY FAIL inf" in capsys.readouterr().out


def test_verify_large_quad_steps():
    # the chirp-z inner sums keep a 16384-panel verify cheap, and it passes
    assert main(["verify", "--quad-steps", "16384"]) == 0


def test_row_bs_probe_matches_public_probe():
    # the row reads the Bloch-Siegert phase off error_report's propagators;
    # the value is bit-identical to the stand-alone probe
    cfg = RunConfig(fock_dim=8)
    for omega0, g, t in ((0.9, 0.02, 20.0), (0.8, 0.05, 1.0), (1.0, 0.05, 2.5)):
        row = cli.compute_row(cfg, omega0, g, t)
        measured, predicted = bs_phase_probe(ModelParams(cfg.omega, omega0, g), HilbertSpec(8), t)
        assert (row.bs_measured, row.bs_predicted) == (measured, predicted)
