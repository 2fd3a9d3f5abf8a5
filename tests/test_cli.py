import csv
import itertools
import math
import re
from dataclasses import fields

import numpy as np
import pytest

from jcmagnus import cli, jc_model, magnus, observables, propagator
from jcmagnus.cli import SWEEP_FIELDS, RunConfig, _build_parser, build_config, load_config_file, main
from jcmagnus.hilbert import HilbertSpec
from jcmagnus.jc_model import ModelParams
from jcmagnus.observables import bs_phase_probe, squeezing_report
from jcmagnus.propagator import error_report, phase_aligned_distances, project_buffer, propagator_bundle
from conftest import count_thread_starts

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
    # the exact Gaussian readout of exp(0) is the vacuum: no squeeze
    assert [float(values[k]) for k in ("var_min", "var_max", "theta_min")] == [0.25, 0.25, 0.0]
    assert abs(float(values["product_check"]) - 1.0 / 16.0) <= 1e-15


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


@pytest.mark.parametrize(
    "line, key",
    [("fock_dim = 12.0", "fock_dim"), ("g = abc", "g"), ("buffer = two", "buffer"), ("t_grid = 1,x", "t_grid")],
)
def test_config_file_value_errors_name_line_and_key(tmp_path, capsys, line, key):
    # a value that does not parse names the file, the line and the key
    bad = tmp_path / "bad.cfg"
    bad.write_text(f"# run\nomega0 = 0.8\n{line}\n")
    with pytest.raises(ValueError, match=re.escape(f"{bad}:3: invalid value for {key!r}")):
        load_config_file(str(bad))
    assert main(["report", "--config", str(bad)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {bad}:3: ") and repr(key) in err[0]


@pytest.mark.parametrize(
    "argv, t",
    [
        (["report", "--t", "1e103"], "1e+103"),
        (["verify", "--t", "1e300"], "1e+300"),
        (["sweep", "--t-grid", "1,1e300"], "1e+300"),
    ],
    ids=["report", "verify", "sweep"],
)
def test_overflowing_t_is_an_error_line(tmp_path, capsys, argv, t):
    # a t whose cube overflows a float exits 2 with one error line naming t,
    # not a traceback
    out = tmp_path / "s.csv"
    assert main([*argv, *FAST, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: t = {t} is too large: t**3 overflows a float"]
    # a sweep that fails part-way leaves output_path as it was: absent, or
    # holding its old content
    assert not out.exists()
    out.write_text("old content\n")
    assert main([*argv, *FAST, "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == err
    assert out.read_text() == "old content\n"


def test_every_config_field_has_a_key_and_a_flag(tmp_path):
    # one value per RunConfig field, set once by its config-file key and once
    # by its flag; both give the same parsed value, which differs from the default
    settings = {
        "omega": ("--omega", "1.5", 1.5),
        "omega0": ("--omega0", "0.7", 0.7),
        "g": ("--g", "0.03", 0.03),
        "t": ("--t", "2.5", 2.5),
        "t_grid": ("--t-grid", "0.5,1", (0.5, 1.0)),
        "omega0_grid": ("--omega0-grid", "0.7,0.9", (0.7, 0.9)),
        "g_grid": ("--g-grid", "0.01,0.02", (0.01, 0.02)),
        "fock_dim": ("--fock-dim", "16", 16),
        "buffer": ("--buffer", "3", 3),
        "quad_steps": ("--quad-steps", "512", 512),
        "output_path": ("--out", "x.csv", "x.csv"),
    }
    assert list(settings) == [f.name for f in fields(RunConfig)]
    parser = _build_parser()
    for name, (flag, text, value) in settings.items():
        cfg_file = tmp_path / f"{name}.cfg"
        cfg_file.write_text(f"{name} = {text}\n")
        from_file = build_config(parser.parse_args(["report", "--config", str(cfg_file)]))
        from_flag = build_config(parser.parse_args(["report", flag, text]))
        assert getattr(from_file, name) == getattr(from_flag, name) == value != getattr(RunConfig(), name)
        assert type(getattr(from_file, name)) is type(getattr(from_flag, name)) is type(value), name


def test_zeta_is_evaluated_through_integrals_closed(monkeypatch, capsys):
    # every zeta goes through integrals_closed: a row takes it for its own
    # columns, for the squeeze amplitude xi (r_pred and theta_pred) and for
    # the bundle's closed Omega_2; a default verify adds its closed
    # integrals, the two resonance probes, one xi per squeezing readout and
    # the closed Omega_2 of its generators and bundles.  Each call forms I1,
    # I6 and zeta from one sinc quotient apiece, and no other code forms one.
    calls, quotients = [], []
    real, real_quotient = magnus.integrals_closed, magnus._sinc_quotient

    def counting(*args):
        calls.append(args)
        return real(*args)

    def counting_quotient(*args):
        quotients.append(args)
        return real_quotient(*args)

    for module in (magnus, cli, observables):
        monkeypatch.setattr(module, "integrals_closed", counting)
    monkeypatch.setattr(magnus, "_sinc_quotient", counting_quotient)
    cli.compute_row(RunConfig(), 0.8, 0.05, 1.0)
    assert len(calls) == 3 and len(quotients) == 3 * 3
    calls.clear()
    quotients.clear()
    assert cli.cmd_report(RunConfig()) == 0
    assert len(calls) == 3 and len(quotients) == 3 * 3
    calls.clear()
    quotients.clear()
    assert cli.cmd_verify(RunConfig()) == 0
    capsys.readouterr()
    assert len(calls) == 16 and len(quotients) == 3 * 16


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
        return res + leak

    monkeypatch.setattr(cli, "omega1_closed", coupled)
    assert cli.cmd_verify(RunConfig(fock_dim=8, quad_steps=256)) == 1
    assert "ANTIHERMITICITY FAIL inf" in capsys.readouterr().out


@pytest.mark.parametrize("fock", ["12", "24"])
def test_verify_buffer_zero_passes(fock, capsys):
    # the checks that read the closed Omega_2 keep one guard level, so a
    # correct program passes at --buffer 0 too
    assert main(["verify", "--buffer", "0", "--fock-dim", fock]) == 0
    assert " FAIL " not in capsys.readouterr().out


def test_verify_buffer_zero_catches_flipped_squeeze(monkeypatch, capsys):
    # an Omega_2 whose squeeze term has the wrong sign still fails the
    # quadrature oracle and the order-by-order scaling at --buffer 0
    real_omega2 = cli.omega2_closed

    def flipped(params, spec, t):
        res = real_omega2(params, spec, t)
        # the squeeze term (g^2/2) (zeta^* C5 + zeta C2) with C5 = a^2 sz, C2 = -a^dag^2 sz
        _, c2, c5, _ = magnus._closed_commutators(spec)
        zeta, g2 = magnus.integrals_closed(params, t).zeta, params.g * params.g
        return res - g2 * (np.conj(zeta) * c5 + zeta * c2)

    monkeypatch.setattr(cli, "omega2_closed", flipped)
    monkeypatch.setattr(propagator, "omega2_closed", flipped)
    assert main(["verify", "--buffer", "0"]) == 1
    status = dict(line.split()[:2] for line in capsys.readouterr().out.splitlines())
    assert status["OMEGA2_CLOSED_VS_QUADRATURE"] == status["ERROR_SCALING"] == "FAIL"


def test_verify_rotation_chain_reads_the_propagators_frame(monkeypatch, capsys):
    # ROTATION_CHAIN checks the frame the propagators use: a frame_phases
    # with the sigma_z sign flipped fails it directly
    real = jc_model.frame_phases

    def flipped(params, spec):
        # omega n - omega0 sigma_z / 2 in place of omega n + omega0 sigma_z / 2
        return real(params, spec) - params.omega0 * np.tile([1.0, -1.0], spec.fock_dim)

    monkeypatch.setattr(jc_model, "frame_phases", flipped)
    monkeypatch.setattr(propagator, "frame_phases", flipped)
    assert main(["verify"]) == 1
    status = dict(line.split()[:2] for line in capsys.readouterr().out.splitlines())
    assert status["ROTATION_CHAIN"] == "FAIL"


@pytest.mark.parametrize("t", ["1e-6", "1e-4", "1e-3"])
def test_verify_resonance_limit_small_t(t, capsys):
    # the resonance limit is evaluated without cancellation at small omega t;
    # other checks still fail at such t, so only this line is checked
    main(["verify", "--t", t])
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[1] for line in lines if line.startswith("RESONANCE_LIMIT ")] == ["PASS"]


def _resonance_status(capsys, argv):
    main(["verify", *argv])
    lines = capsys.readouterr().out.splitlines()
    (line,) = [line for line in lines if line.startswith("RESONANCE_LIMIT ")]
    return line.split()[1]


@pytest.mark.parametrize("omega0", ["0.8", "0.9", "1.0", "1.1"])
def test_verify_resonance_limit_passes_where_the_limit_vanishes(omega0, capsys):
    # the limit vanishes where tan(omega t) = omega t, at omega t = 4.4934;
    # the residual's scale adds zeta's first-order change per unit relative
    # detuning to |limit|, so the probe's own offset stays small there
    for t in np.round(np.arange(4.30, 4.71, 0.05), 2):
        assert _resonance_status(capsys, ["--omega0", omega0, "--t", str(t)]) == "PASS", t


@pytest.mark.parametrize("t", ["5", "10"])
def test_verify_resonance_limit_passes_at_the_capped_oracle_time(t, capsys):
    # t_oracle is capped at 4 pi / sigma = 4.488 here, next to the zero of the limit
    assert _resonance_status(capsys, ["--omega0", "1.8", "--g", "0.02", "--t", t]) == "PASS"


@pytest.mark.parametrize(
    "wrong",
    [
        lambda params, t: magnus.zeta_resonance_limit(params, t) * (1.0 + 1e-4),
        # the truncated expression the README warns about: the first term only
        lambda params, t: (1.0 - np.exp(2j * params.omega * t)) / (params.omega * params.sigma),
    ],
    ids=["relative_1e-4", "first_term_only"],
)
def test_verify_resonance_limit_fails_a_wrong_limit(wrong, monkeypatch, capsys):
    monkeypatch.setattr(cli, "zeta_resonance_limit", wrong)
    assert _resonance_status(capsys, []) == "FAIL"


def test_report_and_verify_eigh_calls(monkeypatch, capsys):
    # a report exponentiates its one bundle in one stacked eigh call; a
    # default verify exponentiates its four bundles (the configured g and the
    # three ERROR_SCALING couplings) in one, and each squeezing readout its
    # one parity block of fock 24 in one
    calls = []
    real_eigh = np.linalg.eigh

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return real_eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    assert cli.cmd_report(RunConfig()) == 0
    assert calls == [(8, 12, 12)]
    calls.clear()
    assert cli.cmd_verify(RunConfig()) == 0
    capsys.readouterr()
    assert calls == [(32, 12, 12), (24, 24), (24, 24)]


def test_verify_chain_and_bch_take_one_svd_each(monkeypatch, capsys):
    # ROTATION_CHAIN (||h_full|| and five residuals) and BCH_RESIDUAL (six
    # residual norms) each take one stacked values-only SVD
    calls, per_check = [], {}
    real_svd = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return real_svd(*args, **kwargs)

    def counted(name, fn):
        def wrapped(*args):
            before = len(calls)
            result = fn(*args)
            per_check[name] = calls[before:]
            return result

        return wrapped

    monkeypatch.setattr(np.linalg, "svd", counting)
    monkeypatch.setattr(np.linalg._linalg, "svd", counting)
    monkeypatch.setattr(cli, "_rotation_chain", counted("ROTATION_CHAIN", cli._rotation_chain))
    monkeypatch.setattr(cli, "_bch_residuals", counted("BCH_RESIDUAL", cli._bch_residuals))
    assert cli.cmd_verify(RunConfig()) == 0
    capsys.readouterr()
    assert per_check == {"ROTATION_CHAIN": [(6, 24, 24)], "BCH_RESIDUAL": [(6, 24, 24)]}


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


def test_row_and_report_compute_only_printed_distances(monkeypatch, capsys):
    # a row computes the three errors against u_exact in one call on the
    # bundle's parity blocks; the report adds the three
    # propagator-vs-propagator distances to that call
    calls = []

    def record(blocks, pairs, buffer):
        calls.append((blocks, list(pairs)))
        return real_distances(blocks, pairs, buffer)

    real_distances = cli.block_distances
    monkeypatch.setattr(cli, "block_distances", record)
    cfg = RunConfig(fock_dim=8)
    params, spec = ModelParams(cfg.omega, cfg.omega0, cfg.g), HilbertSpec(8)
    cli.compute_row(cfg, cfg.omega0, cfg.g, cfg.t)
    ((blocks, pairs),) = calls
    assert pairs == [(0, 1), (0, 2), (0, 3)]
    assert np.array_equal(blocks, propagator_bundle(params, spec, cfg.t).blocks)
    calls.clear()
    assert cli.cmd_report(cfg) == 0
    capsys.readouterr()
    assert [len(pairs) for _, pairs in calls] == [6]


def test_row_lapack_calls(monkeypatch):
    # at the default point a row takes one stacked eigh for its four
    # exponentials and at most 4 SVD calls for its three distances, all full
    # (the minorants and pair models of one round each), none values-only
    calls = {"eigh": [], "svd": []}
    for name in calls:
        real = getattr(np.linalg, name)

        def counting(*args, _real=real, _name=name, **kwargs):
            calls[_name].append(kwargs.get("compute_uv", True))
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    cli.compute_row(RunConfig(), 0.8, 0.05, 1.0)
    assert len(calls["eigh"]) == 1
    assert 0 < len(calls["svd"]) <= 4
    assert all(calls["svd"])


@pytest.mark.parametrize("fock", [48, 96])
def test_report_svd_operands_stay_under_the_stack_cap(fock, monkeypatch, capsys):
    # the phase search chunks its stacked SVD operands by block: none holds
    # more blocks than fit in _STACK_BYTES, or more than one where a single
    # block is larger
    shapes = []
    real_svd = np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    cfg = RunConfig(fock_dim=fock)
    assert cli.cmd_report(cfg) == 0
    capsys.readouterr()
    keep = fock - cfg.buffer
    cap = max(1, propagator._STACK_BYTES // (16 * keep * keep))
    assert shapes and all(shape[1:] == (keep, keep) for shape in shapes)
    assert max(shape[0] for shape in shapes) <= cap


def test_row_and_report_share_the_full_matrix_distances(capsys):
    # compute_row's three errors and cmd_report's six distances equal, bit
    # for bit, phase_aligned_distances on the bundle's full matrices with
    # project_buffer: one search core serves both entries
    pairs = {
        "err_rwa": ("u_exact", "u_rwa"),
        "err_magnus1": ("u_exact", "u_magnus1"),
        "err_magnus2": ("u_exact", "u_magnus2"),
        "rwa_vs_magnus1": ("u_rwa", "u_magnus1"),
        "rwa_vs_magnus2": ("u_rwa", "u_magnus2"),
        "magnus1_vs_magnus2": ("u_magnus1", "u_magnus2"),
    }
    for fock, omega0, g, t in ((12, 0.8, 0.05, 1.0), (12, 1.0, 0.02, 4.0), (24, 1.1, 0.05, 2.0)):
        cfg = RunConfig(omega0=omega0, g=g, t=t, fock_dim=fock)
        spec = HilbertSpec(fock)
        bundle = propagator_bundle(ModelParams(cfg.omega, omega0, g), spec, t)
        full = phase_aligned_distances(
            [(getattr(bundle, a), getattr(bundle, b)) for a, b in pairs.values()],
            project_buffer(spec, cfg.buffer),
        )
        want = dict(zip(pairs, full))
        row = cli.compute_row(cfg, omega0, g, t)
        assert [getattr(row, name) for name in list(pairs)[:3]] == full[:3]
        capsys.readouterr()
        assert cli.cmd_report(cfg) == 0
        lines = dict(ln.split(" = ", 1) for ln in capsys.readouterr().out.splitlines() if " = " in ln)
        assert {name: lines[name] for name in pairs} == {name: cli._fmt(v) for name, v in want.items()}


@pytest.mark.parametrize("fock", [8, 12])
def test_row_errors_match_error_report(fock):
    # the row's three distances are error_report's, bit for bit
    cfg = RunConfig(fock_dim=fock)
    for omega0, g, t in ((0.9, 0.02, 20.0), (0.8, 0.05, 1.0), (1.0, 0.05, 2.5), (1.1, 0.02, 0.5)):
        row = cli.compute_row(cfg, omega0, g, t)
        _, table = error_report(ModelParams(cfg.omega, omega0, g), HilbertSpec(fock), t, cfg.buffer)
        for name in ("err_rwa", "err_magnus1", "err_magnus2"):
            assert getattr(row, name) == table[name], (omega0, g, t, name)


def test_row_squeezing_matches_fock_readout():
    # the row reads the exact Gaussian extrema of exp(Omega_2); the
    # truncated-Fock readout agrees with them inside g t / pi < 1
    cfg = RunConfig(fock_dim=16)
    for omega0, g, t in itertools.product((0.5, 0.8, 1.0, 1.1, 1.5), (0.02, 0.1), (0.5, 5.0, 30.0)):
        if g * t / math.pi >= 1.0:
            continue
        row = cli.compute_row(cfg, omega0, g, t)
        for fock in (16, 24):
            rep = squeezing_report(ModelParams(cfg.omega, omega0, g), HilbertSpec(fock), t, "e")
            assert abs(row.var_min - rep.var_min) <= 2e-13, (omega0, g, t, fock)
            assert abs(row.var_max - rep.var_max) <= 2e-13, (omega0, g, t, fock)
            dtheta = abs(row.theta_min - rep.theta_min) % math.pi
            assert min(dtheta, math.pi - dtheta) <= 1e-8, (omega0, g, t, fock)


def test_no_warning_where_the_series_does_not_converge(capsys):
    # err_magnus2 > err_magnus1 here, but t ||h_rotated(0)|| / pi = 2.17: the
    # series does not converge, so the order of the errors is no defect
    row = cli.compute_row(RunConfig(fock_dim=24), 1.0, 0.2, 4.0)
    assert row.err_magnus2 > row.err_magnus1
    assert capsys.readouterr().err == ""


def test_warning_inside_the_premise(monkeypatch, capsys):
    # at the default point t ||h_rotated(0)|| / pi = 0.0875, so an
    # err_magnus2 above err_magnus1 warns and prints that premise
    monkeypatch.setattr(cli, "block_distances", lambda blocks, pairs, buffer: [0.3, 0.1, 0.2])
    cli.compute_row(RunConfig(), 0.8, 0.05, 1.0)
    assert capsys.readouterr().err == (
        "warning: err_magnus2 > err_magnus1 at omega0=0.8 g=0.05 t=1.0 (t ||h_rotated(0)|| / pi = 0.0875)\n"
    )


def test_default_row_and_verify_start_no_thread(monkeypatch, capsys):
    # at fock 12 the phase search is bound by the interpreter lock, so rows
    # and verify stay on the calling thread
    started = count_thread_starts(monkeypatch)
    cli.compute_row(RunConfig(), 0.8, 0.05, 1.0)
    assert cli.cmd_verify(RunConfig()) == 0
    capsys.readouterr()
    assert started == []


def test_one_usable_cpu_gives_the_same_report_serially(monkeypatch, capsys):
    # a fock-48 report runs its searches and exponentials on two threads with
    # two CPUs, on one thread with one, and prints the same text
    cfg = RunConfig(fock_dim=48)
    started = count_thread_starts(monkeypatch, cpus=2)
    assert cli.cmd_report(cfg) == 0
    threaded = capsys.readouterr().out
    assert len(started) == 2
    started.clear()
    monkeypatch.setattr(propagator.os, "sched_getaffinity", lambda pid: {0})
    assert cli.cmd_report(cfg) == 0
    assert started == []
    assert capsys.readouterr().out == threaded
