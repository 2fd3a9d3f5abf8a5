"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines as they complete.
"""

import math
import time

import numpy as np
import pytest

from jcmagnus.cli import main
from jcmagnus.hilbert import (
    HilbertSpec,
    anti_hermiticity_defect,
    spectral_norm,
)
from jcmagnus.jc_model import ModelParams, h_full, rotation_chain_residual, verify_bch
from jcmagnus.magnus import (
    integrals_closed,
    integrals_quadrature,
    omega1_closed,
    omega1_quadrature,
    omega2_closed,
    omega2_quadrature,
    zeta_resonance_limit,
)
from jcmagnus.observables import bs_phase_probe, squeezing_report
from jcmagnus.propagator import error_report, project_buffer, unitarity_defect

from conftest import angle_diff_mod_pi

GRID_RATIOS = (0.5, 0.8, 1.2)
GRID_COUPLINGS = (0.01, 0.05, 0.1)
GRID_TIMES = (0.5, 1.0, 2.0)
SCALING_GS = (0.01, 0.02, 0.04)


def _line(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[ACCEPTANCE {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def grid27():
    """Oracle comparisons over the 3x3x3 (omega0/omega, g, t) grid at N=10."""
    spec = HilbertSpec(10)
    proj = project_buffer(spec, 2)
    rows = []
    omega2_runtime = 0.0
    for ratio in GRID_RATIOS:
        for g in GRID_COUPLINGS:
            for t in GRID_TIMES:
                p = ModelParams(1.0, ratio, g)
                om1c = omega1_closed(p, spec, t).omega1
                om2c = omega2_closed(p, spec, t).omega2
                d1 = spectral_norm(om1c - omega1_quadrature(p, spec, t, 1024).omega1)
                start = time.perf_counter()
                om2q = omega2_quadrature(p, spec, t, 1024).omega2
                omega2_runtime += time.perf_counter() - start
                d2 = spectral_norm(proj @ (om2c - om2q) @ proj)
                ah = max(
                    anti_hermiticity_defect(om1c) / max(1.0, spectral_norm(om1c)),
                    anti_hermiticity_defect(om2c) / max(1.0, spectral_norm(om2c)),
                )
                rows.append({"params": p, "t": t, "d1": d1, "d2": d2, "antiherm": ah})
    return {"rows": rows, "omega2_runtime": omega2_runtime}


@pytest.fixture(scope="module")
def scaling_runs():
    """Criterion-8 error data at N=12 (buffer 2) and N=16 (buffer 6, same window)."""
    out = {}
    for fock, buffer in ((12, 2), (16, 6)):
        spec = HilbertSpec(fock)
        errs1, errs2, errs_rwa, unit = [], [], [], 0.0
        for g in SCALING_GS:
            p = ModelParams(1.0, 0.8, g)
            bundle, table = error_report(p, spec, 1.0, buffer=buffer)
            errs1.append(table["err_magnus1"])
            errs2.append(table["err_magnus2"])
            errs_rwa.append(table["err_rwa"])
            unit = max(
                unit,
                *(unitarity_defect(u) for u in (
                    bundle.u_exact, bundle.u_rwa, bundle.u_magnus1, bundle.u_magnus2
                )),
            )
        out[fock] = {"errs1": errs1, "errs2": errs2, "errs_rwa": errs_rwa, "unitarity": unit}
    return out


@pytest.fixture(scope="module")
def bs_runs():
    """Criterion-10 probes at N=12 and N=16, t=20."""
    out = {}
    for fock in (12, 16):
        spec = HilbertSpec(fock)
        probes = []
        for g in SCALING_GS:
            probes.append(bs_phase_probe(ModelParams(1.0, 0.9, g), spec, 20.0))
        out[fock] = probes
    return out


@pytest.fixture(scope="module")
def squeeze_runs():
    """Criterion-9 squeezing reports at N=24 and N=28."""
    p = ModelParams(1.0, 0.5, 0.05)
    return {
        fock: {atom: squeezing_report(p, HilbertSpec(fock), 1.0, atom) for atom in ("e", "g")}
        for fock in (24, 28)
    }


def test_c01_rotation_chain():
    spec = HilbertSpec(10)
    p = ModelParams(1.0, 0.8, 0.05)
    href = spectral_norm(h_full(p, spec))
    worst = max(
        rotation_chain_residual(p, spec, float(t)) / href
        for t in np.linspace(0.2, 2.0, 5)
    )
    ok = worst <= 1e-12
    _line(1, "rotation chain identity", ok, f"worst {worst:.2e} <= 1e-12")
    assert ok


def test_c02_bch_residual():
    rng = np.random.default_rng(7)
    worst = 0.0
    for fock in (8, 12, 16):
        omega = float(rng.uniform(0.5, 3.0))
        t = float(rng.uniform(0.0, 6.0))
        worst = max(worst, verify_bch(ModelParams(omega, 0.8, 0.05), HilbertSpec(fock), t))
    ok = worst <= 1e-12
    _line(2, "ladder-rotation residual", ok, f"worst {worst:.2e} <= 1e-12")
    assert ok


def test_c03_omega1_oracle(grid27):
    worst = max(row["d1"] for row in grid27["rows"])
    ok = worst <= 1e-9
    _line(3, "first-order generator vs quadrature", ok, f"worst {worst:.2e} <= 1e-9")
    assert ok


def test_c04_omega2_oracle(grid27):
    worst = max(row["d2"] for row in grid27["rows"])
    runtime = grid27["omega2_runtime"]
    ok = worst <= 1e-8 and runtime <= 30.0
    _line(
        4,
        "second-order generator vs double quadrature",
        ok,
        f"worst {worst:.2e} <= 1e-8, runtime {runtime:.1f}s <= 30s",
    )
    assert ok


def test_c05_integral_identities():
    worst_conj = worst_imag = worst_match = 0.0
    for ratio in GRID_RATIOS:
        for t in GRID_TIMES:
            p = ModelParams(1.0, ratio, 0.05)
            closed = integrals_closed(p, t)
            quad = integrals_quadrature(p, t, 1024)
            worst_conj = max(
                worst_conj,
                abs(closed.i5 - np.conj(closed.i2)),
                abs(quad.i5 - np.conj(quad.i2)),
            )
            worst_imag = max(
                worst_imag,
                abs(closed.i1.real),
                abs(closed.i6.real),
                abs(quad.i1.real),
                abs(quad.i6.real),
            )
            worst_match = max(
                worst_match,
                *(abs(getattr(closed, k) - getattr(quad, k)) for k in ("i1", "i2", "i5", "i6")),
            )
    ok = worst_conj <= 1e-12 and worst_imag <= 1e-12 and worst_match <= 1e-8
    _line(
        5,
        "integral identities",
        ok,
        f"conjugacy {worst_conj:.2e} <= 1e-12, imag {worst_imag:.2e} <= 1e-12, "
        f"closed-vs-quad {worst_match:.2e} <= 1e-8",
    )
    assert ok


def test_c06_resonance_nondivergence():
    worst = 0.0
    finite = True
    for sign in (-1.0, 1.0):
        p = ModelParams(1.0, 1.0 + sign * 1e-6, 0.05)
        z = integrals_closed(p, 1.0).zeta
        limit = zeta_resonance_limit(p, 1.0)
        finite = finite and np.isfinite(z.real) and np.isfinite(z.imag)
        worst = max(worst, abs(z - limit) / abs(limit))
    for w0 in np.linspace(0.95, 1.05, 21):
        z = integrals_closed(ModelParams(1.0, float(w0), 0.05), 1.0).zeta
        finite = finite and np.isfinite(z.real) and np.isfinite(z.imag)
    ok = finite and worst <= 1e-5
    _line(6, "resonance non-divergence", ok, f"rel dev {worst:.2e} <= 1e-5, finite sweep")
    assert ok


def test_c07_antihermiticity_and_unitarity(grid27, scaling_runs):
    worst_ah = max(row["antiherm"] for row in grid27["rows"])
    worst_unit = max(data["unitarity"] for data in scaling_runs.values())
    ok = worst_ah <= 1e-12 and worst_unit <= 1e-10
    _line(
        7,
        "anti-Hermiticity and unitarity",
        ok,
        f"antiherm {worst_ah:.2e} <= 1e-12, unitarity {worst_unit:.2e} <= 1e-10",
    )
    assert ok


def _slope(xs, ys):
    return float(np.polyfit(np.log2(xs), np.log2(ys), 1)[0])


def test_c08_error_scaling(scaling_runs):
    errs1 = scaling_runs[12]["errs1"]
    errs2 = scaling_runs[12]["errs2"]
    s1 = _slope(SCALING_GS, errs1)
    s2 = _slope(SCALING_GS, errs2)
    pointwise = all(e2 < e1 for e1, e2 in zip(errs1, errs2))
    ok = 1.8 <= s1 <= 2.2 and 2.7 <= s2 <= 3.3 and pointwise
    _line(
        8,
        "error-scaling exponents",
        ok,
        f"slope1 {s1:.3f} in [1.8,2.2], slope2 {s2:.3f} in [2.7,3.3], err2<err1 {pointwise}",
    )
    assert ok


def test_c09_squeezing_quantitative(squeeze_runs):
    worst_var = worst_theta = 0.0
    product_ok = True
    for atom in ("e", "g"):
        rep = squeeze_runs[24][atom]
        worst_var = max(worst_var, abs(rep.var_min - 0.25 * math.exp(-2.0 * rep.r_pred)))
        worst_theta = max(worst_theta, angle_diff_mod_pi(rep.theta_min, rep.theta_pred))
        product_ok = product_ok and rep.product_check >= 1.0 / 16.0 - 1e-12
    ok = worst_var <= 1e-8 and worst_theta <= 1e-3 and product_ok
    _line(
        9,
        "squeezing quantitative check",
        ok,
        f"var dev {worst_var:.2e} <= 1e-8, theta dev {worst_theta:.2e} <= 1e-3, "
        f"product bound {product_ok}",
    )
    assert ok


def test_c10_bloch_siegert_probe(bs_runs):
    probes = bs_runs[12]
    ratios = [m / p for m, p in probes]
    within = all(0.75 <= r <= 1.25 for r in ratios)
    doubling = [probes[k + 1][0] / probes[k][0] for k in range(2)]
    scaling_ok = all(3.2 <= r <= 4.8 for r in doubling)
    ok = within and scaling_ok
    _line(
        10,
        "Bloch-Siegert phase probe",
        ok,
        f"measured/predicted {['%.3f' % r for r in ratios]} in [0.75,1.25], "
        f"doubling {['%.2f' % r for r in doubling]} in [3.2,4.8]",
    )
    assert ok


def test_c11_truncation_robustness(scaling_runs, squeeze_runs, bs_runs):
    drift8 = max(
        max(abs(a - b) for a, b in zip(scaling_runs[12][key], scaling_runs[16][key]))
        for key in ("errs1", "errs2", "errs_rwa")
    )
    drift9 = max(
        abs(squeeze_runs[24][atom].var_min - squeeze_runs[28][atom].var_min)
        for atom in ("e", "g")
    )
    drift10 = max(
        abs(m12 - m16) / abs(m12)
        for (m12, _), (m16, _) in zip(bs_runs[12], bs_runs[16])
    )
    ok = drift8 <= 1e-6 and drift9 <= 1e-9 and drift10 <= 0.01
    _line(
        11,
        "truncation robustness",
        ok,
        f"errors {drift8:.2e} <= 1e-6, var_min {drift9:.2e} <= 1e-9, "
        f"bs phase {100 * drift10:.3f}% <= 1%",
    )
    assert ok


def test_c12_sweep_determinism(tmp_path):
    args = [
        "sweep",
        "--g-grid",
        "0.02,0.05",
        "--fock-dim",
        "10",
        "--quad-steps",
        "256",
    ]
    out1, out2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    assert main([*args, "--out", str(out1)]) == 0
    assert main([*args, "--out", str(out2)]) == 0
    identical = out1.read_bytes() == out2.read_bytes()
    _line(12, "sweep determinism", identical, f"{out1.stat().st_size} bytes, byte-identical")
    assert identical
