import itertools
import math
import sys

import numpy as np
import pytest

from jcmagnus.cli import main
from jcmagnus.hilbert import (
    HilbertSpec,
    annihilation,
    anti_hermiticity_defect,
    creation,
    pauli,
    spectral_norm,
    tensor,
)
from jcmagnus.jc_model import ModelParams, h_rotated, h_rwa
from jcmagnus.magnus import (
    commutator_table,
    convergence_margin,
    integrals_closed,
    integrals_quadrature,
    omega1_closed,
    omega1_quadrature,
    omega2_closed,
    omega2_quadrature,
    shift_rates,
    simpson_weights,
    zeta_resonance_limit,
)
from jcmagnus.magnus import _inner_sums, _phase_ramp, _sinc_quotient
from jcmagnus.observables import gaussian_squeezing, squeezing_report
from jcmagnus.propagator import project_buffer

from oracles import inner_sums_grid, integrals_triangle_rule, omega1_stack_rule

# Frozen oracle values, computed with the double-Simpson quadrature of the
# defining integrals (integrals_quadrature at n=2048 reproduces them to
# better than 1e-12 and the closed forms to rounding).
I1_DELTA1_T1 = -0.317058030384207j
ZETA_1_05_T1 = 0.1316959225987982 - 0.08456097944934744j
ZETA_RES_T1 = 0.25342470486073032 - 0.16272213168641203j


def test_simpson_weights_integrate_cubics_exactly():
    w = simpson_weights(8, 2.0)
    x = np.linspace(0.0, 2.0, 9)
    assert np.sum(w * x**3) == pytest.approx(4.0, rel=1e-14)
    with pytest.raises(ValueError):
        simpson_weights(7, 1.0)


def test_integrals_closed_frozen_values():
    ints = integrals_closed(ModelParams(1.5, 0.5, 0.05), 1.0)  # delta = 1
    assert ints.i1 == pytest.approx(I1_DELTA1_T1, abs=1e-12)
    ints = integrals_closed(ModelParams(1.0, 0.5, 0.05), 1.0)
    assert ints.zeta == pytest.approx(ZETA_1_05_T1, abs=1e-12)
    assert ints.i2 == ints.zeta


def _zero_signs(z: complex) -> tuple[float, float]:
    assert z == 0j
    return (math.copysign(1.0, z.real), math.copysign(1.0, z.imag))


def test_integrals_closed_at_t0(capsys):
    # exact zeros with pinned signs: I1 and I6 are -2i times a zero carrying
    # the sign of delta and sigma, zeta is +0+0j and I5 its conjugate, so
    # report prints zeta_re = 0 and zeta_im = 0, and theta_pred = arg(xi)/2
    # is 0 for the excited atom and pi/2 for the ground atom
    for w0, i1_imag in ((0.8, -1.0), (1.0, -1.0), (1.2, 1.0)):
        p = ModelParams(1.0, w0, 0.05)
        ints = integrals_closed(p, 0.0)
        assert _zero_signs(ints.i1) == (1.0, i1_imag), w0
        assert _zero_signs(ints.i6) == (1.0, -1.0), w0
        assert _zero_signs(ints.i2) == _zero_signs(ints.zeta) == (1.0, 1.0), w0
        assert _zero_signs(ints.i5) == (1.0, -1.0), w0
        for atom, theta in (("e", 0.0), ("g", 0.5 * math.pi)):
            assert squeezing_report(p, HilbertSpec(16), 0.0, atom).theta_pred == theta, (w0, atom)
    assert main(["report", "--t", "0"]) == 0
    out = capsys.readouterr().out.splitlines()
    for line in ("zeta_re = 0", "zeta_im = 0", "theta_pred = 0"):
        assert line in out
    with pytest.raises(ValueError):
        integrals_closed(ModelParams(1.0, 0.8, 0.05), -0.1)


@pytest.mark.parametrize("xt", [0.0, 1e-9, 1e-7, 1.1e-6, 1e-4, 0.1, 0.5, 0.9, 3.0])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_ramp_relative_accuracy(xt, sign):
    # f(x, t) = t/x - sin(x t)/x^2 = x t^3 E(0, x t), the ramp of I1 and I6,
    # against 50-digit arithmetic on both sides of _sinc_quotient's switch
    # from its series at |x t| = 1, including the cancellation region
    mpmath = pytest.importorskip("mpmath")
    t = 1.3
    x = sign * xt / t
    got = x * t**3 * _sinc_quotient(0.0, x * t)
    if x == 0.0:
        assert got == 0.0
        return
    with mpmath.workdps(50):
        xm, tm = mpmath.mpf(x), mpmath.mpf(t)
        want = (xm * tm - mpmath.sin(xm * tm)) / (xm * xm)
        assert abs((got - want) / want) <= 1e-14


def test_integrals_quadrature_matches_closed():
    p = ModelParams(1.0, 0.8, 0.05)
    closed = integrals_closed(p, 2.0)
    quad = integrals_quadrature(p, 2.0, 2048)
    for name in ("i1", "i2", "i5", "i6"):
        assert abs(getattr(closed, name) - getattr(quad, name)) <= 1e-8


def test_integrals_quadrature_matches_literal_triangle_rule():
    # the separable outer/inner sums are the same double-Simpson rule as
    # evaluating each defining integrand on its own (n + 1)^2 grid
    for w0 in (0.8, 1.0, 1.1):
        p = ModelParams(1.0, w0, 0.05)
        for t in (0.5, 2.0):
            for n in (64, 256):
                fast = integrals_quadrature(p, t, n)
                literal = integrals_triangle_rule(p, t, n)
                for name in ("i1", "i2", "i5", "i6"):
                    diff = abs(getattr(fast, name) - getattr(literal, name))
                    assert diff <= 1e-14, (w0, t, n, name)


@pytest.mark.parametrize("n", [64, 256, 1024])
def test_inner_sums_match_grid_oracle(n):
    # the chirp-z convolution sums the same terms as the (n + 1)^2 phase grid
    for w0 in (0.2, 0.8, 1.0, 1.1):
        p = ModelParams(1.0, w0, 0.05)
        for t in (0.5, 1.0, 2.0, 8.0):
            _, _, e_d, e_s = _inner_sums(p, t, n)
            for got, want in zip((e_d, e_s), inner_sums_grid(p, t, n)):
                assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), (w0, t)


def test_inner_sums_edge_cases():
    # t = 0 gives exactly zero sums; at resonance the delta chirp has zero
    # rate and E_delta(s) = s, the Simpson integral of 1 over [0, s]
    p = ModelParams(1.0, 0.8, 0.05)
    s, w, e_d, e_s = _inner_sums(p, 0.0, 64)
    assert not np.any(s) and not np.any(w) and not np.any(e_d) and not np.any(e_s)
    res = ModelParams(1.0, 1.0, 0.05)
    s, w, e_d, e_s = _inner_sums(res, 2.0, 64)
    assert np.max(np.abs(e_d - s)) <= 1e-14
    assert s.shape == w.shape == e_d.shape == e_s.shape == (65,)
    assert np.max(np.abs(e_s - inner_sums_grid(res, 2.0, 64)[1])) <= 1e-14


def test_integrals_quadrature_large_n_matches_closed():
    # O(n log n) inner sums make n = 16384 cheap; the rule then agrees with
    # the closed forms to rounding
    for w0 in (0.8, 1.0, 1.1):
        p = ModelParams(1.0, w0, 0.05)
        for t in (0.5, 2.0, 6.0):
            quad = integrals_quadrature(p, t, 16384)
            closed = integrals_closed(p, t)
            for name in ("i1", "i2", "i5", "i6"):
                diff = abs(getattr(quad, name) - getattr(closed, name))
                assert diff <= 1e-14 * t * t, (w0, t, name)


def test_integral_conjugacy_and_imaginarity():
    for p, t in [
        (ModelParams(1.0, 0.8, 0.05), 1.0),
        (ModelParams(1.0, 0.5, 0.05), 2.0),
        (ModelParams(2.0, 1.7, 0.01), 0.7),
    ]:
        closed = integrals_closed(p, t)
        assert closed.i5 == np.conj(closed.i2)
        assert closed.i1.real == 0.0 and closed.i6.real == 0.0
        quad = integrals_quadrature(p, t, 256)
        assert abs(quad.i5 - np.conj(quad.i2)) <= 1e-12
        assert abs(quad.i1.real) <= 1e-12 and abs(quad.i6.real) <= 1e-12


def test_quadrature_fourth_order_convergence():
    p = ModelParams(1.0, 0.8, 0.05)
    exact = integrals_closed(p, 2.0).i2
    err = [abs(integrals_quadrature(p, 2.0, n).i2 - exact) for n in (128, 256)]
    ratio = err[0] / err[1]
    assert 10.0 <= ratio <= 24.0  # ~2^4 for a fourth-order rule


def test_quadrature_rejects_small_or_odd_n():
    p = ModelParams(1.0, 0.8, 0.05)
    with pytest.raises(ValueError):
        integrals_quadrature(p, 1.0, 32)
    with pytest.raises(ValueError):
        integrals_quadrature(p, 1.0, 129)


def test_zeta_resonance_branch_and_limit():
    # one formula for every detuning: at delta = 0 it is the resonance limit,
    # and within 1e-9 of resonance it moves by O(delta t) only
    res = ModelParams(1.0, 1.0, 0.05)
    assert integrals_closed(res, 1.0).zeta == pytest.approx(ZETA_RES_T1, abs=1e-14)
    assert zeta_resonance_limit(res, 1.0) == pytest.approx(ZETA_RES_T1, abs=1e-14)
    for t in (0.5, 1.0, 2.0, 5.0, 20.0):
        limit = zeta_resonance_limit(res, t)
        assert abs(integrals_closed(res, t).zeta - limit) <= 1e-15 * abs(limit), t
    for t in (0.5, 1.0, 2.0):
        limit = zeta_resonance_limit(res, t)
        for w0 in (1.0 - 1e-9, 1.0 + 1e-9):
            near = integrals_closed(ModelParams(1.0, w0, 0.05), t).zeta
            assert abs(near - limit) <= 1e-8 * abs(limit)
    # quadrature cross-check just off resonance
    for w0 in (1.0 - 1e-6, 1.0 + 1e-6):
        p = ModelParams(1.0, w0, 0.05)
        quad = integrals_quadrature(p, 1.0, 1024).zeta
        assert abs(quad - ZETA_RES_T1) <= 1e-5 * abs(ZETA_RES_T1)


@pytest.mark.parametrize("t", [1e-3, 1e-2, 0.1, 0.5, 1.0, 2.0])
def test_zeta_relative_accuracy(t):
    # the branch-free zeta against 50-digit arithmetic of its defining
    # quotient, through resonance (delta = 0 takes the analytic limit)
    mpmath = pytest.importorskip("mpmath")
    deltas = [0.0] + [sign * 10.0**-k for k in range(1, 10) for sign in (1.0, -1.0)]
    with mpmath.workdps(50):
        for delta in deltas:
            p = ModelParams(1.0, 1.0 - delta, 0.05)
            w, w0, tm = mpmath.mpf(p.omega), mpmath.mpf(p.omega0), mpmath.mpf(t)
            if w == w0:
                e2 = mpmath.expj(2 * w * tm)
                want = (1 - e2) / (w * (w + w0)) + 1j * tm * (1 + e2) / (w + w0)
            else:
                num = (
                    w0 * mpmath.expj(2 * w * tm)
                    - w * mpmath.expj((w + w0) * tm)
                    + w * mpmath.expj((w - w0) * tm)
                    - w0
                )
                want = num / (w * (w * w - w0 * w0))
            got = integrals_closed(p, t).zeta
            assert abs(mpmath.mpc(got) - want) <= 1e-14 * abs(want), delta


@pytest.mark.parametrize("t", [1e-6, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0])
def test_closed_integrals_relative_accuracy(t):
    # I1, I6 and zeta from integrals_closed against 50-digit arithmetic of
    # their defining closed forms, through resonance and across the three
    # regions of _sinc_quotient, for small and large omega0 / omega
    mpmath = pytest.importorskip("mpmath")
    omega0s = [1.0 - sign * 10.0**-k for k in range(1, 10) for sign in (1.0, -1.0)]
    omega0s += [1.0, 0.01, 0.05, 0.2, 0.5, 2.0, 5.0, 20.0]
    with mpmath.workdps(50):
        tm = mpmath.mpf(t)

        def f(x):
            return tm / x - mpmath.sin(x * tm) / (x * x)

        for w0 in omega0s:
            p = ModelParams(1.0, w0, 0.05)
            w, w0m = mpmath.mpf(p.omega), mpmath.mpf(p.omega0)
            d, s = w - w0m, w + w0m
            if d == 0:
                e2 = mpmath.expj(2 * w * tm)
                zeta = (1 - e2) / (w * s) + 1j * tm * (1 + e2) / s
            else:
                num = w0m * mpmath.expj(2 * w * tm) - w * mpmath.expj(s * tm) + w * mpmath.expj(d * tm) - w0m
                zeta = num / (w * (w * w - w0m * w0m))
            ints = integrals_closed(p, t)
            if d == 0:
                assert ints.i1 == 0j
            else:
                assert abs(mpmath.mpc(ints.i1) + 2j * f(d)) <= 1e-14 * abs(2 * f(d)), w0
            assert abs(mpmath.mpc(ints.i6) + 2j * f(s)) <= 1e-14 * abs(2 * f(s)), w0
            assert abs(mpmath.mpc(ints.zeta) - zeta) <= 1e-14 * abs(zeta), w0


def test_zeta_resonance_limit_small_t():
    # against 50-digit arithmetic of the limit's defining form, from
    # omega t = 1e-6, where its two O(t) terms cancel, up to 2
    mpmath = pytest.importorskip("mpmath")
    p = ModelParams(1.0, 1.0, 0.05)
    with mpmath.workdps(50):
        for t in np.geomspace(1e-6, 2.0, 61):
            tm = mpmath.mpf(float(t))
            e2 = mpmath.expj(2 * tm)
            want = (1 - e2) / 2 + 1j * tm * (1 + e2) / 2
            got = zeta_resonance_limit(p, float(t))
            assert abs(mpmath.mpc(got) - want) <= 1e-14 * abs(want), t


def test_zeta_resonance_continuity():
    # closed form approaches the limit as omega0 -> omega, from both sides
    limit = zeta_resonance_limit(ModelParams(1.0, 1.0, 0.05), 1.0)
    for delta in (1e-4, 1e-6):
        for sign in (-1.0, 1.0):
            p = ModelParams(1.0, 1.0 + sign * delta, 0.05)
            z = integrals_closed(p, 1.0).zeta
            assert abs(z - limit) <= 10.0 * delta * abs(limit)
    p = ModelParams(1.0, 1.0 - 1e-6, 0.05)
    assert abs(integrals_closed(p, 1.0).zeta - limit) <= 1e-5 * abs(limit)


def test_zeta_finite_across_resonance_sweep():
    for w0 in np.linspace(0.9, 1.1, 41):
        z = integrals_closed(ModelParams(1.0, float(w0), 0.05), 1.0).zeta
        assert np.isfinite(z.real) and np.isfinite(z.imag)


def test_omega1_closed_basics():
    spec = HilbertSpec(8)
    zero = omega1_closed(ModelParams(1.0, 0.8, 0.0), spec, 1.0)
    assert spectral_norm(zero) == 0.0
    om1 = omega1_closed(ModelParams(1.3, 0.9, 0.2), spec, 2.4)
    assert anti_hermiticity_defect(om1) <= 1e-13


def test_omega1_closed_vs_quadrature():
    spec = HilbertSpec(8)
    p = ModelParams(1.0, 0.8, 0.05)
    om1c = omega1_closed(p, spec, 1.0)
    om1q = omega1_quadrature(p, spec, 1.0, 1024)
    assert spectral_norm(om1c - om1q) <= 1e-9


def test_omega1_quadrature_matches_stack_rule():
    # the two scalar Simpson sums weight the same nodes as -i sum_k w_k h(t_k)
    for fock in (6, 12):
        spec = HilbertSpec(fock)
        for w0 in (0.8, 1.0, 1.1):
            p = ModelParams(1.0, w0, 0.05)
            for t in (0.5, 2.0):
                fast = omega1_quadrature(p, spec, t, 1024)
                stack = omega1_stack_rule(p, spec, t, 1024)
                assert spectral_norm(fast - stack) <= 1e-13 * spectral_norm(stack), (fock, w0, t)


def test_omega1_resonance_branch_continuity():
    # (1 - e^{i d t})/d -> -i t as d -> 0; the evaluation is continuous there
    spec = HilbertSpec(6)
    t = 1.3
    exact = omega1_closed(ModelParams(1.0, 1.0, 0.05), spec, t)
    for sign in (-1.0, 1.0):
        near = omega1_closed(ModelParams(1.0, 1.0 + sign * 1e-9, 0.05), spec, t)
        assert spectral_norm(near - exact) <= 1e-8


def test_omega2_closed_basics():
    spec = HilbertSpec(8)
    zero = omega2_closed(ModelParams(1.0, 0.8, 0.0), spec, 1.0)
    assert spectral_norm(zero) == 0.0
    om2 = omega2_closed(ModelParams(1.0, 0.8, 0.05), spec, 1.0)
    assert anti_hermiticity_defect(om2) <= 1e-13


def test_second_order_operators_built_once_per_spec(monkeypatch):
    import jcmagnus.hilbert as hilbert

    spec = HilbertSpec(9)
    p = ModelParams(1.0, 0.8, 0.05)
    first = omega2_closed(p, spec, 1.0)
    first_table = commutator_table(spec)
    calls = []
    tensor = hilbert.tensor

    def counting_tensor(*args):
        calls.append(args)
        return tensor(*args)

    # every jcmagnus module that holds a reference to hilbert.tensor
    for name, mod in list(sys.modules.items()):
        if name.startswith("jcmagnus") and getattr(mod, "tensor", None) is tensor:
            monkeypatch.setattr(mod, "tensor", counting_tensor)
    second = omega2_closed(p, spec, 1.0)
    second_table = commutator_table(spec)
    assert calls == []
    assert np.array_equal(first, second)
    for (_, d1, c1), (_, d2, c2) in zip(first_table, second_table):
        assert np.array_equal(d1, d2) and np.array_equal(c1, c2)


def test_omega2_closed_vs_quadrature_buffered():
    spec = HilbertSpec(10)
    p = ModelParams(1.0, 0.8, 0.05)
    om2c = omega2_closed(p, spec, 1.0)
    om2q = omega2_quadrature(p, spec, 1.0, 1024)
    proj = project_buffer(spec, 2)
    assert spectral_norm(proj @ (om2c - om2q) @ proj) <= 1e-8


def test_omega2_quadrature_matches_literal_triangle_rule():
    # independent cross-check of the bilinear oracle: plain double loop over
    # h_rotated values with composite-Simpson weights in both directions,
    # below, on and above resonance
    spec = HilbertSpec(6)
    t, n = 1.0, 128
    outer_nodes = np.linspace(0.0, t, n + 1)
    wout = simpson_weights(n, t)
    for w0 in (0.8, 1.0, 1.1):
        p = ModelParams(1.0, w0, 0.05)
        total = np.zeros((spec.dim, spec.dim), dtype=complex)
        for i, t1 in enumerate(outer_nodes):
            if t1 == 0.0:
                continue
            win = simpson_weights(n, t1)
            inner = np.zeros_like(total)
            h1 = h_rotated(p, spec, float(t1))
            for j, t2 in enumerate(np.linspace(0.0, t1, n + 1)):
                h2 = h_rotated(p, spec, float(t2))
                inner += win[j] * (h1 @ h2 - h2 @ h1)
            total += wout[i] * inner
        literal = -0.5 * total
        fast = omega2_quadrature(p, spec, t, n)
        assert spectral_norm(fast - literal) <= 1e-12, w0


def test_omega2_resonance_branch_continuity():
    # on resonance only the sum-frequency shift and the squeezing term survive
    spec = HilbertSpec(8)
    t = 1.0
    exact = omega2_closed(ModelParams(1.0, 1.0, 0.05), spec, t)
    for sign in (-1.0, 1.0):
        near = omega2_closed(ModelParams(1.0, 1.0 + sign * 1e-7, 0.05), spec, t)
        assert spectral_norm(near - exact) <= 1e-9


def test_omega2_squeezing_block_structure():
    # the two-photon block of Omega_2 is exactly -(g^2/2) zeta sqrt((n+1)(n+2)) sz
    spec = HilbertSpec(9)
    p = ModelParams(1.0, 0.8, 0.05)
    t = 1.3
    om2 = omega2_closed(p, spec, t)
    zeta = integrals_closed(p, t).zeta
    for n in range(spec.fock_dim - 2):
        for atom, sz in ((0, 1.0), (1, -1.0)):
            row = spec.index(n + 2, atom)
            col = spec.index(n, atom)
            expected = -0.5 * p.g**2 * zeta * np.sqrt((n + 1) * (n + 2)) * sz
            assert om2[row, col] == pytest.approx(expected, abs=1e-15)


def test_commutator_table_identities():
    spec = HilbertSpec(8)
    table = commutator_table(spec)
    assert [label for label, _, _ in table] == [
        "[ad sm, a sp]",
        "[ad sm, ad sp]",
        "[ad sm, a sm]",
        "[ad sp, a sp]",
        "[a sp, a sm]",
        "[ad sp, a sm]",
    ]
    by_label = {label: (direct, closed) for label, direct, closed in table}
    # sigma_-^2 = 0 makes this one vanish exactly, truncation or not
    direct, closed = by_label["[ad sm, a sm]"]
    assert spectral_norm(direct) == 0.0 and spectral_norm(closed) == 0.0
    # a^2 sz needs no ladder commutator, so it is exact as well
    direct, closed = by_label["[a sp, a sm]"]
    assert spectral_norm(direct - closed) == 0.0
    # -(n sz + P_e) holds below the top Fock level
    direct, closed = by_label["[ad sm, a sp]"]
    block = 2 * (spec.fock_dim - 1)
    assert spectral_norm(direct[:block, :block] - closed[:block, :block]) <= 1e-14
    # every entry agrees on the buffered subspace
    proj = project_buffer(spec, 2)
    for _, direct, closed in table:
        assert spectral_norm(proj @ (direct - closed) @ proj) <= 1e-13


def test_squeeze_prediction():
    # r = |xi| and theta = arg(xi)/2 with xi = g^2 zeta sz, read off the exact readout
    p = ModelParams(1.0, 0.5, 0.05)
    excited = gaussian_squeezing(p, 1.0, "e")
    assert excited.r_pred == pytest.approx(0.0025 * abs(ZETA_1_05_T1), rel=1e-12)
    ground = gaussian_squeezing(p, 1.0, "g")
    assert ground.r_pred == pytest.approx(excited.r_pred, rel=1e-15)
    # xi flips sign between the sectors, so the squeeze axis turns by pi/2 mod pi
    turn = (ground.theta_pred - excited.theta_pred - np.pi / 2) % np.pi
    assert min(turn, np.pi - turn) <= 1e-12
    assert gaussian_squeezing(ModelParams(1.0, 0.5, 0.0), 1.0, "e").r_pred == 0.0
    with pytest.raises(ValueError, match="atom"):
        gaussian_squeezing(p, 1.0, "x")


def test_shift_rates_low_photon():
    p = ModelParams(1.0, 0.8, 0.05)
    g2 = p.g**2
    assert shift_rates(p, 0, "e") == (pytest.approx(g2 / 0.2), 0.0)
    assert shift_rates(p, 0, "g") == (0.0, pytest.approx(g2 / 1.8))
    with pytest.raises(ValueError):
        shift_rates(p, -1, "e")
    with pytest.raises(ValueError):
        shift_rates(p, 0, "x")
    # a photon number that is not an integer is named, not turned into a rate
    for bad in (1.5, 1.0, math.nan, np.float64(1.0), "1"):
        with pytest.raises(ValueError, match="photon number must be a non-negative integer"):
            shift_rates(p, bad, "e")
    assert shift_rates(p, np.int64(1), "e") == shift_rates(p, 1, "e")


def test_shift_rates_match_secular_diagonal():
    # (stark + bs) * t equals the diagonal of Omega_2 / i with the bounded
    # oscillatory parts added back; identity at the formula level
    spec = HilbertSpec(10)
    p = ModelParams(1.0, 0.8, 0.05)
    t = 1.7
    om2 = omega2_closed(p, spec, t)
    g2 = p.g**2
    d, s = p.delta, p.sigma
    for n in range(spec.fock_dim - 2):
        for atom, tag in ((0, "e"), (1, "g")):
            stark, bs = shift_rates(p, n, tag)
            idx = spec.index(n, atom)
            if tag == "e":
                osc = -g2 * ((n + 1) * math.sin(d * t) / d**2 - n * math.sin(s * t) / s**2)
            else:
                osc = -g2 * (-n * math.sin(d * t) / d**2 + (n + 1) * math.sin(s * t) / s**2)
            expected = 1j * ((stark + bs) * t + osc)
            assert om2[idx, idx] == pytest.approx(expected, abs=1e-13)


def test_convergence_margin():
    assert convergence_margin(ModelParams(1.0, 0.8, 0.0), 5.0) == 0.0
    assert convergence_margin(ModelParams(1.0, 0.8, 0.05), 1.0) == pytest.approx(0.0159, abs=1e-4)
    # physical cavity-QED scale: g = 1e6 rad/s over one microsecond
    assert convergence_margin(ModelParams(1e9, 8e8, 1e6), 1e-6) == pytest.approx(1.0 / math.pi)


def test_magnus_terms_antihermitian_over_grid():
    spec = HilbertSpec(8)
    for ratio in (0.5, 0.8, 1.0, 1.2):
        for g in (0.01, 0.1):
            for t in (0.3, 1.0, 3.0):
                p = ModelParams(1.0, ratio, g)
                om1 = omega1_closed(p, spec, t)
                om2 = omega2_closed(p, spec, t)
                assert anti_hermiticity_defect(om1) <= 1e-12 * max(1.0, spectral_norm(om1))
                assert anti_hermiticity_defect(om2) <= 1e-12 * max(1.0, spectral_norm(om2))


def test_omega2_shift_blocks_act_on_number_basis():
    # g = 0.1 on the ground sector: the Bloch-Siegert part enters with +n sz
    spec = HilbertSpec(6)
    p = ModelParams(1.0, 0.8, 0.1)
    t = 0.9
    om2 = omega2_closed(p, spec, t)
    fd = (p.delta * t - math.sin(p.delta * t)) / p.delta**2
    fs = (p.sigma * t - math.sin(p.sigma * t)) / p.sigma**2
    g2 = p.g**2
    idx = spec.index(3, 1)  # |3, g>
    expected = 1j * g2 * (fd * (-3.0) + fs * (3.0 + 1.0))
    assert om2[idx, idx] == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("fock", [6, 12, 24])
def test_generators_equal_kron_sums(fock):
    # h_rotated, h_rwa, omega1_closed, omega2_closed and the closed column of
    # commutator_table equal, entry for entry, sums of kron products built
    # here from the ladder and Pauli matrices
    from oracles import coupling_krons

    spec = HilbertSpec(fock)
    ad_sm, a_sp, ad_sp, a_sm = coupling_krons(spec)
    a, ad, eye = annihilation(spec), creation(spec), np.eye(fock)
    nsz = tensor(np.diag(np.arange(fock, dtype=float)), pauli("z"))
    closed = (
        -(nsz + tensor(eye, pauli("proj_e"))),
        -tensor(ad @ ad, pauli("z")),
        tensor(a @ a, pauli("z")),
        nsz - tensor(eye, pauli("proj_g")),
    )
    table = commutator_table(spec)
    for k, c in zip((0, 1, 4, 5), closed):
        assert np.array_equal(table[k][2], c)
    for w0, g, t in itertools.product((0.8, 1.0, 1.1), (0.0, 0.05, 0.2), (0.0, 0.7, 3.0)):
        p = ModelParams(1.0, w0, g)
        ed, es = np.exp(1j * p.delta * t), np.exp(1j * p.sigma * t)
        co = g * (1j * ed * ad_sm - 1j * np.exp(-1j * p.delta * t) * a_sp)
        assert np.array_equal(h_rwa(p, spec, t), co)
        assert np.array_equal(h_rotated(p, spec, t), co + g * (1j * es * ad_sp - 1j * np.exp(-1j * p.sigma * t) * a_sm))
        cd, cs = _phase_ramp(p.delta, t), _phase_ramp(p.sigma, t)
        om1 = 1j * g * (cd * ad_sm + np.conj(cd) * a_sp + cs * ad_sp + np.conj(cs) * a_sm)
        assert np.array_equal(omega1_closed(p, spec, t), om1)
        ints = integrals_closed(p, t)
        om2 = 0.5 * g * g * sum(i * c for i, c in zip((ints.i1, ints.i2, ints.i5, ints.i6), closed))
        assert np.array_equal(omega2_closed(p, spec, t), om2)
