import math

import numpy as np
import pytest

from jcmagnus.hilbert import ATOM_GROUND, HilbertSpec, annihilation, creation, expm_antiherm, tensor
from jcmagnus import observables
from jcmagnus.jc_model import ModelParams
from jcmagnus.magnus import omega2_closed
from jcmagnus.observables import (
    SqueezingReport,
    StateVector,
    _variance_extrema,
    basis_state,
    bs_phase_probe,
    evolve,
    gaussian_squeezing,
    populations,
    quadrature_variance,
    squeezing_report,
)
from jcmagnus.propagator import u_exact, u_rwa

from conftest import angle_diff_mod_pi


def test_state_vector_validation():
    spec = HilbertSpec(4)
    with pytest.raises(ValueError, match="length"):
        StateVector(np.ones(5), spec)
    with pytest.raises(ValueError, match="norm"):
        StateVector(np.ones(8), spec)
    psi = basis_state(spec, 2, "g")
    assert psi.amplitudes[spec.index(2, 1)] == 1.0
    with pytest.raises(ValueError):
        basis_state(spec, 0, "x")


def test_evolve_identity_and_checks(rng):
    spec = HilbertSpec(4)
    psi = basis_state(spec, 1, "e")
    out = evolve(np.eye(spec.dim), psi)
    assert np.array_equal(out.amplitudes, psi.amplitudes)
    with pytest.raises(ValueError, match="unitary"):
        evolve(np.eye(spec.dim) * 1.001, psi)
    with pytest.raises(ValueError, match="shape"):
        evolve(np.eye(6), psi)


def test_zero_coupling_leaves_state_alone():
    spec = HilbertSpec(6)
    p = ModelParams(1.0, 0.8, 0.0)
    u = u_exact(p, spec, 2.0)
    psi = evolve(u, basis_state(spec, 0, "e"))
    assert np.array_equal(psi.amplitudes, basis_state(spec, 0, "e").amplitudes)


def test_excited_vacuum_develops_photons():
    # population transfer out of |0, e> exists for any g > 0
    spec = HilbertSpec(8)
    p = ModelParams(1.0, 0.8, 0.05)
    u = u_exact(p, spec, 1.0)
    psi = evolve(u, basis_state(spec, 0, "e"))
    _, _, nbar = populations(psi)
    assert nbar > 1e-6


def test_vacuum_quadrature_isotropy():
    spec = HilbertSpec(16)
    for atom in ("e", "g"):
        vac = basis_state(spec, 0, atom)
        for theta in (0.0, np.pi / 4, np.pi / 2):
            assert quadrature_variance(vac, theta) == pytest.approx(0.25, abs=1e-12)


def test_fock_one_quadrature_variance():
    spec = HilbertSpec(16)
    one = basis_state(spec, 1, "g")
    for theta in (0.0, 0.7, 2.1):
        assert quadrature_variance(one, theta) == pytest.approx(0.75, abs=1e-12)


def _moments(psi):
    """<a^2> and <a^dag a> of the field marginal of psi, whose <a> is 0."""
    a = tensor(annihilation(psi.spec), np.eye(2))
    a_psi = a @ psi.amplitudes
    assert abs(np.vdot(psi.amplitudes, a_psi)) <= 1e-15
    return complex(np.vdot(psi.amplitudes, a @ a_psi)), float(np.vdot(a_psi, a_psi).real)


def test_squeezed_vacuum_variance_matches_exponential():
    # build exp((xi* a^2 - xi a^dag^2)/2) directly; the closed-form extrema
    # bound a dense theta grid of the operator-level variance
    spec = HilbertSpec(24)
    r, phi = 0.1, 0.6
    xi = r * np.exp(1j * phi)
    a = annihilation(spec)
    ad = creation(spec)
    gen = 0.5 * (np.conj(xi) * (a @ a) - xi * (ad @ ad))
    squeeze = expm_antiherm(tensor(gen, np.eye(2, dtype=complex)))
    psi = evolve(squeeze, basis_state(spec, 0, "e"))
    var_min, theta_min, var_max = _variance_extrema(*_moments(psi))
    assert var_min == pytest.approx(math.exp(-0.2) / 4.0, abs=1e-9)
    assert var_max == pytest.approx(math.exp(0.2) / 4.0, abs=1e-9)
    assert angle_diff_mod_pi(theta_min, phi / 2.0) <= 1e-5
    grid = [quadrature_variance(psi, th) for th in np.linspace(0.0, np.pi, 2001)]
    assert var_min <= min(grid) + 1e-13 and max(grid) <= var_max + 1e-13
    assert min(grid) - var_min <= 1e-6 and var_max - max(grid) <= 1e-6
    assert quadrature_variance(psi, theta_min) == pytest.approx(var_min, abs=1e-13)
    assert quadrature_variance(psi, theta_min + np.pi / 2.0) == pytest.approx(var_max, abs=1e-13)


def test_populations_examples():
    spec = HilbertSpec(5)
    assert populations(basis_state(spec, 0, "e")) == (1.0, 0.0, 0.0)
    assert populations(basis_state(spec, 3, "g")) == (0.0, 1.0, 3.0)
    amp = np.zeros(spec.dim, dtype=complex)
    amp[spec.index(0, 0)] = 1.0 / np.sqrt(2.0)
    amp[spec.index(1, 1)] = 1.0 / np.sqrt(2.0)
    p_e, p_g, nbar = populations(StateVector(amp, spec))
    assert p_e == pytest.approx(0.5, abs=1e-12)
    assert p_g == pytest.approx(0.5, abs=1e-12)
    assert nbar == pytest.approx(0.5, abs=1e-12)
    assert p_e + p_g == pytest.approx(1.0, abs=1e-12)


def test_squeezing_report_zero_coupling():
    rep = squeezing_report(ModelParams(1.0, 0.5, 0.0), HilbertSpec(16), 1.0, "e")
    assert rep.r_pred == 0.0
    assert rep.var_min == pytest.approx(0.25, abs=1e-12)
    assert rep.var_max == pytest.approx(0.25, abs=1e-12)
    # every angle is a minimum; the readout names 0, as theta_pred does
    assert rep.theta_min == 0.0 == rep.theta_pred


def test_squeezing_report_requires_room():
    with pytest.raises(ValueError, match="fock_dim"):
        squeezing_report(ModelParams(1.0, 0.5, 0.05), HilbertSpec(12), 1.0, "e")
    with pytest.raises(ValueError, match="atom"):
        squeezing_report(ModelParams(1.0, 0.5, 0.05), HilbertSpec(16), 1.0, "q")


def test_squeezing_report_reference_point():
    # (omega, omega0, g) = (1, 0.5, 0.05), t = 1: r = g^2 |zeta| ~ 3.913e-4
    p = ModelParams(1.0, 0.5, 0.05)
    rep = squeezing_report(p, HilbertSpec(24), 1.0, "e")
    assert rep.r_pred == pytest.approx(3.9126699e-4, rel=1e-6)
    assert rep.var_min == pytest.approx(0.25 * math.exp(-2.0 * rep.r_pred), abs=1e-9)
    assert rep.var_min <= 0.25 <= rep.var_max
    assert rep.product_check >= 1.0 / 16.0 - 1e-12


def test_squeezing_report_atom_parity():
    # flipping the atom sector flips xi, shifting the squeeze axis by pi/2
    p = ModelParams(1.0, 0.5, 0.05)
    spec = HilbertSpec(24)
    rep_e = squeezing_report(p, spec, 1.0, "e")
    rep_g = squeezing_report(p, spec, 1.0, "g")
    assert rep_e.var_min == pytest.approx(rep_g.var_min, abs=1e-12)
    assert rep_e.var_max == pytest.approx(rep_g.var_max, abs=1e-12)
    # the number-shift part rotates the squeeze axis by O(g^2 f) with opposite
    # sign in the two sectors, so the pi/2 offset holds to ~2e-4, not exactly
    assert angle_diff_mod_pi(rep_e.theta_min, rep_g.theta_min + np.pi / 2.0) <= 1e-3
    for rep in (rep_e, rep_g):
        assert angle_diff_mod_pi(rep.theta_min, rep.theta_pred) <= 1e-3


def test_squeezing_report_one_block_matches_full_exponential():
    # exponentiating only the parity block of vacuum (x) |atom> gives the
    # readout of the full exp(Omega_2) to rounding
    p = ModelParams(1.0, 0.8, 0.05)
    spec = HilbertSpec(24)
    for t in (1.0, 5.0):
        for atom in ("e", "g"):
            full = evolve(expm_antiherm(omega2_closed(p, spec, t)), basis_state(spec, 0, atom))
            var_min, theta_min, var_max = _variance_extrema(*_moments(full))
            rep = squeezing_report(p, spec, t, atom)
            assert abs(rep.var_min - var_min) <= 1e-15 and abs(rep.var_max - var_max) <= 1e-15, (t, atom)
            assert angle_diff_mod_pi(rep.theta_min, theta_min) <= 1e-10, (t, atom)


def test_squeezing_report_rejects_non_unitary_exponential(monkeypatch):
    # the readout's unitarity guard sits on the one exponentiated block
    p = ModelParams(1.0, 0.8, 0.05)
    monkeypatch.setattr(observables, "expm_antiherm", lambda gen: 1.001 * expm_antiherm(gen))
    with pytest.raises(ValueError, match="not unitary"):
        squeezing_report(p, HilbertSpec(24), 1.0, "e")


def test_gaussian_squeezing_matches_fock_readout():
    # the 2x2 Bogoliubov form of exp(Omega_2) reproduces the truncated-Fock
    # readout, including at t = 10 where it departs from e^{-2r}/4 by 4.6e-6;
    # both take r_pred and theta_pred from the same squeeze amplitude xi
    p = ModelParams(1.0, 0.8, 0.05)
    spec = HilbertSpec(24)
    for t in (1.0, 2.0, 5.0, 10.0):
        for atom in ("e", "g"):
            rep = squeezing_report(p, spec, t, atom)
            exact = gaussian_squeezing(p, t, atom)
            assert abs(rep.var_min - exact.var_min) <= 1e-15, (t, atom)
            assert angle_diff_mod_pi(rep.theta_min, exact.theta_min) <= 1e-10, (t, atom)
            assert (exact.r_pred, exact.theta_pred) == (rep.r_pred, rep.theta_pred), (t, atom)
    free = gaussian_squeezing(ModelParams(1.0, 0.8, 0.0), 1.0, "e")
    assert (free.var_min, free.theta_min) == (0.25, 0.0)
    with pytest.raises(ValueError, match="atom"):
        gaussian_squeezing(p, 1.0, "q")


def test_gaussian_squeezing_reduces_to_paper_prediction():
    # at t = 1 the number phase is negligible and the exact minimum is the
    # paper's e^{-2r}/4 with r = g^2 |zeta|, at theta = arg(xi)/2
    p = ModelParams(1.0, 0.8, 0.05)
    for atom in ("e", "g"):
        exact = gaussian_squeezing(p, 1.0, atom)
        assert abs(exact.var_min - 0.25 * math.exp(-2.0 * exact.r_pred)) <= 2e-11
        assert angle_diff_mod_pi(exact.theta_min, exact.theta_pred) <= 1e-3


def test_uncertainty_product_for_evolved_states():
    spec = HilbertSpec(16)
    p = ModelParams(1.0, 0.8, 0.05)
    u = u_exact(p, spec, 1.0)
    for n, atom in ((0, "e"), (0, "g"), (2, "g")):
        psi = evolve(u, basis_state(spec, n, atom))
        for theta in (0.0, 0.3, 1.1):
            prod = quadrature_variance(psi, theta) * quadrature_variance(psi, theta + np.pi / 2)
            assert prod >= 1.0 / 16.0 - 1e-12


def test_bs_phase_probe_zero_coupling():
    measured, predicted = bs_phase_probe(ModelParams(1.0, 0.9, 0.0), HilbertSpec(8), 20.0)
    assert measured == 0.0 and predicted == 0.0


def test_bs_phase_probe_reference_point():
    # predicted = g^2 t / sigma = 0.0004 * 20 / 1.9 ~ 4.21e-3 rad
    p = ModelParams(1.0, 0.9, 0.02)
    measured, predicted = bs_phase_probe(p, HilbertSpec(12), 20.0)
    assert predicted == pytest.approx(0.02**2 * 20.0 / 1.9, rel=1e-12)
    assert abs(measured - predicted) <= 0.25 * predicted


def test_bs_phase_probe_quadratic_scaling():
    spec = HilbertSpec(10)
    _, p1 = bs_phase_probe(ModelParams(1.0, 0.9, 0.01), spec, 20.0)
    _, p2 = bs_phase_probe(ModelParams(1.0, 0.9, 0.02), spec, 20.0)
    assert p2 / p1 == pytest.approx(4.0, rel=1e-12)


def test_bs_phase_probe_one_eigh_call(monkeypatch):
    # both propagators are read from one propagator_bundle, whose four
    # generators go in one stacked eigh call, and the phases are the entries
    # of u_exact and u_rwa at |0, g>
    calls = []
    real_eigh = np.linalg.eigh

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return real_eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    p, spec, t = ModelParams(1.0, 0.9, 0.02), HilbertSpec(12), 20.0
    measured, _ = bs_phase_probe(p, spec, t)
    assert calls == [(8, 12, 12)]
    idx = spec.index(0, ATOM_GROUND)
    monkeypatch.undo()
    want = np.angle(u_exact(p, spec, t)[idx, idx]) - np.angle(u_rwa(p, spec, t)[idx, idx])
    assert measured == (want + np.pi) % (2.0 * np.pi) - np.pi


def test_squeezing_report_fields():
    rep = squeezing_report(ModelParams(1.0, 0.5, 0.05), HilbertSpec(16), 1.0, "e")
    assert isinstance(rep, SqueezingReport)
    assert 0.0 <= rep.theta_min < np.pi
    assert 0.0 <= rep.theta_pred < np.pi
