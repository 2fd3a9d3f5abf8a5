import numpy as np
import pytest

from jcmagnus.hilbert import ATOM_EXCITED, ATOM_GROUND, HilbertSpec, annihilation, creation, pauli, spectral_norm, tensor
from jcmagnus.jc_model import (
    ModelParams,
    frame_phases,
    h_full,
    h_rotated,
    h_rwa,
    rotation_chain_residual,
    verify_bch,
)
from oracles import h_rotated_stack, h_rwa_stack


def test_params_validation():
    with pytest.raises(ValueError, match="omega "):
        ModelParams(0.0, 1.0, 0.1)
    with pytest.raises(ValueError, match="omega0"):
        ModelParams(1.0, -0.5, 0.1)
    with pytest.raises(ValueError, match="g "):
        ModelParams(1.0, 1.0, -0.1)
    p = ModelParams(1.0, 0.8, 0.05)
    assert p.delta == pytest.approx(0.2)
    assert p.sigma == pytest.approx(1.8)


def test_h_full_uncoupled_spectrum():
    spec = HilbertSpec(5)
    p = ModelParams(1.3, 0.7, 0.0)
    h = h_full(p, spec)
    expected = np.array(
        [1.3 * n + s * 0.35 for n in range(5) for s in (1.0, -1.0)]
    )
    assert np.allclose(np.diag(h), expected, atol=1e-14)
    assert spectral_norm(h - np.diag(np.diag(h))) == 0.0


def test_h_full_hermitian(rng):
    spec = HilbertSpec(6)
    for _ in range(5):
        p = ModelParams(*rng.uniform(0.2, 3.0, size=2), rng.uniform(0.0, 0.5))
        h = h_full(p, spec)
        assert spectral_norm(h - h.conj().T) <= 1e-13 * spectral_norm(h)


def test_h_full_coupling_entry():
    # <1,g| i g (a^dag - a)(s+ + s-) |0,e> = i g, expanded by hand on the basis
    spec = HilbertSpec(4)
    h = h_full(ModelParams(1.0, 1.0, 0.1), spec)
    row = spec.index(1, 1)
    col = spec.index(0, 0)
    assert h[row, col] == pytest.approx(0.1j, abs=1e-15)


def test_h_rotated_at_zero_matches_interaction():
    spec = HilbertSpec(6)
    p = ModelParams(1.0, 0.8, 0.05)
    sx = pauli("plus") + pauli("minus")
    expected = 1j * p.g * tensor(creation(spec) - annihilation(spec), sx)
    assert spectral_norm(h_rotated(p, spec, 0.0) - expected) <= 1e-15


def test_h_rotated_zero_coupling():
    spec = HilbertSpec(4)
    assert spectral_norm(h_rotated(ModelParams(1.0, 0.8, 0.0), spec, 0.9)) == 0.0


@pytest.mark.parametrize("t", [0.0, 0.37, 1.0, 2.6, 7.3])
def test_hermiticity_of_all_hamiltonians(t):
    spec = HilbertSpec(7)
    p = ModelParams(1.0, 0.8, 0.05)
    for h in (h_full(p, spec), h_rotated(p, spec, t), h_rwa(p, spec, t)):
        norm = max(1.0, spectral_norm(h))
        assert spectral_norm(h - h.conj().T) <= 1e-13 * norm


def test_rotation_chain_identity():
    # core theorem: closed-form h_rotated equals the numerically rotated h_full
    spec = HilbertSpec(10)
    p = ModelParams(1.0, 0.8, 0.05)
    href = spectral_norm(h_full(p, spec))
    assert rotation_chain_residual(p, spec, 0.37) <= 1e-12 * href
    for t in np.linspace(0.0, 2.0, 5):
        assert rotation_chain_residual(p, spec, float(t)) <= 1e-12 * href


def test_rwa_difference_is_counter_rotating_only():
    spec = HilbertSpec(6)
    p = ModelParams(1.0, 0.8, 0.05)
    support = tensor(creation(spec), pauli("plus")) + tensor(annihilation(spec), pauli("minus"))
    mask = np.abs(support) > 0
    for t in (0.0, 0.4, 1.7):
        diff = h_rotated(p, spec, t) - h_rwa(p, spec, t)
        assert np.all(np.abs(diff)[~mask] == 0.0)
        assert spectral_norm(diff) > 0


def test_rwa_on_resonance_form():
    spec = HilbertSpec(5)
    p = ModelParams(1.0, 1.0, 0.07)
    expected = 1j * p.g * (
        tensor(creation(spec), pauli("minus")) - tensor(annihilation(spec), pauli("plus"))
    )
    for t in (0.0, 0.9, 4.2):
        assert spectral_norm(h_rwa(p, spec, t) - expected) <= 1e-15


def test_rwa_norm_time_independent():
    spec = HilbertSpec(8)
    p = ModelParams(1.0, 0.8, 0.05)
    norms = [spectral_norm(h_rwa(p, spec, t)) for t in np.linspace(0.0, 5.0, 11)]
    assert max(norms) - min(norms) <= 1e-12 * max(norms)


def test_rwa_residual_linear_in_g():
    spec = HilbertSpec(6)
    t = 0.8
    for g in (0.1, 0.01, 0.001):
        p = ModelParams(1.0, 0.8, g)
        diff = spectral_norm(h_rotated(p, spec, t) - h_rwa(p, spec, t))
        full = spectral_norm(h_rotated(p, spec, t))
        assert diff <= full  # counter-rotating part never dominates
        assert diff == pytest.approx(g * spectral_norm(
            h_rotated(ModelParams(1.0, 0.8, 1.0), spec, t)
            - h_rwa(ModelParams(1.0, 0.8, 1.0), spec, t)
        ), rel=1e-12)


def test_frames_basic():
    # D(t) = exp(i t frame_phases) is the identity at t = 0, F has the entries
    # omega n +- omega0 / 2, and the atom rotation is -1 after one atomic period
    spec = HilbertSpec(5)
    p = ModelParams(1.7, 0.9, 0.02)
    phases = frame_phases(p, spec)
    assert np.array_equal(np.exp(1j * 0.0 * phases), np.ones(10))
    for n in range(5):
        assert phases[spec.index(n, ATOM_EXCITED)] == pytest.approx(p.omega * n + 0.5 * p.omega0, abs=1e-14)
        assert phases[spec.index(n, ATOM_GROUND)] == pytest.approx(p.omega * n - 0.5 * p.omega0, abs=1e-14)
    atom = phases - p.omega * np.repeat(np.arange(5), 2)
    assert np.allclose(np.exp(1j * (2.0 * np.pi / p.omega0) * atom), -np.ones(10), atol=1e-12)


def test_verify_bch():
    assert verify_bch(ModelParams(1.0, 0.8, 0.05), HilbertSpec(8), 0.0) == 0.0
    assert verify_bch(ModelParams(1.0, 0.8, 0.05), HilbertSpec(8), 0.7) <= 1e-12
    assert verify_bch(ModelParams(2.3, 0.8, 0.05), HilbertSpec(16), 5.1) <= 1e-12


def test_stacks_match_pointwise():
    spec = HilbertSpec(6)
    p = ModelParams(1.0, 0.8, 0.05)
    ts = np.array([0.0, 0.3, 1.1, 4.0])
    rot = h_rotated_stack(p, spec, ts)
    rwa = h_rwa_stack(p, spec, ts)
    for k, t in enumerate(ts):
        assert np.array_equal(rot[k], h_rotated(p, spec, float(t)))
        assert np.array_equal(rwa[k], h_rwa(p, spec, float(t)))


def test_frame_phase_conjugation():
    # h_rotated(t) = D(t) h_rotated(0) D(t)^dag with D = exp(i t frame_phases);
    # this identity underlies the fast stepped propagator.
    spec = HilbertSpec(7)
    p = ModelParams(1.0, 0.8, 0.05)
    phases = frame_phases(p, spec)
    h0 = h_rotated(p, spec, 0.0)
    h0_rwa = h_rwa(p, spec, 0.0)
    for t in (0.3, 1.0, 2.7):
        d = np.exp(1j * phases * t)
        assert spectral_norm(d[:, None] * h0 * d.conj()[None, :] - h_rotated(p, spec, t)) <= 1e-14
        assert spectral_norm(d[:, None] * h0_rwa * d.conj()[None, :] - h_rwa(p, spec, t)) <= 1e-14
