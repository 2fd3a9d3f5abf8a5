import numpy as np
import pytest

from jcmagnus.hilbert import HilbertSpec, annihilation, commutator, creation, spectral_norm, tensor
from jcmagnus.jc_model import ModelParams, frame_phases, h_rwa
from jcmagnus.propagator import (
    _parity_block_norms,
    _parity_blocks,
    error_report,
    phase_aligned_distance,
    phase_aligned_distances,
    project_buffer,
    propagator_bundle,
    u_exact,
    u_magnus,
    u_rwa,
    unitarity_defect,
)
from conftest import random_antihermitian, random_unitary
from oracles import (
    eigenphase_arc_distance,
    midpoint_extrapolated,
    midpoint_product,
    phase_scan_distance,
)

PARAMS = ModelParams(1.0, 0.8, 0.05)


def test_project_buffer_properties():
    spec = HilbertSpec(8)
    assert np.array_equal(project_buffer(spec, 0), np.eye(16))
    p = project_buffer(spec, 3)
    assert np.trace(p).real == pytest.approx(2 * (8 - 3))
    assert spectral_norm(p @ p - p) == 0.0
    assert spectral_norm(p - p.conj().T) == 0.0
    with pytest.raises(ValueError):
        project_buffer(spec, 7)
    with pytest.raises(ValueError):
        project_buffer(spec, -1)


def test_projected_ladder_commutator_is_identity():
    spec = HilbertSpec(8)
    lifted = tensor(commutator(annihilation(spec), creation(spec)), np.eye(2, dtype=complex))
    for buffer in (1, 2, 3):
        p = project_buffer(spec, buffer)
        assert spectral_norm(p @ lifted @ p - p) <= 1e-14


def test_trivial_propagators():
    spec = HilbertSpec(6)
    assert np.array_equal(u_exact(ModelParams(1.0, 0.8, 0.0), spec, 3.0), np.eye(12))
    assert np.array_equal(u_exact(PARAMS, spec, 0.0), np.eye(12))
    assert np.array_equal(u_rwa(ModelParams(1.0, 0.8, 0.0), spec, 2.0), np.eye(12))
    assert np.array_equal(u_magnus(ModelParams(1.0, 0.8, 0.0), spec, 1.0, 1), np.eye(12))


def test_stepping_validation():
    spec = HilbertSpec(6)
    with pytest.raises(ValueError):
        u_exact(PARAMS, spec, -1.0)
    with pytest.raises(ValueError):
        u_rwa(PARAMS, spec, -1.0)
    with pytest.raises(ValueError):
        u_magnus(PARAMS, spec, 1.0, 3)


@pytest.mark.parametrize("steps", [1, 5, 64, 129])
@pytest.mark.parametrize("rwa", [False, True])
def test_fast_product_matches_reference(steps, rwa):
    # The propagator over [0, t] is the ordered product of the propagators
    # over `steps` equal slices, and the slice starting at s is the one from 0
    # conjugated by the frame phase D(s) = exp(i s F).
    spec = HilbertSpec(8)
    t = 1.3
    dt = t / steps
    prop = u_rwa if rwa else u_exact
    phases = frame_phases(PARAMS, spec)
    piece = prop(PARAMS, spec, dt)
    product = np.eye(spec.dim, dtype=complex)
    for k in range(steps):
        d = np.exp(1j * k * dt * phases)
        product = (d[:, None] * piece * d.conj()[None, :]) @ product
    assert spectral_norm(product - prop(PARAMS, spec, t)) <= 1e-11
    assert unitarity_defect(product) <= 1e-12


def test_second_order_self_convergence():
    # the midpoint oracle converges to the exact propagator at second order
    spec = HilbertSpec(10)
    ue = u_exact(PARAMS, spec, 1.0)
    e1, e2, e3 = (
        spectral_norm(midpoint_product(PARAMS, spec, 1.0, m, rwa=False) - ue)
        for m in (64, 128, 256)
    )
    assert 3.5 <= e1 / e2 <= 4.5
    assert 3.5 <= e2 / e3 <= 4.5


@pytest.mark.parametrize("fock", [8, 12])
@pytest.mark.parametrize("w0, g", [(0.8, 0.05), (1.0, 0.2)])
@pytest.mark.parametrize("t", [0.5, 2.0])
@pytest.mark.parametrize("rwa", [False, True])
def test_propagators_match_midpoint_oracle(fock, w0, g, t, rwa):
    spec = HilbertSpec(fock)
    p = ModelParams(1.0, w0, g)
    u = u_rwa(p, spec, t) if rwa else u_exact(p, spec, t)
    assert spectral_norm(u - midpoint_extrapolated(p, spec, t, 256, rwa)) <= 1e-9


def test_u_rwa_constant_hamiltonian_on_resonance():
    # at delta = 0 the RWA Hamiltonian is time independent, so one exponential
    # of -i t H is its propagator
    from jcmagnus.hilbert import expm_antiherm

    spec = HilbertSpec(8)
    p = ModelParams(1.0, 1.0, 0.05)
    t = 1.7
    direct = expm_antiherm(-1j * t * h_rwa(p, spec, 0.0))
    assert phase_aligned_distance(u_rwa(p, spec, t), direct) <= 1e-12


def test_rwa_error_decreases_with_sum_frequency():
    # fixed detuning, growing sigma: the counter-rotating error dies off
    spec = HilbertSpec(8)
    proj = project_buffer(spec, 2)
    errs = []
    for omega in (1.0, 2.0, 4.0):
        p = ModelParams(omega, omega - 0.2, 0.05)
        ue = u_exact(p, spec, 1.0)
        ur = u_rwa(p, spec, 1.0)
        errs.append(phase_aligned_distance(ue, ur, proj))
    assert errs[0] > errs[1] > errs[2]


def test_magnus_errors_and_halving():
    spec = HilbertSpec(10)
    proj = project_buffer(spec, 2)

    def errors(g):
        p = ModelParams(1.0, 0.8, g)
        ue = u_exact(p, spec, 1.0)
        e1 = phase_aligned_distance(ue, u_magnus(p, spec, 1.0, 1), proj)
        e2 = phase_aligned_distance(ue, u_magnus(p, spec, 1.0, 2), proj)
        return e1, e2

    e1_hi, e2_hi = errors(0.04)
    e1_lo, e2_lo = errors(0.02)
    assert e2_hi < e1_hi and e2_lo < e1_lo
    assert 3.0 <= e1_hi / e1_lo <= 5.5
    assert 6.0 <= e2_hi / e2_lo <= 10.0


def test_error_report_zero_coupling():
    spec = HilbertSpec(6)
    _, table = error_report(ModelParams(1.0, 0.8, 0.0), spec, 1.0)
    for key in ("err_rwa", "err_magnus1", "err_magnus2"):
        assert table[key] <= 1e-12
    assert table["convergence_margin"] == 0.0


def test_phase_alignment_invariance():
    spec = HilbertSpec(8)
    ue = u_exact(PARAMS, spec, 1.0)
    assert phase_aligned_distance(ue, np.exp(0.83j) * ue) <= 1e-9
    um = u_magnus(PARAMS, spec, 1.0, 2)
    d1 = phase_aligned_distance(ue, um)
    d2 = phase_aligned_distance(ue, np.exp(-1.2j) * um)
    assert d1 == pytest.approx(d2, abs=1e-9)


# Fock 12 across detuning, coupling and time, plus the benchmark's report sizes.
PHASE_GRID = [
    (12, w0, g, t)
    for w0 in (0.8, 0.9, 1.0, 1.1)
    for g in (0.02, 0.05, 0.2)
    for t in (0.5, 1.0, 3.0, 8.0)
] + [(fock, w0, g, 1.0) for fock in (24, 48) for w0 in (0.8, 1.0) for g in (0.02, 0.05)]
PAIRS = {
    "err_rwa": ("u_exact", "u_rwa"),
    "err_magnus1": ("u_exact", "u_magnus1"),
    "err_magnus2": ("u_exact", "u_magnus2"),
    "rwa_vs_magnus1": ("u_rwa", "u_magnus1"),
    "rwa_vs_magnus2": ("u_rwa", "u_magnus2"),
    "magnus1_vs_magnus2": ("u_magnus1", "u_magnus2"),
}


@pytest.mark.parametrize("fock, w0, g, t", PHASE_GRID)
def test_phase_alignment_matches_scan_oracle(fock, w0, g, t):
    spec = HilbertSpec(fock)
    proj = project_buffer(spec, 2)
    bundle, table = error_report(ModelParams(1.0, w0, g), spec, t)
    for name, (k1, k2) in PAIRS.items():
        u1, u2 = getattr(bundle, k1), getattr(bundle, k2)
        want = phase_scan_distance(u1, u2, proj)
        assert abs(table[name] - want) <= 1e-9, name
        rotated = phase_aligned_distance(np.exp(2.1j) * u1, np.exp(-0.7j) * u2, proj)
        assert abs(rotated - want) <= 1e-9, name


@pytest.mark.parametrize("fock, w0, g, t", [p for p in PHASE_GRID if p[0] in (12, 24)])
def test_phase_alignment_exact_to_rounding(fock, w0, g, t):
    # kinks, where the top two singular values cross, included: against the
    # scan refined to rounding (buffer 2) and the eigenphase closed form (buffer 0)
    spec = HilbertSpec(fock)
    bundle = propagator_bundle(ModelParams(1.0, w0, g), spec, t)
    for buffer in (2, 0):
        proj = project_buffer(spec, buffer)
        for name, (k1, k2) in PAIRS.items():
            u1, u2 = getattr(bundle, k1), getattr(bundle, k2)
            if buffer == 0:
                want = eigenphase_arc_distance(u1, u2)
            else:
                want = phase_scan_distance(u1, u2, proj)
            got = phase_aligned_distance(u1, u2, proj)
            assert abs(got - want) <= 1e-12 * want + 1e-15, (name, buffer, got, want)


def test_eigenphase_oracle_matches_scan_oracle():
    # the two references agree where both apply (unitaries, no buffer)
    spec = HilbertSpec(8)
    bundle = propagator_bundle(ModelParams(1.0, 0.9, 0.2), spec, 3.0)
    for k1, k2 in PAIRS.values():
        u1, u2 = getattr(bundle, k1), getattr(bundle, k2)
        want = eigenphase_arc_distance(u1, u2)
        assert abs(phase_scan_distance(u1, u2) - want) <= 1e-12 * want + 1e-15, (k1, k2)


@pytest.mark.parametrize("g", [0.0, 0.05])
def test_phase_alignment_degenerate_inputs(g):
    # identical and globally rotated arguments give zero and rounding-level
    # distances without a RuntimeWarning; at g = 0 u is the identity, so
    # every singular value of u1 - e^{i phi} u2 is tied
    spec = HilbertSpec(8)
    proj = project_buffer(spec, 2)
    u = u_exact(ModelParams(1.0, 0.8, g), spec, 1.0)
    for p in (None, proj):
        assert phase_aligned_distance(u, u, p) == 0.0
        assert phase_aligned_distance(u, np.exp(0.83j) * u, p) <= 1e-15


def test_phase_alignment_without_parity_structure(rng):
    # random unitaries couple every index, so the distance takes the
    # single-block path, and they are far apart, so the whole circle is
    # scanned: against the eigenphase closed form without a projector, and
    # against the scan oracle, which refines every scan point the Lipschitz
    # bound leaves open, with one
    proj = project_buffer(HilbertSpec(5), 1)
    haar = [(random_unitary(rng, 10), random_unitary(rng, 10)) for _ in range(8)]
    for u1, u2 in haar:
        want = eigenphase_arc_distance(u1, u2)
        assert abs(phase_aligned_distance(u1, u2) - want) <= 1e-12 * want + 1e-15
        want = phase_scan_distance(u1, u2, proj)
        assert abs(phase_aligned_distance(u1, u2, proj) - want) <= 1e-12 * want + 1e-15
    u1, u2 = haar[0]
    near = u1 @ (np.eye(10) + 1e-3 * (u2 - u2.conj().T))
    for p in (None, proj):
        want = phase_scan_distance(u1, near, p)
        assert abs(phase_aligned_distance(u1, np.exp(1.3j) * near, p) - want) <= 1e-9


@pytest.mark.parametrize("seed", [5, 20260809])
def test_phase_alignment_global_minimum_far_apart(seed):
    # Haar pairs are far apart, so the whole circle is scanned and f has
    # several local minima, some within one scan step of each other: the
    # result is the global minimum, the eigenphase closed form
    rng = np.random.default_rng(seed)
    for k in range(300):
        u1, u2 = random_unitary(rng, 8), random_unitary(rng, 8)
        want = eigenphase_arc_distance(u1, u2)
        got = phase_aligned_distance(u1, u2)
        assert abs(got - want) <= 1e-12 * want + 1e-15, (k, got, want)


def test_phase_aligned_distances_batch_independent():
    # one call over a mix of pairs returns, bit for bit, what each pair
    # gives alone: library pairs at two sizes (certified arc), far-apart Haar
    # pairs (whole circle), identical pairs (distance 0) and pairs that
    # couple the parity blocks (searched as one block)
    from jcmagnus.hilbert import expm_antiherm

    rng = np.random.default_rng(20261018)
    pairs = []
    for fock, w0 in ((12, 0.8), (24, 1.1)):
        bundle = propagator_bundle(ModelParams(1.0, w0, 0.05), HilbertSpec(fock), 1.0)
        ue, m2 = bundle.u_exact, bundle.u_magnus2
        coupled = ue @ expm_antiherm(1e-3 * random_antihermitian(rng, 2 * fock))
        pairs += [(ue, bundle.u_rwa), (ue, m2), (m2, m2), (ue, coupled), (coupled, m2)]
    pairs += [(random_unitary(rng, dim), random_unitary(rng, dim)) for dim in (8, 24)]
    proj = project_buffer(HilbertSpec(12), 2)
    for batch, p in ((pairs, None), (pairs[:5] + pairs[-1:], proj)):
        got = phase_aligned_distances(batch, p)
        assert got == [phase_aligned_distance(u1, u2, p) for u1, u2 in batch]
        assert [d == 0.0 for d in got] == [u1 is u2 for u1, u2 in batch]


def test_error_report_stacks_svd_calls(monkeypatch):
    # the six distances of a row share stacked LAPACK calls: starting values,
    # scan, and one call per refinement round (116 single calls before)
    calls = []
    real_svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return real_svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    error_report(PARAMS, HilbertSpec(12), 1.0)
    assert 0 < len(calls) <= 16


def test_parity_block_norms(rng):
    # per-block norms equal the norm of the projected matrix for a
    # parity-conserving matrix, and a matrix that couples the blocks gets inf
    spec = HilbertSpec(8)
    proj = project_buffer(spec, 2)
    bundle = propagator_bundle(PARAMS, spec, 1.0)
    mats = [bundle.u_exact - bundle.u_magnus2, bundle.u_rwa, u_magnus(PARAMS, spec, 1.0, 1) - np.eye(16)]
    for p in (None, proj):
        got = _parity_block_norms(mats, p)
        want = [spectral_norm(m if p is None else p @ m @ p) for m in mats]
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)
    coupled = bundle.u_exact + 1e-3 * random_unitary(rng, 16)
    assert _parity_block_norms([bundle.u_rwa, coupled], proj) == [pytest.approx(1.0), np.inf]


def test_phase_alignment_rejects_non_diagonal_projector():
    u = np.eye(4, dtype=complex)
    with pytest.raises(ValueError, match="projector"):
        phase_aligned_distance(u, u, np.full((4, 4), 0.25))


def test_error_report_truncation_independence():
    # same physical window: N with buffer 3 against N+4 with buffer 7
    _, small = error_report(PARAMS, HilbertSpec(10), 1.0, buffer=3)
    _, large = error_report(PARAMS, HilbertSpec(14), 1.0, buffer=7)
    for key in ("err_rwa", "err_magnus1", "err_magnus2"):
        assert abs(small[key] - large[key]) <= 1e-6


def test_bundle_unitarity_and_norm_preservation(rng):
    spec = HilbertSpec(10)
    bundle, _ = error_report(PARAMS, spec, 1.0)
    psi = rng.standard_normal(spec.dim) + 1j * rng.standard_normal(spec.dim)
    psi /= np.linalg.norm(psi)
    for u in (bundle.u_exact, bundle.u_rwa, bundle.u_magnus1, bundle.u_magnus2):
        assert unitarity_defect(u) <= 1e-10
        assert abs(np.linalg.norm(u @ psi) - 1.0) <= 1e-10


@pytest.mark.parametrize("t", [1.0, 20.0])
def test_bundle_cross_parity_entries_are_zero(t):
    spec = HilbertSpec(12)
    bundle, _ = error_report(ModelParams(1.0, 0.9, 0.02), spec, t)
    even, odd = _parity_blocks(np.arange(spec.dim))
    for u in (bundle.u_exact, bundle.u_rwa, bundle.u_magnus1, bundle.u_magnus2):
        assert not np.any(u[np.ix_(even, odd)]) and not np.any(u[np.ix_(odd, even)])
        assert np.any(u[np.ix_(even, even)]) and np.any(u[np.ix_(odd, odd)])


def test_u_magnus2_is_single_exponential_of_sum():
    # exp(O1 + O2) differs from exp(O1) exp(O2) at the commutator order; the
    # implementation must produce the former
    from jcmagnus.hilbert import expm_antiherm
    from jcmagnus.magnus import omega1_closed, omega2_closed

    spec = HilbertSpec(8)
    p = ModelParams(1.0, 0.8, 0.2)
    om1 = omega1_closed(p, spec, 1.0).omega1
    om2 = omega2_closed(p, spec, 1.0).omega2
    expected = expm_antiherm(om1 + om2)
    assert spectral_norm(u_magnus(p, spec, 1.0, 2) - expected) <= 1e-13
    product = expm_antiherm(om1) @ expm_antiherm(om2)
    assert spectral_norm(u_magnus(p, spec, 1.0, 2) - product) > 1e-6
