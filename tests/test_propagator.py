import itertools
import math
import threading

import numpy as np
import pytest

from jcmagnus import propagator
from jcmagnus.cli import _block_norms
from jcmagnus.hilbert import HilbertSpec, annihilation, creation, expm_antiherm, spectral_norm, tensor
from jcmagnus.jc_model import ModelParams, frame_phases, h_rotated, h_rwa
from jcmagnus.magnus import (
    integrals_closed,
    integrals_quadrature,
    omega1_closed,
    omega1_quadrature,
    omega2_closed,
    omega2_quadrature,
    zeta_resonance_limit,
)
from jcmagnus.observables import gaussian_squeezing, squeezing_report
from jcmagnus.propagator import (
    _block_layout,
    _expm_blockwise,
    _gather,
    block_distances,
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
from conftest import commutator, count_thread_starts, random_antihermitian, random_unitary
from oracles import (
    branch_model_step,
    eigenphase_arc_distance,
    midpoint_extrapolated,
    midpoint_product,
    phase_scan_distance,
    rwa_doublet_propagator,
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


@pytest.mark.parametrize("fock", [8, 12, 48])
def test_bundle_matches_single_propagators(fock):
    # one stacked exponential for all four propagators gives, bit for bit,
    # what each public propagator gives alone
    spec = HilbertSpec(fock)
    far, uncoupled = ModelParams(1.0, 1.1, 0.02), ModelParams(1.0, 0.8, 0.0)
    for params, t in ((PARAMS, 1.0), (far, 20.0), (PARAMS, 0.0), (uncoupled, 2.0)):
        bundle = propagator_bundle(params, spec, t)
        assert np.array_equal(bundle.u_exact, u_exact(params, spec, t))
        assert np.array_equal(bundle.u_rwa, u_rwa(params, spec, t))
        assert np.array_equal(bundle.u_magnus1, u_magnus(params, spec, t, 1))
        assert np.array_equal(bundle.u_magnus2, u_magnus(params, spec, t, 2))
    with pytest.raises(ValueError, match="non-negative"):
        propagator_bundle(PARAMS, spec, -1.0)


@pytest.mark.parametrize("fock", [8, 12, 24, 48])
def test_stacked_bundles_equal_one_point_bundles(fock, monkeypatch):
    # one _expm_blockwise call for several points gives each point's bundle
    # bit for bit, the identity frames at g = 0 and t = 0 among the probes:
    # 20 generators, whose 40 blocks fit one expm_antiherm call up to fock
    # 12 and go two per call above _STACK_BYTES, in two halves at fock 48
    spec = HilbertSpec(fock)
    points = [(PARAMS, 1.0), (ModelParams(1.0, 0.8, 0.0), 1.0), (PARAMS, 0.0)]
    points += [(ModelParams(1.0, 0.8, g), 1.0) for g in (0.01, 0.02, 0.04)]
    single = [propagator_bundle(params, spec, t).blocks for params, t in points]
    calls, real = [], propagator.expm_antiherm
    monkeypatch.setattr(propagator, "expm_antiherm", lambda gen: calls.append(len(gen)) or real(gen))
    started = count_thread_starts(monkeypatch, cpus=2)
    stacked = propagator._bundles(spec, points)
    assert sorted(calls) == ([40] if fock <= 12 else [2] * 20)
    assert len(started) == (1 if fock == 48 else 0)
    assert len(stacked) == len(points)
    for bundle, blocks in zip(stacked, single):
        assert np.array_equal(bundle.blocks, blocks)


def _with_entry(value: float) -> np.ndarray:
    u = np.eye(12, dtype=complex)
    u[3, 5] = value
    return u


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize(
    "call, match",
    [
        (lambda v: propagator_bundle(PARAMS, HilbertSpec(6), v), "^t must be non-negative and finite"),
        (lambda v: u_exact(PARAMS, HilbertSpec(6), v), "^t must be non-negative and finite"),
        (lambda v: u_rwa(PARAMS, HilbertSpec(6), v), "^t must be non-negative and finite"),
        (lambda v: u_magnus(PARAMS, HilbertSpec(6), v, 2), "^t must be non-negative and finite"),
        (lambda v: error_report(PARAMS, HilbertSpec(6), v), "^t must be non-negative and finite"),
        (lambda v: integrals_closed(PARAMS, v), "^t must be non-negative and finite"),
        (lambda v: integrals_quadrature(PARAMS, v, 64), "^t must be non-negative and finite"),
        (lambda v: omega1_closed(PARAMS, HilbertSpec(6), v), "^t must be non-negative and finite"),
        (lambda v: omega2_closed(PARAMS, HilbertSpec(6), v), "^t must be non-negative and finite"),
        (lambda v: omega1_quadrature(PARAMS, HilbertSpec(6), v, 64), "^t must be non-negative and finite"),
        (lambda v: omega2_quadrature(PARAMS, HilbertSpec(6), v, 64), "^t must be non-negative and finite"),
        (lambda v: zeta_resonance_limit(PARAMS, v), "^t must be non-negative and finite"),
        (lambda v: squeezing_report(PARAMS, HilbertSpec(16), v, "e"), "^t must be non-negative and finite"),
        (lambda v: gaussian_squeezing(PARAMS, v, "e"), "^t must be non-negative and finite"),
        (lambda v: phase_aligned_distance(_with_entry(v), np.eye(12)), "nan or inf"),
        (lambda v: phase_aligned_distances([(np.eye(12), _with_entry(v))], np.diag(np.arange(12) < 8)), "nan or inf"),
    ],
    ids=[
        "bundle",
        "u_exact",
        "u_rwa",
        "u_magnus",
        "error_report",
        "integrals_closed",
        "integrals_quadrature",
        "omega1_closed",
        "omega2_closed",
        "omega1_quadrature",
        "omega2_quadrature",
        "zeta_resonance_limit",
        "squeezing_report",
        "gaussian_squeezing",
        "distance",
        "distances",
    ],
)
def test_non_finite_inputs_name_their_cause(call, match, value):
    # a nan or inf t, or matrix entry, raises a ValueError that names it,
    # before any computation can fail on it less clearly
    with pytest.raises(ValueError, match=match):
        call(value)


@pytest.mark.parametrize(
    "call",
    [
        lambda: omega1_closed(PARAMS, HilbertSpec(6), -1.0),
        lambda: omega2_closed(PARAMS, HilbertSpec(6), -1.0),
        lambda: zeta_resonance_limit(PARAMS, -1.0),
    ],
    ids=["omega1_closed", "omega2_closed", "zeta_resonance_limit"],
)
def test_negative_t_is_rejected(call):
    # these evaluate their closed forms at any real t, so they check t themselves
    with pytest.raises(ValueError, match="^t must be non-negative and finite, got -1.0"):
        call()


def test_expm_blockwise_rejects_bad_generators(rng):
    # any generator of the list that couples the parity blocks, or that is
    # not anti-Hermitian, raises
    spec = HilbertSpec(6)
    diag = 1j * np.diag(frame_phases(PARAMS, spec))
    with pytest.raises(ValueError, match="parity"):
        _expm_blockwise([diag, 0.1 * random_antihermitian(rng, spec.dim)])
    with pytest.raises(ValueError, match="anti-Hermitian"):
        _expm_blockwise([diag, diag + 0.1 * np.eye(spec.dim)])


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


@pytest.mark.parametrize("fock", [12, 24, 48])
def test_u_rwa_matches_doublet_closed_form(fock):
    # against the Rabi solution of each excitation doublet, detuned and
    # resonant, up to the README's t = 20.  The eigendecomposition's rounding
    # grows with ||t (h_rwa(0) + F)|| ~ t omega fock, which passes 1e-13 only
    # at fock 48 and t = 20 (1.6e-13 there), so the bound is the larger of
    # the two.
    spec = HilbertSpec(fock)
    for w0, g in ((0.8, 0.05), (0.9, 0.02), (1.0, 0.05), (1.0, 0.02), (1.1, 0.02)):
        p = ModelParams(1.0, w0, g)
        for t in (0.5, 1.0, 4.0, 20.0):
            floor = np.finfo(float).eps * spectral_norm(t * (h_rwa(p, spec, 0.0) + np.diag(frame_phases(p, spec))))
            err = spectral_norm(u_rwa(p, spec, t) - rwa_doublet_propagator(p, spec, t))
            assert err <= max(1e-13, floor), (w0, g, t, err)


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
        assert abs(table[name] - want) <= 1e-12 * want + 1e-15, (name, table[name], want)
        # rotated, the minimum sits near phi = 2.8, where ulp(phi) is coarser
        rotated = phase_aligned_distance(np.exp(2.1j) * u1, np.exp(-0.7j) * u2, proj)
        assert abs(rotated - want) <= 1e-12 * want + 1e-15, (name, rotated, want)


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


def _grid_phases_below(a, b, floor, points=20_000):
    """The phases of an equispaced grid at which every block k has ||a_k - e^{i phi} b_k|| < floor.

    f is the largest block norm, so a phase is ruled out by the first block
    whose norm reaches floor, and later blocks are evaluated only where the
    earlier ones did not rule it out.
    """
    phis = np.linspace(-np.pi, np.pi, points, endpoint=False)
    for x, y in zip(a, b):
        tops = [
            np.linalg.svd(x - np.exp(1j * part)[:, None, None] * y, compute_uv=False)[:, 0]
            for part in np.array_split(phis, max(1, phis.size // 2000))
        ]
        phis = phis[np.concatenate(tops) < floor]
    return phis


@pytest.mark.parametrize(
    "fock, w0, g, t, pairs",
    [
        (12, 0.8, 0.05, 1.0, list(itertools.combinations(range(4), 2))),
        (12, 1.0, 0.2, 3.0, list(itertools.combinations(range(4), 2))),
        (24, 0.8, 0.05, 1.0, [(0, 1), (0, 2), (0, 3)]),
    ],
)
def test_phase_alignment_below_every_grid_phase(fock, w0, g, t, pairs):
    # the minorants certify the global minimum: no phase of a 20 000-point
    # grid has f below the returned distance by more than rounding
    bundle = propagator_bundle(ModelParams(1.0, w0, g), HilbertSpec(fock), t)
    corners = bundle.blocks[:, :, : fock - 2, : fock - 2]
    for (i, j), got in zip(pairs, block_distances(bundle.blocks, pairs)):
        below = _grid_phases_below(corners[i], corners[j], got - (1e-12 * got + 1e-15))
        assert below.size == 0, (i, j, got, below[:3])


def test_phase_alignment_below_every_grid_phase_haar():
    # far-apart Haar pairs on a window, where f has several local minima and
    # the minorants are loose
    rng = np.random.default_rng(20261019)
    for dim, buffer in ((8, 1), (10, 2), (12, 3)):
        keep = np.arange(dim - buffer)
        for _ in range(2):
            u1, u2 = random_unitary(rng, dim), random_unitary(rng, dim)
            got = phase_aligned_distance(u1, u2, np.diag((np.arange(dim) < dim - buffer).astype(complex)))
            a, b = (u[np.ix_(keep, keep)][None] for u in (u1, u2))
            assert _grid_phases_below(a, b, got - (1e-12 * got + 1e-15)).size == 0, (dim, buffer, got)


def test_error_report_stacks_svd_calls(monkeypatch):
    # the six distances of a row share stacked LAPACK calls, one full SVD
    # call per round: the one at phi0 that gives the minorants, then the
    # refinement's; none is values-only
    calls = []
    real_svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(kwargs.get("compute_uv", True))
        return real_svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    error_report(PARAMS, HilbertSpec(12), 1.0)
    assert 0 < len(calls) <= 4
    assert all(calls)


def _count_evaluations(monkeypatch) -> list[int]:
    """The number of blocks in each _branches_and_minorants call from here on."""
    seen = []
    real = propagator._branches_and_minorants

    def counting(x, y, z):
        seen.append(len(x))
        return real(x, y, z)

    monkeypatch.setattr(propagator, "_branches_and_minorants", counting)
    return seen


def test_phase_search_evaluations_per_pair(monkeypatch):
    # the pair models step across the avoided crossings at the minima: the six
    # distances of each fock-12 PHASE_GRID point take at most 3.6 evaluations
    # per pair on average (4.47 with one quadratic model per branch), each
    # evaluation one SVD per parity block
    seen = _count_evaluations(monkeypatch)
    points = [p for p in PHASE_GRID if p[0] == 12]
    for fock, w0, g, t in points:
        error_report(ModelParams(1.0, w0, g), HilbertSpec(fock), t)
    assert sum(seen) / 2 / (6 * len(points)) <= 3.6


def _avoided_crossing_pair(coupling: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """A 3 x 3 pair whose top two singular values meet near phi0 = -(1.15 + beta) / 2.

    Without coupling, x - e^{i phi} y is diagonal and its top singular values
    |1 - e^{i (phi + 0.45)} / 2| and |1 - e^{i (phi + 0.7 + beta)} / 2| cross
    (a kink); coupling makes x non-normal, so they avoid each other.  The odd
    size makes the pair one block.
    """
    x = np.array([[1.0, coupling, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.1]], dtype=complex)
    return x, np.exp(0.7j) * np.diag([0.5 * np.exp(-0.25j), 0.5 * np.exp(1j * beta), 0.05])


@pytest.mark.parametrize("coupling", [1e-4, 1e-3, 0.0])
@pytest.mark.parametrize("beta", [0.24, 0.2])
def test_pair_model_converges_across_an_avoided_crossing(coupling, beta, monkeypatch):
    # the minimum sits on the avoided crossing, beyond the reach of sigma_1's
    # Taylor model from phi0 (5 evaluations with it at coupling 1e-4):
    # the pair model reaches it in at most 3, and an exact crossing (coupling
    # 0) is still found as a kink; both at the scan oracle's value
    x, y = _avoided_crossing_pair(coupling, beta)
    seen = _count_evaluations(monkeypatch)
    got = phase_aligned_distance(x, y)
    want = phase_scan_distance(x, y)
    assert abs(got - want) <= 1e-12 * want + 1e-15, (got, want)
    assert len(seen) <= 3


def test_pair_model_holds_across_an_avoided_crossing():
    # at phi0 the model is sigma_1 to second order, and out to 4 times its
    # minimum's distance, across the avoided crossing, it tracks sigma_1 at
    # least 100 times closer than sigma_1's Taylor quadratic does
    x, y = _avoided_crossing_pair(1e-4, 0.2)
    phi0 = float(np.angle(np.vdot(y, x)))
    [[block]], _ = propagator._branches_and_minorants(x[None], y[None], np.exp(np.array([1j * phi0])))
    s1, d1, r1, s2, _, _, k2 = block
    curv = r1 + 2.0 * k2 / (s1 - s2)
    at, h_min = propagator._pair_model(*block)
    assert at(0.0) == pytest.approx((s1, d1, curv), rel=1e-12)
    assert 0.0 < h_min and curv > 500.0
    for h in h_min * np.array([-1.0, 0.25, 0.5, 1.0, 2.0, 4.0]):
        sigma = np.linalg.svd(x - np.exp(1j * (phi0 + h)) * y, compute_uv=False)[0]
        taylor = s1 + d1 * h + 0.5 * curv * h * h
        assert abs(at(h)[0] - sigma) <= 1e-2 * abs(taylor - sigma), h


def test_model_step_without_coupling_is_the_branch_step(rng):
    # kappa = 0: each block's model is the larger of its two quadratic
    # branches, and the step is the quadratic-branch step, bit for bit
    for _ in range(300):
        blocks = []
        for _ in range(2):
            s = np.sort(rng.uniform(0.0, 1.0, 2))[::-1]
            d, r = rng.normal(0.0, 1.0, 2), rng.normal(0.5, 1.0, 2)
            blocks.append((s[0], d[0], r[0], s[1], d[1], r[1], 0.0))
        branches = [b[k : k + 3] for b in blocks for k in (0, 3)]
        assert propagator._model_step(blocks)[0] == branch_model_step(branches)


def test_block_distances_match_full_matrices():
    # the corners of the parity blocks give, bit for bit, the distances of
    # the assembled matrices with project_buffer, across buffers and sizes
    for fock, buffer in ((8, 0), (12, 2), (12, 5), (24, 2)):
        spec = HilbertSpec(fock)
        bundle = propagator_bundle(ModelParams(1.0, 0.9, 0.05), spec, 2.0)
        full = [bundle.u_exact, bundle.u_rwa, bundle.u_magnus1, bundle.u_magnus2]
        pairs = [(i, j) for i in range(4) for j in range(4) if i != j]
        want = phase_aligned_distances([(full[i], full[j]) for i, j in pairs], project_buffer(spec, buffer))
        assert block_distances(bundle.blocks, pairs, buffer) == want
    with pytest.raises(ValueError, match="buffer"):
        block_distances(bundle.blocks, pairs, 23)


def test_parity_block_norms(rng):
    # per-block norms on a leading window of Fock levels equal the norm of
    # the projected matrix for a parity-conserving matrix; a matrix that
    # couples the blocks on the window gets inf, and coupling outside the
    # window does not count
    spec = HilbertSpec(8)
    bundle = propagator_bundle(PARAMS, spec, 1.0)
    mats = [bundle.u_exact - bundle.u_magnus2, bundle.u_rwa, u_magnus(PARAMS, spec, 1.0, 1) - np.eye(16)]
    for buffer in (0, 2):
        p = project_buffer(spec, buffer)
        got = _block_norms(mats, spec.fock_dim - buffer)
        assert got.tolist() == pytest.approx([spectral_norm(p @ m @ p) for m in mats], rel=1e-14, abs=0.0)
    coupled = bundle.u_exact + 1e-3 * random_unitary(rng, 16)
    assert _block_norms([bundle.u_rwa, coupled], 6).tolist() == [pytest.approx(1.0), np.inf]
    edge = bundle.u_rwa.copy()
    edge[15, 14] = 1e-3  # |7, g> and |7, e> differ in parity
    assert np.isfinite(_block_norms([edge], 7)[0]) and _block_norms([edge], 8)[0] == np.inf


def test_phase_alignment_rejects_non_diagonal_projector():
    u = np.eye(4, dtype=complex)
    with pytest.raises(ValueError, match="projector"):
        phase_aligned_distance(u, u, np.full((4, 4), 0.25))


@pytest.mark.parametrize(
    "u1, u2, diag, cause",
    [
        (np.eye(8), np.eye(10), None, "differ in size"),
        (np.ones((4, 6)), np.ones((4, 6)), None, "square"),
        (np.eye(12), np.eye(12), np.arange(8) < 4, "projector has shape"),
        (np.eye(8), np.eye(8), np.arange(12) < 6, "projector has shape"),
        (np.eye(8), np.eye(8), np.zeros(8), "window is empty"),
        (np.eye(8), np.eye(8), np.arange(8) >= 2, "leading window"),
        (np.eye(8), np.eye(8), np.arange(8) % 2 == 0, "leading window"),
        (np.eye(8), np.eye(8), 0.5 * (np.arange(8) < 6), "leading window"),
    ],
    ids=["mismatched", "non_square", "projector_small", "projector_large", "empty", "trailing", "interleaved", "half"],
)
def test_phase_alignment_rejects_malformed_input(u1, u2, diag, cause):
    # mismatched or non-square pairs, projectors of another size, empty
    # windows and 0/1 diagonals that do not keep a leading window raise,
    # naming the cause, from the one-pair and the batch entry alike
    proj = None if diag is None else np.diag(diag.astype(complex))
    with pytest.raises(ValueError, match=cause):
        phase_aligned_distance(u1, u2, proj)
    with pytest.raises(ValueError, match=cause):
        phase_aligned_distances([(np.eye(len(u1)), np.eye(len(u1))), (u1, u2)], proj)


def test_phase_alignment_odd_window_is_one_block(monkeypatch):
    # a leading window of odd length cuts a Fock level in half, so even a
    # parity-conserving library pair is searched as one block there, and the
    # distance is still the scan oracle's
    shapes = []

    def record(x, y):
        shapes.append((x.shape, y.shape))
        return real_search(x, y)

    real_search = propagator._search
    monkeypatch.setattr(propagator, "_search", record)
    bundle = propagator_bundle(ModelParams(1.0, 0.9, 0.05), HilbertSpec(8), 2.0)
    for keep in (15, 13, 11):
        proj = np.diag((np.arange(16) < keep).astype(complex))
        for u1, u2 in ((bundle.u_exact, bundle.u_rwa), (bundle.u_exact, bundle.u_magnus2)):
            got = phase_aligned_distance(u1, u2, proj)
            assert shapes.pop() == ((1, 1, keep, keep),) * 2
            want = phase_scan_distance(u1, u2, proj)
            assert abs(got - want) <= 1e-12 * want + 1e-15, (keep, got, want)
    phase_aligned_distance(bundle.u_exact, bundle.u_rwa, project_buffer(HilbertSpec(8), 2))
    assert shapes.pop() == ((1, 2, 6, 6),) * 2


def test_distances_of_no_pairs_are_empty():
    # an empty batch searches nothing, from the block corners and from full
    # matrices alike
    bundle = propagator_bundle(PARAMS, HilbertSpec(8), 1.0)
    assert block_distances(bundle.blocks, []) == []
    assert phase_aligned_distances([]) == []
    assert phase_aligned_distances([], project_buffer(HilbertSpec(8), 2)) == []


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
    even, odd = _block_layout(spec.fock_dim)[0]
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
    om1 = omega1_closed(p, spec, 1.0)
    om2 = omega2_closed(p, spec, 1.0)
    expected = expm_antiherm(om1 + om2)
    assert spectral_norm(u_magnus(p, spec, 1.0, 2) - expected) <= 1e-13
    product = expm_antiherm(om1) @ expm_antiherm(om2)
    assert spectral_norm(u_magnus(p, spec, 1.0, 2) - product) > 1e-6


@pytest.mark.parametrize("fock", [24, 48, 96])
def test_threaded_distances_equal_serial_searches(fock, monkeypatch):
    # with two CPUs the six pairs are searched as two groups on two threads;
    # each distance equals, bit for bit, a serial _search of its pair alone,
    # from the block corners and from the full matrices alike
    spec = HilbertSpec(fock)
    bundle = propagator_bundle(ModelParams(1.0, 0.9, 0.05), spec, 1.0)
    pairs = list(propagator._DISTANCE_PAIRS.values())
    names = ("u_exact", "u_rwa", "u_magnus1", "u_magnus2")
    keep = fock - propagator.DEFAULT_BUFFER
    corners = bundle.blocks[:, :, :keep, :keep]
    serial = [propagator._search(corners[[i]], corners[[j]])[0] for i, j in pairs]
    started = count_thread_starts(monkeypatch, cpus=2)
    assert block_distances(bundle.blocks, pairs) == serial
    full = [(getattr(bundle, names[i]), getattr(bundle, names[j])) for i, j in pairs]
    assert phase_aligned_distances(full, project_buffer(spec, propagator.DEFAULT_BUFFER)) == serial
    assert len(started) == 2


def test_threaded_exponentials_equal_single_calls(monkeypatch):
    # at fock 48 the block stack is exponentiated in two halves on two
    # threads, bit for bit as expm_antiherm of each generator's blocks
    spec = HilbertSpec(48)
    params = ModelParams(1.0, 0.9, 0.05)
    omega1 = omega1_closed(params, spec, 1.0)
    frame = -1j * (h_rotated(params, spec, 0.0) + np.diag(frame_phases(params, spec)))
    gens = [frame, omega1, omega1 + omega2_closed(params, spec, 1.0)]
    started = count_thread_starts(monkeypatch, cpus=2)
    got = _expm_blockwise(gens)
    assert len(started) == 1
    for g, blocks in zip(gens, got):
        assert np.array_equal(blocks, expm_antiherm(_gather([g], 48)[0][0]))


def test_worker_thread_exceptions_reach_the_caller(monkeypatch):
    # an exception raised on the worker thread is raised again, the same
    # object, in the calling thread, by the distances and the exponentials
    error = RuntimeError("raised on the worker")

    def on_worker(real):
        def wrapped(*args):
            if threading.current_thread() is not threading.main_thread():
                raise error
            return real(*args)

        return wrapped

    bundle = propagator_bundle(PARAMS, HilbertSpec(48), 1.0)
    count_thread_starts(monkeypatch, cpus=2)
    monkeypatch.setattr(propagator, "_branches_and_minorants", on_worker(propagator._branches_and_minorants))
    with pytest.raises(RuntimeError) as info:
        block_distances(bundle.blocks, list(propagator._DISTANCE_PAIRS.values()))
    assert info.value is error
    monkeypatch.setattr(propagator, "expm_antiherm", on_worker(propagator.expm_antiherm))
    with pytest.raises(RuntimeError) as info:
        propagator_bundle(PARAMS, HilbertSpec(48), 1.0)
    assert info.value is error
