"""First- and second-order Magnus generators for the rotated Jaynes-Cummings model.

Closed forms
------------
With detuning d = omega - omega0, sum frequency s = omega + omega0 and the
phase ramp c(x, t) = (1 - e^{i x t}) / x:

  Omega_1(t) = i g [ a^dag sm c(d,t) + a sp c(d,t)^*
                   + a^dag sp c(s,t) + a sm c(s,t)^* ]

  Omega_2(t) = i g^2 f(d,t) (n sz + P_e)
             + i g^2 f(s,t) (-n sz + P_g)
             + (g^2/2) (zeta^* a^2 - zeta a^dag^2) sz

where f(x, t) = t/x - sin(x t)/x^2 and the squeezing coefficient is

  zeta(t) = (omega0 e^{2 i omega t} - omega e^{i s t} + omega e^{i d t} - omega0)
            / (omega (omega^2 - omega0^2)).

The i g^2 f(d,t) n sz piece is the photon-number-dependent AC-Stark shift, the
i g^2 f(s,t) n sz piece the Bloch-Siegert shift, and the zeta term a two-photon
squeeze generator whose amplitude per atom sector is xi = g^2 zeta sz.

One sinc quotient
-----------------
I1 = -2i f(d,t), I6 = -2i f(s,t) and zeta are values of one symmetric
function, the divided difference e[+-i a, +-i b] of exp:

  E(a, b) = (sinc a - sinc b) / (b^2 - a^2),   sinc x = sin x / x.

Three facts give it.  By Hermite-Genocchi the integral of e^{alpha t1 + beta t2}
over 0 <= t2 <= t1 <= t is t^2 e[0, alpha t, (alpha + beta) t].  Divided
differences obey e[x, a, c] - e[x, b, c] = (a - b) e[x, a, b, c].  And
e[+-p, +-q] = (S(p^2) - S(q^2)) / (p^2 - q^2) with S(w) = sinh(sqrt w) / sqrt w.
Together,

  I1 = -2i d t^3 E(0, d t),    I6 = -2i s t^3 E(0, s t),
  zeta = -2i omega0 t^3 e^{i omega t} E(omega t, omega0 t).

zeta's four nodes 0, i d t, i s t and 2 i omega t are symmetric about
i omega t, so omega0 factors out exactly and no 1/d is ever formed:
zeta has a removable singularity on resonance, and there it is just a = b,
E(a, a) = (sin a - a cos a) / (2 a^3), which is the resonance limit

  zeta -> (1 - e^{2 i omega t}) / (omega (omega + omega0))
          + i t (1 + e^{2 i omega t}) / (omega + omega0)

at d = 0 exactly, so one formula serves every detuning.  The quadrature
oracle in this module confirms the limit; note that substituting
e^{i d t} -> 1 in the original numerator would drop the second term and does
not reproduce the integral.

_sinc_quotient evaluates E in three regions of lo <= hi, the sorted |a|, |b|.
Below hi = 1, where sinc a - sinc b cancels, it sums the series
sum_{n >= 1} (-1)^{n-1} H_{n-1}(a^2, b^2) / (2n + 1)! through n = 12, with
H_k the complete homogeneous symmetric polynomial of degree k; the first
dropped term is below 13 / 27! < 1e-27, and E >= (sin 1 - cos 1) / 2 > 0.15
there.  For 2 lo >= hi it takes the half-angle form
(sinc m cos h - cos m sinc h) / (2 a b), m = (a + b)/2, h = (b - a)/2, in
which b - a is exact (Sterbenz) and nothing is divided by it.  Elsewhere the
plain quotient has a denominator of at least 3 hi^2 / 4; for I1 and I6
(a = 0) its numerator 1 - sinc b loses at most a factor 1 / (1 - sin 1) < 7
to cancellation.  Against 50-digit arithmetic I1, I6 and zeta are within
6e-15 relative for t from 1e-6 to 20, detunings from 1e-9 to 1e-1 and
omega0 / omega from 0.01 to 20.

The double integrals I1, I2, I5, I6 of the second-order construction are
exposed, together with iterated composite-Simpson quadrature oracles of the
defining time-ordered integrals over 0 <= t2 <= t1 <= t.  I3 and I4 multiply
block commutators that vanish identically for a two-level atom
(sigma_+^2 = sigma_-^2 = 0), so neither path computes them.  Every integrand
is a sum of products e^{+-i x t1} e^{+-i y t2} with x, y in {delta, sigma}.
The oracles therefore share one pair of inner Simpson sums,
E_x(t1) = sum_j w_j e^{i x t2_j} over a fresh grid on [0, t1] for each outer
node (the sum for e^{-i x t2} is its conjugate, the weights being real), and
finish each integral with an outer Simpson sum.  Each E_x is one chirp-z FFT
convolution (_inner_sums), the same rule at O(n log n) cost.  No closed-form
antiderivative enters; tests/oracles.py evaluates each integrand, and the
inner sums, on full grids.

Omega_2 has one formula.  h_rotated(t) is g sum_i c_i(t) B_i over the four
constant coupling blocks B_i, so by bilinearity of the commutator

  -1/2 int int [h(t1), h(t2)] = (g^2/2) (I1 C1 + I2 C2 + I5 C5 + I6 C6),

where C_k are the block commutators of commutator_table (_omega2_from_integrals).
omega2_closed feeds it the closed integrals and the closed commutators
-(n sz + P_e), -a^dag^2 sz, a^2 sz and n sz - P_g (_closed_commutators), held
as the diagonal and offset-2 bands of the two parity blocks, so the sum is
Omega_2's bands; omega2_quadrature feeds it the quadrature integrals and the
commutators computed directly from kron products.  Omega_1 and Omega_2 are
built as parity blocks (_omega1_blocks, _omega2_blocks), which the
propagators exponentiate as they are; the public functions assemble them.  The same nodes and weights give Omega_1 from two scalar
Simpson sums of e^{i d u} and e^{i s u}; only the summation order differs
from stacking h_rotated.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .hilbert import ATOM_EXCITED, HilbertSpec, _assemble, _banded, _block_layout, annihilation, creation, pauli, tensor
from .jc_model import ModelParams, _links

__all__ = [
    "IntegralSet",
    "commutator_table",
    "convergence_margin",
    "integrals_closed",
    "integrals_quadrature",
    "omega1_closed",
    "omega1_quadrature",
    "omega2_closed",
    "omega2_quadrature",
    "shift_rates",
    "simpson_weights",
    "zeta_resonance_limit",
]

# Taylor coefficients (-1)^k 2k / (2k + 1)! of (u cos u - sin u) / u^3 in
# powers of u^2 (k = 1..10), highest power first (np.polyval).
_CROSS_SERIES = tuple((-1) ** k * 2 * k / math.factorial(2 * k + 1) for k in range(10, 0, -1))
# The offsets of the bands of the closed commutators, below the diagonal first.
_OFFSETS = (-2, 0, 2)
# Coefficients (-1)^(n-1) / (2n + 1)! of E(a, b)'s series in H_{n-1}(a^2, b^2), n = 1..12.
_E_SERIES = tuple((-1) ** (n - 1) / math.factorial(2 * n + 1) for n in range(1, 13))


@dataclass(frozen=True)
class IntegralSet:
    """The time-ordered double integrals that Omega_2 reads at time t, units time^2.

    I3 and I4 are not computed: their block commutators vanish identically.
    zeta is an alias for i2.
    """

    i1: complex
    i2: complex
    i5: complex
    i6: complex
    zeta: complex
    params: ModelParams


def _check_time(t: float) -> None:
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"t must be non-negative and finite, got {t}")


def _sinc(x: float) -> float:
    """sin x / x, 1 at x = 0."""
    return math.sin(x) / x if x else 1.0


def _sinc_quotient(a: float, b: float) -> float:
    """E(a, b) = (sinc a - sinc b) / (b^2 - a^2), even in each argument; E(0, 0) = 1/6.

    Series below max(|a|, |b|) = 1, half-angle form where the smaller is at
    least half the larger, plain quotient elsewhere (see the module docstring).
    """
    lo, hi = sorted((abs(a), abs(b)))
    if hi < 1.0:
        x, y = lo * lo, hi * hi
        total, h, xk = 0.0, 1.0, 1.0
        for coef in _E_SERIES:
            total += coef * h
            xk *= x
            h = h * y + xk  # H_k(x, y) = y H_{k-1}(x, y) + x^k
        return total
    if 2.0 * lo >= hi:
        m, h = 0.5 * (hi + lo), 0.5 * (hi - lo)
        return (_sinc(m) * math.cos(h) - math.cos(m) * _sinc(h)) / (2.0 * lo * hi)
    return (_sinc(lo) - _sinc(hi)) / ((hi - lo) * (hi + lo))


def _phase_ramp(x: float, t: float) -> complex:
    """(1 - e^{i x t}) / x evaluated without cancellation.

    Uses 1 - e^{i a} = -2i e^{i a/2} sin(a/2), so the value is exact for every
    x including x = 0 where it equals -i t.
    """
    return -1j * t * cmath.exp(0.5j * x * t) * _sinc(0.5 * x * t)


def zeta_resonance_limit(params: ModelParams, t: float) -> complex:
    """Analytic limit of zeta as omega0 -> omega (finite: no divergence).

    (1 - e^{2iu}) / (omega sigma) + i t (1 + e^{2iu}) / sigma, u = omega t,
    as 2i e^{iu} (u cos u - sin u) / (omega sigma), without the cancelling
    O(t) terms; below |u| = 1 u cos u - sin u is summed from its own series.
    """
    _check_time(t)
    u = params.omega * t
    cross = np.polyval(_CROSS_SERIES, u * u) * u**3 if abs(u) < 1.0 else u * math.cos(u) - math.sin(u)
    return complex(2j * np.exp(1j * u) * cross / (params.omega * params.sigma))


def integrals_closed(params: ModelParams, t: float) -> IntegralSet:
    """Closed-form I1, I2, I5, I6 at time t (t >= 0 and finite).

    I1, I6 and zeta = I2 are t^3 times one sinc quotient each (_sinc_quotient),
    at every detuning, resonance included; I5 = conj(I2).  Against 50-digit
    arithmetic all three are within 1e-14 relative for t from 1e-6 to 20.
    A t whose cube overflows a float is a ValueError.
    """
    _check_time(t)
    try:
        t3 = t**3
    except OverflowError:
        raise ValueError(f"t = {t} is too large: t**3 overflows a float") from None
    d, s, w = params.delta, params.sigma, params.omega
    i1 = -2j * (d * t3 * _sinc_quotient(0.0, d * t))
    i6 = -2j * (s * t3 * _sinc_quotient(0.0, s * t))
    # the real factor first: at t = 0 zeta is +0+0j, whose angle theta_pred reads
    zeta = params.omega0 * t3 * _sinc_quotient(w * t, params.omega0 * t) * (-2j * cmath.exp(1j * w * t))
    return IntegralSet(i1=i1, i2=zeta, i5=zeta.conjugate(), i6=i6, zeta=zeta, params=params)


def _simpson_pattern(panels: int) -> np.ndarray:
    """Composite-Simpson node pattern (1, 4, 2, ..., 4, 1) / 3 for even panels."""
    if panels < 2 or panels % 2 != 0:
        raise ValueError(f"Simpson rule needs an even panel count >= 2, got {panels}")
    w = np.ones(panels + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w / 3.0


def simpson_weights(panels: int, length: float) -> np.ndarray:
    """Composite-Simpson weights on [0, length] with the given even panel count."""
    return _simpson_pattern(panels) * (length / panels)


def _check_quad_steps(n: int) -> None:
    if n < 64:
        raise ValueError(f"quadrature step count must be >= 64, got {n}")
    if n % 2 != 0:
        raise ValueError(f"quadrature step count must be even, got {n}")


def _inner_sums(
    params: ModelParams, t: float, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Outer nodes and weights with the inner Simpson sums of the two phases.

    Returns the nodes s_i = t i / n, their Simpson weights, and for x = delta,
    sigma the n-panel Simpson sum of e^{i x u} over [0, s_i], E_x(s_i) =
    (s_i / n) sum_j p_j w^{ij} with pattern p_j and w = e^{i x t / n^2}.  As
    ij = (i^2 + j^2 - (i - j)^2) / 2, with the chirp c_k = w^{k^2 / 2} it is
    (s_i / n) c_i sum_j (p_j c_j) conj(c_{i-j}), one FFT convolution per phase
    (the chirp-z transform: Rabiner, Schafer & Rader, IEEE Trans. Audio
    Electroacoust. 17 (1969) 86).  The rule is that of the (n + 1)^2 grid,
    unchanged; only the summation order differs.
    """
    pattern = _simpson_pattern(n)
    s_nodes = np.linspace(0.0, t, n + 1)
    chirp = np.exp(1j * np.outer((params.delta, params.sigma), np.arange(n + 1) ** 2 * (t / (2.0 * n * n))))
    # conj(c_m) for m = -n..n laid out circularly; size >= 2n + 1 avoids aliasing
    size = 1 << (2 * n).bit_length()
    kernel = np.concatenate((chirp, np.zeros((2, size - 2 * n - 1)), chirp[:, :0:-1]), axis=1).conj()
    conv = np.fft.ifft(np.fft.fft(pattern * chirp, size) * np.fft.fft(kernel))[:, : n + 1]
    e_d, e_s = (s_nodes / n) * chirp * conv
    return s_nodes, pattern * (t / n), e_d, e_s


def integrals_quadrature(params: ModelParams, t: float, n: int) -> IntegralSet:
    """I1, I2, I5, I6 by double quadrature of their defining integrands (n panels).

    Iterated composite Simpson over the triangle 0 <= t2 <= t1 <= t.  Every
    integrand is a sum of products e^{+-i x t1} e^{+-i y t2} with x, y in
    {delta, sigma}, so each inner sum over t2 is E_y(t1) (see _inner_sums) or,
    for the negative phase, its complex conjugate: the Simpson weights are
    real, so sum_j w_j e^{-i y u_j} = conj(sum_j w_j e^{i y u_j}) exactly.
    This is the same quadrature, with the same nodes and weights, as
    evaluating each integrand on the full (n + 1)^2 grid, summed in a
    different order.
    """
    _check_time(t)
    _check_quad_steps(n)
    s_nodes, wout, e_d, e_s = _inner_sums(params, t, n)
    # outer phases e^{i delta t1}, e^{i sigma t1}; e^{-i x t1} is their conjugate
    p_d = np.exp(1j * params.delta * s_nodes)
    p_s = np.exp(1j * params.sigma * s_nodes)

    def outer(vals: np.ndarray) -> complex:
        return complex(np.sum(wout * vals))

    # each I_k's defining integrand in (t1, t2), then its outer sum
    # I1: -e^{i d (t1 - t2)} + e^{-i d (t1 - t2)}
    i1 = outer(-p_d * e_d.conj() + p_d.conj() * e_d)
    # I2: e^{i (d t1 + s t2)} - e^{i (s t1 + d t2)}
    i2 = outer(p_d * e_s - p_s * e_d)
    # I5: e^{-i (d t1 + s t2)} - e^{-i (s t1 + d t2)}
    i5 = outer(p_d.conj() * e_s.conj() - p_s.conj() * e_d.conj())
    # I6: -e^{i s (t1 - t2)} + e^{-i s (t1 - t2)}
    i6 = outer(-p_s * e_s.conj() + p_s.conj() * e_s)
    return IntegralSet(i1=i1, i2=i2, i5=i5, i6=i6, zeta=i2, params=params)


def _omega1_blocks(params: ModelParams, spec: HilbertSpec, t: float) -> np.ndarray:
    """Parity blocks of omega1_closed."""
    _check_time(t)
    return 1j * params.g * _links(spec, _phase_ramp(params.delta, t), _phase_ramp(params.sigma, t))


def omega1_closed(params: ModelParams, spec: HilbertSpec, t: float) -> np.ndarray:
    """First-order generator, anti-Hermitian by construction."""
    return _assemble(_omega1_blocks(params, spec, t))


def _omega2_blocks(params: ModelParams, spec: HilbertSpec, t: float) -> np.ndarray:
    """Parity blocks of omega2_closed, from the bands of the closed I_k and C_k."""
    bands = _omega2_from_integrals(integrals_closed(params, t), _closed_commutators(spec))
    return _banded(spec.fock_dim, dict(zip(_OFFSETS, bands)))


def omega2_closed(params: ModelParams, spec: HilbertSpec, t: float) -> np.ndarray:
    """Second-order generator, Stark and Bloch-Siegert shifts plus squeezing, from the closed I_k and C_k."""
    return _assemble(_omega2_blocks(params, spec, t))


def omega1_quadrature(params: ModelParams, spec: HilbertSpec, t: float, n: int = 1024) -> np.ndarray:
    """Oracle: -i times the Simpson integral of h_rotated over [0, t].

    h_rotated is g times a fixed combination of the four coupling blocks
    with phases e^{+-i delta s} and e^{+-i sigma s}, so the integral is the
    blocks weighted by the two Simpson sums sum_k w_k e^{i x s_k}
    (conjugated for the negative phases, the weights being real).
    """
    _check_time(t)
    _check_quad_steps(n)
    ts = np.linspace(0.0, t, n + 1)
    w = simpson_weights(n, t)
    sd = complex(np.sum(w * np.exp(1j * params.delta * ts)))
    ss = complex(np.sum(w * np.exp(1j * params.sigma * ts)))
    ad_sm, a_sp, ad_sp, a_sm = _interaction_blocks(spec)
    # -i g (i S_d ad_sm - i S_d^* a_sp + i S_s ad_sp - i S_s^* a_sm)
    return params.g * (sd * ad_sm - np.conj(sd) * a_sp + ss * ad_sp - np.conj(ss) * a_sm)


@lru_cache(maxsize=16)
def _interaction_blocks(spec: HilbertSpec) -> tuple[np.ndarray, ...]:
    """The four lifted coupling operators (a^dag sm, a sp, a^dag sp, a sm), read-only kron products."""
    a = annihilation(spec)
    ad = creation(spec)
    blocks = (
        tensor(ad, pauli("minus")),
        tensor(a, pauli("plus")),
        tensor(ad, pauli("plus")),
        tensor(a, pauli("minus")),
    )
    for b in blocks:
        b.setflags(write=False)
    return blocks


@lru_cache(maxsize=16)
def _closed_commutators(spec: HilbertSpec) -> tuple[np.ndarray, ...]:
    """Closed forms of C1, C2, C5, C6: -(n sz + P_e), -a^dag^2 sz, a^2 sz and n sz - P_g, as parity-block bands.

    Each has shape (3, 2, N): its bands on the offsets _OFFSETS of each
    parity block, as _banded reads them.  C1 and C6 are diagonal, and C2
    and C5 keep the atom, so they sit two below and two above the diagonal.
    They take [a, a^dag] = 1, which the truncated ladder breaks at the top
    Fock level.  Built once per spec and read-only.
    """
    n = np.arange(spec.fock_dim, dtype=float)
    excited = _block_layout(spec.fock_dim)[0] % 2 == ATOM_EXCITED
    zero = np.zeros(excited.shape)
    pair = zero.copy()  # sqrt(n+1) sqrt(n+2) sz on the link n -> n+2
    pair[:, :-2] = np.sqrt(n[2:]) * np.sqrt(n[1:-1]) * np.where(excited[:, :-2], 1.0, -1.0)
    ops = (
        np.stack((zero, np.where(excited, -(n + 1.0), n), zero)),
        np.stack((-pair, zero, zero)),
        np.stack((zero, zero, pair)),
        np.stack((zero, np.where(excited, n, -(n + 1.0)), zero)),
    )
    for op in ops:
        op.setflags(write=False)
    return ops


def _omega2_from_integrals(ints: IntegralSet, commutators: tuple[np.ndarray, ...]) -> np.ndarray:
    """(g^2/2) (I1 C1 + I2 C2 + I5 C5 + I6 C6): the second-order generator.

    commutators are C1, C2, C5, C6: full matrices (the direct column of
    commutator_table) or parity-block bands (_closed_commutators).  By
    bilinearity of the commutator this is -1/2 times the double integral of
    [h_rotated(t1), h_rotated(t2)] for whatever rule produced the I_k.
    """
    coeffs = (ints.i1, ints.i2, ints.i5, ints.i6)
    g2 = ints.params.g * ints.params.g
    return 0.5 * g2 * sum(c * comm for c, comm in zip(coeffs, commutators))


def omega2_quadrature(params: ModelParams, spec: HilbertSpec, t: float, n: int = 1024) -> np.ndarray:
    """Oracle: -1/2 times the double quadrature of [h_rotated(t1), h_rotated(t2)].

    Iterated composite Simpson over the triangle 0 <= t2 <= t1 <= t.
    h_rotated is g times a fixed combination of four constant blocks, so the
    commutator integral is _omega2_from_integrals of the quadrature integrals
    of integrals_quadrature and the direct column of commutator_table; no
    closed-form antiderivative or operator identity enters.
    """
    c1, c2, _, _, c5, c6 = (direct for _, direct, _ in commutator_table(spec))
    return _omega2_from_integrals(integrals_quadrature(params, t, n), (c1, c2, c5, c6))


def commutator_table(spec: HilbertSpec) -> list[tuple[str, np.ndarray, np.ndarray]]:
    """The six block commutators, each computed directly and from its closed form.

    Returns (label, direct, closed) triples.  The two routes agree exactly for
    the entries that never touch [a, a^dag]; the others agree away from the
    top Fock level, i.e. on any buffered subspace.  C3 and C4 vanish because
    sigma_-^2 = sigma_+^2 = 0, so their closed form is zero.
    """
    ad_sm, a_sp, ad_sp, a_sm = _interaction_blocks(spec)
    c1, c2, c5, c6 = (_assemble(_banded(spec.fock_dim, dict(zip(_OFFSETS, c)))) for c in _closed_commutators(spec))
    zero = np.zeros((spec.dim, spec.dim), dtype=complex)
    return [
        (label, x @ y - y @ x, closed)
        for label, x, y, closed in (
            ("[ad sm, a sp]", ad_sm, a_sp, c1),
            ("[ad sm, ad sp]", ad_sm, ad_sp, c2),
            ("[ad sm, a sm]", ad_sm, a_sm, zero),
            ("[ad sp, a sp]", ad_sp, a_sp, zero.copy()),
            ("[a sp, a sm]", a_sp, a_sm, c5),
            ("[ad sp, a sm]", ad_sp, a_sm, c6),
        )
    ]


def _safe_rate(num: float, den: float) -> float:
    if num == 0.0:
        return 0.0
    if den == 0.0:
        return math.copysign(math.inf, num)
    return num / den


def shift_rates(params: ModelParams, n: int, atom: str) -> tuple[float, float]:
    """Secular phase rates (stark_rate, bs_rate) of the level |n, atom>.

    These are the linear-in-t parts of the second-order diagonal divided by
    i t: the co-rotating (AC-Stark) piece scales as g^2/detuning and the
    counter-rotating (Bloch-Siegert) piece as g^2/sum-frequency, with the
    Bloch-Siegert shift growing linearly in photon number in the excited
    branch.  The Stark rate diverges on exact resonance where the secular
    reading breaks down.
    """
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise ValueError(f"photon number must be a non-negative integer, got {n!r}")
    g2 = params.g * params.g
    if atom == "e":
        return (_safe_rate(g2 * (n + 1), params.delta), _safe_rate(-g2 * n, params.sigma))
    if atom == "g":
        return (_safe_rate(-g2 * n, params.delta), _safe_rate(g2 * (n + 1), params.sigma))
    raise ValueError(f"atom must be 'e' or 'g', got {atom!r}")


def convergence_margin(params: ModelParams, t: float) -> float:
    """g t / pi; callers treat values >= 1 as outside the expansion's regime."""
    return params.g * t / math.pi
