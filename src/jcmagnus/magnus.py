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

zeta has a removable singularity on resonance.  With 2 omega = sigma + delta
the numerator regroups into phase ramps,

  zeta(t) = [2 c(2 omega, t) - c(d, t) (1 + e^{i s t})] / s,

which has no 1/d left and reduces to the resonance limit

  zeta -> (1 - e^{2 i omega t}) / (omega (omega + omega0))
          + i t (1 + e^{2 i omega t}) / (omega + omega0)

at d = 0 exactly, so one formula serves every detuning.  The quadrature
oracle in this module confirms the limit; note that substituting
e^{i d t} -> 1 in the original numerator would drop the second term and does
not reproduce the integral.  Below sigma t = 1 the formula's O(t) terms
cancel, and zeta is summed from the Taylor series of its integrand instead.

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
-(n sz + P_e), -a^dag^2 sz, a^2 sz and n sz - P_g (_closed_commutators);
omega2_quadrature feeds it the quadrature integrals and the commutators
computed directly.  The same nodes and weights give Omega_1 from two scalar
Simpson sums of e^{i d u} and e^{i s u}; only the summation order differs
from stacking h_rotated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .hilbert import HilbertSpec, annihilation, creation, pauli, tensor
from .jc_model import ModelParams, _interaction_blocks

__all__ = [
    "IntegralSet",
    "SERIES_THRESHOLD",
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

# |x t| below which f(x, t) switches to its series (cancellation guard).
SERIES_THRESHOLD = 0.5
# Taylor coefficients (-1)^k / (2k + 3)! of (u - sin u) / u^3 in powers of
# u^2, highest power first for Horner evaluation.
_PHI_SERIES = tuple((-1) ** k / math.factorial(2 * k + 3) for k in range(7, -1, -1))
# Taylor coefficients (-1)^k 2k / (2k + 1)! of (u cos u - sin u) / u^3 in
# powers of u^2 (k = 1..10), highest power first (np.polyval).
_CROSS_SERIES = tuple((-1) ** k * 2 * k / math.factorial(2 * k + 1) for k in range(10, 0, -1))
# Triangle integrals of the Taylor terms of zeta's integrand, exponents
# (a, b) of (i delta t1)^a (i sigma t2)^b through total order 20:
# i^(a+b) / (a! b! (b+1) (a+b+2)).  Order 0 cancels.
_ZETA_TERMS = [(a, m - a) for m in range(1, 21) for a in range(m + 1)]
_ZETA_A, _ZETA_B = np.array(_ZETA_TERMS).T
_ZETA_COEF = np.array(
    [1j ** (a + b) / (math.factorial(a) * math.factorial(b) * (b + 1) * (a + b + 2)) for a, b in _ZETA_TERMS]
)


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


def _ramp(x: float, t: float) -> float:
    """f(x, t) = t/x - sin(x t)/x^2 = x t^3 phi(x t), phi(u) = (u - sin u) / u^3.

    phi is evaluated by its Taylor series for |u| below SERIES_THRESHOLD,
    where u - sin u cancels, and directly above it.  The first dropped
    series term, u^16 / 19!, is below 1e-21 relative at the threshold; the
    direct form loses at most a factor u / (u - sin u) < 25 in relative
    accuracy there.
    """
    u = x * t
    if abs(u) < SERIES_THRESHOLD:
        u2 = u * u
        phi = 0.0
        for coef in _PHI_SERIES:
            phi = phi * u2 + coef
    else:
        phi = (u - math.sin(u)) / (u * u * u)
    try:
        return x * t**3 * phi
    except OverflowError:
        raise ValueError(f"t = {t} is too large: t**3 overflows a float") from None


def _phase_ramp(x: float, t: float) -> complex:
    """(1 - e^{i x t}) / x evaluated without cancellation.

    Uses 1 - e^{i a} = -2i e^{i a/2} sin(a/2), so the value is exact for every
    x including x = 0 where it equals -i t.
    """
    return -1j * t * np.exp(0.5j * x * t) * np.sinc(x * t / (2.0 * np.pi))


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


def _zeta_closed(params: ModelParams, t: float) -> complex:
    """zeta = [2 c(2 omega, t) - c(delta, t) (1 + e^{i sigma t})] / sigma.

    The defining quotient with 2 omega = sigma + delta substituted: no
    1/delta remains, so one expression holds for every detuning, resonance
    included, where it equals zeta_resonance_limit.

    Its O(t) terms cancel to the O(t^3) value of zeta, so below
    sigma t = 2 SERIES_THRESHOLD zeta is summed from the Taylor series of
    its integrand instead: with x = delta t and y = sigma t, the term
    t1^a t2^b of e^{i (delta t1 + sigma t2)} - e^{i (sigma t1 + delta t2)}
    integrates over the triangle 0 <= t2 <= t1 <= t to
    t^{a+b+2} / ((b+1) (a+b+2)), so

        zeta = t^2 sum_{a,b} i^{a+b} (x^a y^b - y^a x^b) / (a! b! (b+1) (a+b+2)).

    Summed through order 20, it is within 3e-15 relative of 60-digit
    arithmetic across the series region for omega0 / omega from 0.01 to 20.
    """
    s = params.sigma
    if s * t < 2.0 * SERIES_THRESHOLD:
        x, y = params.delta * t, s * t
        return complex(t * t * np.dot(_ZETA_COEF, x**_ZETA_A * y**_ZETA_B - y**_ZETA_A * x**_ZETA_B))
    return (
        2.0 * _phase_ramp(2.0 * params.omega, t)
        - _phase_ramp(params.delta, t) * (1.0 + np.exp(1j * s * t))
    ) / s


def integrals_closed(params: ModelParams, t: float) -> IntegralSet:
    """Closed-form I1, I2, I5, I6 at time t (t >= 0 and finite)."""
    _check_time(t)
    i1 = -2j * _ramp(params.delta, t)
    i6 = -2j * _ramp(params.sigma, t)
    zeta = _zeta_closed(params, t)
    return IntegralSet(
        i1=complex(i1),
        i2=complex(zeta),
        i5=complex(np.conj(zeta)),
        i6=complex(i6),
        zeta=complex(zeta),
        params=params,
    )


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


def omega1_closed(params: ModelParams, spec: HilbertSpec, t: float) -> np.ndarray:
    """First-order generator, anti-Hermitian by construction."""
    _check_time(t)
    ad_sm, a_sp, ad_sp, a_sm = _interaction_blocks(spec)
    cd = _phase_ramp(params.delta, t)
    cs = _phase_ramp(params.sigma, t)
    return 1j * params.g * (cd * ad_sm + np.conj(cd) * a_sp + cs * ad_sp + np.conj(cs) * a_sm)


def omega2_closed(params: ModelParams, spec: HilbertSpec, t: float) -> np.ndarray:
    """Second-order generator, Stark and Bloch-Siegert shifts plus squeezing, from the closed I_k and C_k."""
    return _omega2_from_integrals(integrals_closed(params, t), _closed_commutators(spec))


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
def _closed_commutators(spec: HilbertSpec) -> tuple[np.ndarray, ...]:
    """Closed forms of C1, C2, C5, C6: -(n sz + P_e), -a^dag^2 sz, a^2 sz and n sz - P_g.

    They take [a, a^dag] = 1, which the truncated ladder breaks at the top
    Fock level.  Built once per spec and read-only, like _interaction_blocks.
    """
    a = annihilation(spec)
    n = np.arange(spec.fock_dim, dtype=float)  # C1 and C6 are diagonal: (excited, ground) entries per level n
    ops = (
        np.diag(np.stack((-(n + 1.0), n), axis=1).reshape(-1)).astype(complex),
        -tensor(creation(spec) @ creation(spec), pauli("z")),
        tensor(a @ a, pauli("z")),
        np.diag(np.stack((n, -(n + 1.0)), axis=1).reshape(-1)).astype(complex),
    )
    for op in ops:
        op.setflags(write=False)
    return ops


def _omega2_from_integrals(ints: IntegralSet, commutators: tuple[np.ndarray, ...]) -> np.ndarray:
    """(g^2/2) (I1 C1 + I2 C2 + I5 C5 + I6 C6): the second-order generator.

    commutators are C1, C2, C5, C6 of commutator_table, closed or direct.  By
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
    c1, c2, c5, c6 = (c.copy() for c in _closed_commutators(spec))
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
