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

zeta has a removable singularity on resonance.  Its analytic limit,

  zeta -> (1 - e^{2 i omega t}) / (omega (omega + omega0))
          + i t (1 + e^{2 i omega t}) / (omega + omega0),

is used inside a narrow branch window.  The quadrature oracle in this module
confirms the limit; note that substituting e^{i d t} -> 1 in the numerator
would drop the second term and does not reproduce the integral.

All six double integrals I1..I6 of the second-order construction are exposed,
together with composite-Simpson quadrature oracles that evaluate the defining
time-ordered integrals directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hilbert import (
    HilbertSpec,
    annihilation,
    creation,
    number,
    pauli,
    tensor,
)
from .jc_model import ModelParams, h_rotated_stack

__all__ = [
    "IntegralSet",
    "MagnusTerms",
    "RESONANCE_THRESHOLD",
    "SERIES_THRESHOLD",
    "commutator_table",
    "convergence_margin",
    "integrals_closed",
    "integrals_quadrature",
    "omega1_closed",
    "omega1_quadrature",
    "omega2_closed",
    "omega2_quadrature",
    "on_resonance_branch",
    "shift_rates",
    "squeeze_params",
    "zeta_resonance_limit",
]

# |x t| below which f(x, t) switches to its series (cancellation guard).
SERIES_THRESHOLD = 0.5
# Taylor coefficients (-1)^k / (2k + 3)! of (u - sin u) / u^3 in powers of
# u^2, highest power first for Horner evaluation.
_PHI_SERIES = tuple((-1) ** k / math.factorial(2 * k + 3) for k in range(7, -1, -1))
# |omega - omega0| / omega below which zeta switches to the resonance limit.
RESONANCE_THRESHOLD = 1e-8


@dataclass(frozen=True)
class IntegralSet:
    """The six time-ordered double integrals at time t, units time^2.

    In the closed-form path i3 = i4 = 0 by convention (their commutator
    multipliers vanish identically); the quadrature path stores their finite
    values.  zeta is an alias for i2.
    """

    i1: complex
    i2: complex
    i3: complex
    i4: complex
    i5: complex
    i6: complex
    zeta: complex
    t: float
    params: ModelParams


@dataclass(frozen=True)
class MagnusTerms:
    """Anti-Hermitian Magnus generators with their provenance."""

    omega1: np.ndarray | None
    omega2: np.ndarray | None
    t: float
    params: ModelParams
    provenance: str  # "closed_form" | "quadrature"


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
    return x * t**3 * phi


def _phase_ramp(x: float, t: float) -> complex:
    """(1 - e^{i x t}) / x evaluated without cancellation.

    Uses 1 - e^{i a} = -2i e^{i a/2} sin(a/2), so the value is exact for every
    x including x = 0 where it equals -i t.
    """
    return -1j * t * np.exp(0.5j * x * t) * np.sinc(x * t / (2.0 * np.pi))


def on_resonance_branch(params: ModelParams) -> bool:
    """Whether zeta evaluation falls into the resonance-limit branch."""
    return abs(params.delta) < RESONANCE_THRESHOLD * params.omega


def zeta_resonance_limit(params: ModelParams, t: float) -> complex:
    """Analytic limit of zeta as omega0 -> omega (finite: no divergence)."""
    w = params.omega
    s = params.sigma
    e2 = np.exp(2j * w * t)
    return (1.0 - e2) / (w * s) + 1j * t * (1.0 + e2) / s


def _zeta_closed(params: ModelParams, t: float) -> complex:
    if on_resonance_branch(params):
        return zeta_resonance_limit(params, t)
    w, w0 = params.omega, params.omega0
    num = (
        w0 * np.exp(2j * w * t)
        - w * np.exp(1j * params.sigma * t)
        + w * np.exp(1j * params.delta * t)
        - w0
    )
    return num / (w * (w * w - w0 * w0))


def integrals_closed(params: ModelParams, t: float) -> IntegralSet:
    """Closed-form I1..I6 at time t (t >= 0); i3 = i4 = 0 by convention."""
    if t < 0:
        raise ValueError(f"t must be non-negative, got {t}")
    i1 = -2j * _ramp(params.delta, t)
    i6 = -2j * _ramp(params.sigma, t)
    zeta = _zeta_closed(params, t)
    return IntegralSet(
        i1=complex(i1),
        i2=complex(zeta),
        i3=0j,
        i4=0j,
        i5=complex(np.conj(zeta)),
        i6=complex(i6),
        zeta=complex(zeta),
        t=t,
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


def _triangle_quadrature(fn, t: float, n: int, chunk: int = 512) -> complex:
    """Iterated composite Simpson of fn(t1, t2) over 0 <= t2 <= t1 <= t.

    The inner integral uses a fresh n-panel grid on [0, t1] for every outer
    node, so both directions converge at fourth order.
    """
    pattern = _simpson_pattern(n)
    xi = np.linspace(0.0, 1.0, n + 1)
    t1 = np.linspace(0.0, t, n + 1)
    wout = pattern * (t / n)
    total = 0.0 + 0.0j
    for start in range(0, n + 1, chunk):
        stop = min(start + chunk, n + 1)
        s = t1[start:stop]
        inner_nodes = s[:, None] * xi[None, :]
        inner_w = pattern[None, :] * (s[:, None] / n)
        vals = fn(s[:, None], inner_nodes)
        total += np.sum(wout[start:stop] * np.sum(inner_w * vals, axis=1))
    return complex(total)


def integrals_quadrature(params: ModelParams, t: float, n: int) -> IntegralSet:
    """I1..I6 by double quadrature of their defining integrands (n panels).

    i3 and i4 are evaluated and stored even though their commutator
    multipliers vanish; only i1, i2, i5, i6 feed the second-order generator.
    """
    if t < 0:
        raise ValueError(f"t must be non-negative, got {t}")
    _check_quad_steps(n)
    d, s = params.delta, params.sigma

    def e(x):
        return np.exp(1j * x)

    i1 = _triangle_quadrature(lambda t1, t2: -e(d * (t1 - t2)) + e(-d * (t1 - t2)), t, n)
    i2 = _triangle_quadrature(lambda t1, t2: e(d * t1 + s * t2) - e(s * t1 + d * t2), t, n)
    i3 = _triangle_quadrature(lambda t1, t2: -e(d * t1 - s * t2) + e(-(s * t1 - d * t2)), t, n)
    i4 = _triangle_quadrature(lambda t1, t2: -e(s * t1 - d * t2) + e(-(d * t1 - s * t2)), t, n)
    i5 = _triangle_quadrature(lambda t1, t2: e(-(d * t1 + s * t2)) - e(-(s * t1 + d * t2)), t, n)
    i6 = _triangle_quadrature(lambda t1, t2: -e(s * (t1 - t2)) + e(-s * (t1 - t2)), t, n)
    return IntegralSet(i1=i1, i2=i2, i3=i3, i4=i4, i5=i5, i6=i6, zeta=i2, t=t, params=params)


def omega1_closed(params: ModelParams, spec: HilbertSpec, t: float) -> MagnusTerms:
    """First-order generator, anti-Hermitian by construction."""
    a = annihilation(spec)
    ad = creation(spec)
    sm, sp = pauli("minus"), pauli("plus")
    g = params.g
    cd = _phase_ramp(params.delta, t)
    cs = _phase_ramp(params.sigma, t)
    om1 = 1j * g * (
        cd * tensor(ad, sm)
        + np.conj(cd) * tensor(a, sp)
        + cs * tensor(ad, sp)
        + np.conj(cs) * tensor(a, sm)
    )
    return MagnusTerms(omega1=om1, omega2=None, t=t, params=params, provenance="closed_form")


def omega2_closed(params: ModelParams, spec: HilbertSpec, t: float) -> MagnusTerms:
    """Second-order generator: Stark and Bloch-Siegert shifts plus squeezing."""
    a = annihilation(spec)
    ad = creation(spec)
    eye_f = np.eye(spec.fock_dim, dtype=complex)
    sz = pauli("z")
    n_sz = tensor(number(spec), sz)
    pe = tensor(eye_f, pauli("proj_e"))
    pg = tensor(eye_f, pauli("proj_g"))
    g2 = params.g * params.g
    fd = _ramp(params.delta, t)
    fs = _ramp(params.sigma, t)
    zeta = _zeta_closed(params, t)
    om2 = (
        1j * g2 * fd * (n_sz + pe)
        + 1j * g2 * fs * (-n_sz + pg)
        + 0.5 * g2 * (np.conj(zeta) * tensor(a @ a, sz) - zeta * tensor(ad @ ad, sz))
    )
    return MagnusTerms(omega1=None, omega2=om2, t=t, params=params, provenance="closed_form")


def omega1_quadrature(params: ModelParams, spec: HilbertSpec, t: float, n: int = 1024) -> MagnusTerms:
    """Oracle: -i times the Simpson integral of h_rotated over [0, t]."""
    if t < 0:
        raise ValueError(f"t must be non-negative, got {t}")
    _check_quad_steps(n)
    ts = np.linspace(0.0, t, n + 1)
    w = simpson_weights(n, t)
    stack = h_rotated_stack(params, spec, ts)
    om1 = -1j * np.einsum("i,iab->ab", w, stack)
    return MagnusTerms(omega1=om1, omega2=None, t=t, params=params, provenance="quadrature")


def omega2_quadrature(params: ModelParams, spec: HilbertSpec, t: float, n: int = 1024) -> MagnusTerms:
    """Oracle: -1/2 times the double quadrature of [h_rotated(t1), h_rotated(t2)].

    Iterated composite Simpson over the triangle 0 <= t2 <= t1 <= t.  The
    inner integral commutes past the fixed t1 factor (the commutator is
    bilinear), so for each outer node only one matrix commutator with the
    inner Simpson sum of h_rotated is needed.  The inner sums reduce to
    scalar Simpson sums of the four oscillatory phases because h_rotated is a
    fixed linear combination of four constant blocks; no closed-form
    antiderivative or operator identity enters.
    """
    if t < 0:
        raise ValueError(f"t must be non-negative, got {t}")
    _check_quad_steps(n)
    from .jc_model import _interaction_blocks  # shared cached blocks

    pattern = _simpson_pattern(n)
    s_nodes = np.linspace(0.0, t, n + 1)
    wout = pattern * (t / n)
    xi = np.linspace(0.0, 1.0, n + 1)

    # inner Simpson sums of e^{+i d u} and e^{+i s u} over [0, s_i]
    inner_w = pattern[None, :] * (s_nodes[:, None] / n)
    u = s_nodes[:, None] * xi[None, :]
    e_d = np.sum(inner_w * np.exp(1j * params.delta * u), axis=1)
    e_s = np.sum(inner_w * np.exp(1j * params.sigma * u), axis=1)
    del u, inner_w

    ad_sm, a_sp, ad_sp, a_sm = _interaction_blocks(spec)
    g = params.g
    inner = g * (
        1j * e_d[:, None, None] * ad_sm
        - 1j * e_d.conj()[:, None, None] * a_sp
        + 1j * e_s[:, None, None] * ad_sp
        - 1j * e_s.conj()[:, None, None] * a_sm
    )
    outer = h_rotated_stack(params, spec, s_nodes)
    comms = outer @ inner - inner @ outer
    om2 = -0.5 * np.einsum("i,iab->ab", wout, comms)
    return MagnusTerms(omega1=None, omega2=om2, t=t, params=params, provenance="quadrature")


def commutator_table(spec: HilbertSpec) -> list[tuple[str, np.ndarray, np.ndarray]]:
    """The six block commutators, each computed directly and from its closed form.

    Returns (label, direct, closed) triples.  The two routes agree exactly for
    the entries that never touch [a, a^dag]; the others agree away from the
    top Fock level, i.e. on any buffered subspace.
    """
    a = annihilation(spec)
    ad = creation(spec)
    eye_f = np.eye(spec.fock_dim, dtype=complex)
    sm, sp, sz = pauli("minus"), pauli("plus"), pauli("z")
    n_sz = tensor(number(spec), sz)
    pe = tensor(eye_f, pauli("proj_e"))
    pg = tensor(eye_f, pauli("proj_g"))
    zero = np.zeros((spec.dim, spec.dim), dtype=complex)

    ad_sm = tensor(ad, sm)
    a_sp = tensor(a, sp)
    ad_sp = tensor(ad, sp)
    a_sm = tensor(a, sm)

    def comm(x, y):
        return x @ y - y @ x

    return [
        ("[ad sm, a sp]", comm(ad_sm, a_sp), -(n_sz + pe)),
        ("[ad sm, ad sp]", comm(ad_sm, ad_sp), -tensor(ad @ ad, sz)),
        ("[ad sm, a sm]", comm(ad_sm, a_sm), zero.copy()),
        ("[ad sp, a sp]", comm(ad_sp, a_sp), zero.copy()),
        ("[a sp, a sm]", comm(a_sp, a_sm), tensor(a @ a, sz)),
        ("[ad sp, a sm]", comm(ad_sp, a_sm), n_sz - pg),
    ]


def squeeze_params(params: ModelParams, t: float, sz: int) -> tuple[float, float]:
    """Squeeze magnitude r and angle theta for the atom sector sz = +/-1.

    The two-photon part of the second-order generator on a sigma_z eigenstate
    is (xi^* a^2 - xi a^dag^2)/2 with xi = g^2 zeta sz; r = |xi|, theta = arg xi.
    """
    if sz not in (1, -1):
        raise ValueError(f"sz must be +1 or -1, got {sz}")
    zeta = integrals_closed(params, t).zeta
    xi = params.g * params.g * zeta * sz
    return abs(xi), float(np.angle(xi))


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
    if n < 0:
        raise ValueError(f"photon number must be non-negative, got {n}")
    g2 = params.g * params.g
    if atom == "e":
        return (_safe_rate(g2 * (n + 1), params.delta), _safe_rate(-g2 * n, params.sigma))
    if atom == "g":
        return (_safe_rate(-g2 * n, params.delta), _safe_rate(g2 * (n + 1), params.sigma))
    raise ValueError(f"atom must be 'e' or 'g', got {atom!r}")


def convergence_margin(params: ModelParams, t: float) -> float:
    """g t / pi; callers treat values >= 1 as outside the expansion's regime."""
    return params.g * t / math.pi
