"""State evolution and physical readouts: quadratures, populations, phase probes.

Quadrature convention: X_theta = (a e^{-i theta} + a^dag e^{i theta}) / 2 with
field operators lifted as op (x) I, so the vacuum variance is 1/4 for every
angle and a squeeze of magnitude r pushes the minimum variance down to
e^{-2r}/4 at theta = arg(xi)/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hilbert import (
    ATOM_EXCITED,
    ATOM_GROUND,
    HilbertSpec,
    adjoint,
    annihilation,
    expm_antiherm,
    tensor,
)
from .jc_model import ModelParams
from .magnus import IntegralSet, integrals_closed, omega2_closed, shift_rates
from .propagator import propagator_bundle, unitarity_defect

__all__ = [
    "SqueezingReport",
    "StateVector",
    "basis_state",
    "bs_phase_probe",
    "evolve",
    "gaussian_squeezing",
    "populations",
    "quadrature_variance",
    "squeezing_report",
]

_NORM_TOL = 1e-10
_ATOM_INDEX = {"e": ATOM_EXCITED, "g": ATOM_GROUND}


@dataclass(frozen=True)
class StateVector:
    """Unit-norm state on the field (x) atom space."""

    amplitudes: np.ndarray
    spec: HilbertSpec

    def __post_init__(self) -> None:
        amp = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amp.shape[0] != self.spec.dim:
            raise ValueError(
                f"amplitude vector has length {amp.shape[0]}, expected {self.spec.dim}"
            )
        drift = abs(float(np.linalg.norm(amp)) - 1.0)
        if drift > _NORM_TOL:
            raise ValueError(f"state norm drifts from 1 by {drift:.3e} (> {_NORM_TOL})")
        object.__setattr__(self, "amplitudes", amp)


def basis_state(spec: HilbertSpec, n: int, atom: str) -> StateVector:
    """Product basis state |n, atom> with atom 'e' or 'g'."""
    if atom not in _ATOM_INDEX:
        raise ValueError(f"atom must be 'e' or 'g', got {atom!r}")
    amp = np.zeros(spec.dim, dtype=complex)
    amp[spec.index(n, _ATOM_INDEX[atom])] = 1.0
    return StateVector(amp, spec)


def evolve(u: np.ndarray, psi0: StateVector) -> StateVector:
    """Apply a unitary to a state; norm drift is asserted, never repaired."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (psi0.spec.dim, psi0.spec.dim):
        raise ValueError(f"propagator shape {u.shape} does not match dim {psi0.spec.dim}")
    defect = unitarity_defect(u)
    if defect > _NORM_TOL:
        raise ValueError(f"propagator is not unitary: ||U^dag U - I|| = {defect:.3e}")
    return StateVector(u @ psi0.amplitudes, psi0.spec)


def _field_moments(psi: StateVector) -> tuple[complex, complex, float]:
    """<a>, <a^2> and <a^dag a> of the field marginal."""
    a_full = tensor(annihilation(psi.spec), np.eye(2, dtype=complex))
    amp = psi.amplitudes
    a_psi = a_full @ amp
    m1 = complex(np.vdot(amp, a_psi))
    m2 = complex(np.vdot(amp, a_full @ a_psi))
    nbar = float(np.real(np.vdot(a_psi, a_psi)))
    return m1, m2, nbar


def quadrature_variance(psi: StateVector, theta: float) -> float:
    """Var(X_theta) with X_theta = (a e^{-i theta} + a^dag e^{i theta}) / 2."""
    a_full = tensor(annihilation(psi.spec), np.eye(2, dtype=complex))
    x = 0.5 * (a_full * np.exp(-1j * theta) + adjoint(a_full) * np.exp(1j * theta))
    amp = psi.amplitudes
    x_psi = x @ amp
    mean = float(np.real(np.vdot(amp, x_psi)))
    second = float(np.real(np.vdot(x_psi, x_psi)))
    return second - mean * mean


def populations(psi: StateVector) -> tuple[float, float, float]:
    """(p_excited, p_ground, mean photon number)."""
    prob = np.abs(psi.amplitudes) ** 2
    by_level = prob.reshape(psi.spec.fock_dim, 2)
    p_e = float(np.sum(by_level[:, ATOM_EXCITED]))
    p_g = float(np.sum(by_level[:, ATOM_GROUND]))
    nbar = float(np.sum(np.arange(psi.spec.fock_dim) * by_level.sum(axis=1)))
    return p_e, p_g, nbar


@dataclass(frozen=True)
class SqueezingReport:
    """Predicted versus measured quadrature extrema for the squeeze generator."""

    r_pred: float
    theta_pred: float
    var_min: float
    var_max: float
    theta_min: float
    product_check: float


def _min_angle(c: complex) -> float:
    """The theta in [0, pi) that minimises Re[c e^{-2i theta}]; 0 when c = 0."""
    return 0.0 if c == 0 else float((np.angle(c) + np.pi) / 2.0 % np.pi)


def _variance_extrema(psi: StateVector) -> tuple[float, float, float]:
    """(var_min, theta_min, var_max) of Var(X_theta) over theta, in closed form.

    With the field moments m1 = <a>, m2 = <a^2> and nbar = <a^dag a>,

        Var(X_theta) = (2 nbar + 1)/4 - |m1|^2/2 + Re[(m2 - m1^2) e^{-2i theta}]/2,

    so the extrema are (2 nbar + 1)/4 - |m1|^2/2 -+ |m2 - m1^2|/2, the minimum
    at theta = (arg(m2 - m1^2) + pi)/2 mod pi.  When m2 = m1^2 the variance
    is the same at every angle and theta_min is 0.
    """
    m1, m2, nbar = _field_moments(psi)
    c = m2 - m1 * m1
    mid = 0.25 * (2.0 * nbar + 1.0) - 0.5 * abs(m1) ** 2
    half = 0.5 * abs(c)
    return mid - half, _min_angle(c), mid + half


def _sector_xi(params: ModelParams, t: float, atom: str) -> tuple[int, complex, IntegralSet]:
    """sz of the atom sector, its squeeze amplitude xi = g^2 zeta sz and the closed integrals.

    On a sigma_z eigenstate the two-photon part of Omega_2 is
    (xi^* a^2 - xi a^dag^2)/2, a squeeze of magnitude r = |xi| at angle arg(xi)/2.
    """
    if atom not in _ATOM_INDEX:
        raise ValueError(f"atom must be 'e' or 'g', got {atom!r}")
    sz = 1 if atom == "e" else -1
    ints = integrals_closed(params, t)
    return sz, params.g * params.g * ints.zeta * sz, ints


def _squeezing(xi: complex, extrema: tuple[float, float, float]) -> SqueezingReport:
    """The report of (var_min, theta_min, var_max) next to the paper's prediction from xi."""
    var_min, theta_min, var_max = extrema
    return SqueezingReport(
        r_pred=abs(xi),
        theta_pred=(0.5 * float(np.angle(xi))) % np.pi,
        var_min=var_min,
        var_max=var_max,
        theta_min=theta_min,
        product_check=var_min * var_max,
    )


def squeezing_report(
    params: ModelParams, spec: HilbertSpec, t: float, atom: str
) -> SqueezingReport:
    """Quadrature extrema of vacuum (x) |atom> evolved under exp(Omega_2) alone, on a truncated Fock space.

    The extrema over theta are exact (see _variance_extrema).  To leading
    order the minimum variance is e^{-2r}/4 with r = g^2 |zeta|; the number
    phase of Omega_2 does not commute with the squeeze.  gaussian_squeezing
    gives the exact values without a Fock cutoff, and the report and sweep
    commands read those; this readout is their independent check.  Needs
    fock_dim >= 16 so the squeezed vacuum tail fits.
    """
    _, xi, _ = _sector_xi(params, t, atom)
    if spec.fock_dim < 16:
        raise ValueError(f"fock_dim must be >= 16 for the squeezing readout, got {spec.fock_dim}")
    om2 = omega2_closed(params, spec, t)
    psi = evolve(expm_antiherm(om2), basis_state(spec, 0, atom))
    return _squeezing(xi, _variance_extrema(psi))


def gaussian_squeezing(params: ModelParams, t: float, atom: str) -> SqueezingReport:
    """squeezing_report's readout, exact: vacuum (x) |atom> under exp(Omega_2), no Fock cutoff.

    On the sector sigma_z = sz, Omega_2 acts on the field as
    i phi n + (xi^* a^2 - xi a^dag^2)/2 plus a constant phase, with
    phi = sz g^2 (f(delta, t) - f(sigma, t)) and xi = sz g^2 zeta.  The
    generator is quadratic, so exp(Omega_2)^dag a exp(Omega_2) = mu a + nu a^dag
    with (mu, nu) the first row of exp(M), M = [[i phi, -xi], [-xi^*, -i phi]].
    M^2 = kappa^2 I with kappa^2 = |xi|^2 - phi^2, hence
    exp(M) = cosh(kappa) I + sinh(kappa)/kappa M.  The evolved vacuum has
    <a> = 0, <a^2> = mu nu and <a^dag a> = |nu|^2, so by _variance_extrema
    var_min, var_max = (|mu| -+ |nu|)^2 / 4 (|mu|^2 - |nu|^2 = 1), the
    minimum at theta = (arg(mu nu) + pi)/2 mod pi.

    e^{-2r}/4 with r = |xi| is the phi -> 0 limit of var_min: the number
    phase does not commute with the squeeze.
    """
    sz, xi, ints = _sector_xi(params, t, atom)
    # f(delta, t) - f(sigma, t) from I1 = -2i f(delta, t) and I6 = -2i f(sigma, t), exactly
    phi = sz * params.g * params.g * (-0.5 * (ints.i1 - ints.i6).imag)
    kappa = np.sqrt(complex(abs(xi) ** 2 - phi * phi))
    ratio = np.sinh(kappa) / kappa if kappa != 0 else 1.0
    mu = complex(np.cosh(kappa) + ratio * 1j * phi)
    nu = complex(-ratio * xi)
    extrema = 0.25 * (abs(mu) - abs(nu)) ** 2, _min_angle(mu * nu), 0.25 * (abs(mu) + abs(nu)) ** 2
    return _squeezing(xi, extrema)


def _bs_phase(blocks: np.ndarray, params: ModelParams, t: float) -> tuple[float, float]:
    """(measured, predicted) Bloch-Siegert phase from a propagator bundle's blocks.

    <0,g|U|0,g> is entry (0, 0) of parity block 0, read from u_exact and u_rwa.
    """
    measured = float(np.angle(blocks[0, 0, 0, 0]) - np.angle(blocks[1, 0, 0, 0]))
    measured = (measured + np.pi) % (2.0 * np.pi) - np.pi
    predicted = shift_rates(params, 0, "g")[1] * t
    return measured, predicted


def bs_phase_probe(params: ModelParams, spec: HilbertSpec, t: float) -> tuple[float, float]:
    """Vacuum Bloch-Siegert phase on |0, g>: (measured, predicted).

    measured = arg<0,g|u_exact|0,g> - arg<0,g|u_rwa|0,g>; the RWA Hamiltonian
    annihilates |0, g>, so the whole phase difference is the counter-rotating
    second-order shift.  predicted = bs_rate(n=0, ground) * t = g^2 t / sigma.
    Meaningful while g t / pi stays below about one half.  Both propagators
    are read from the blocks of one propagator_bundle (see _bs_phase).
    """
    return _bs_phase(propagator_bundle(params, spec, t).blocks, params, t)
