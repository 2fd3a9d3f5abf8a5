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
from .magnus import IntegralSet, _omega2_blocks, integrals_closed, shift_rates
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


def _variance_extrema(m2: complex, nbar: float) -> tuple[float, float, float]:
    """(var_min, theta_min, var_max) of Var(X_theta) over theta for a field with <a> = 0, in closed form.

    With m2 = <a^2> and nbar = <a^dag a>,

        Var(X_theta) = (2 nbar + 1)/4 + Re[m2 e^{-2i theta}]/2,

    so the extrema are (2 nbar + 1)/4 -+ |m2|/2, the minimum at
    theta = (arg(m2) + pi)/2 mod pi.  When m2 = 0 the variance is the same
    at every angle and theta_min is 0.
    """
    mid, half = 0.25 * (2.0 * nbar + 1.0), 0.5 * abs(m2)
    return mid - half, _min_angle(m2), mid + half


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
    fock_dim >= 16 so the squeezed vacuum tail fits.  Only the parity block of
    vacuum (x) |atom> is exponentiated, and <a^2> and <a^dag a> are read off
    its first column; a non-unitary result raises ValueError.
    """
    _, xi, _ = _sector_xi(params, t, atom)
    if spec.fock_dim < 16:
        raise ValueError(f"fock_dim must be >= 16 for the squeezing readout, got {spec.fock_dim}")
    # vacuum (x) |atom> is position 0 of parity block 1 (excited) or 0 (ground)
    u = expm_antiherm(_omega2_blocks(params, spec, t)[1 if atom == "e" else 0])
    if (defect := unitarity_defect(u)) > _NORM_TOL:
        raise ValueError(f"propagator is not unitary: ||U^dag U - I|| = {defect:.3e}")
    # the evolved state's amplitude on Fock level n is c_n; a^2 keeps the parity block, a leaves it (<a> = 0)
    c, n = u[:, 0], np.arange(spec.fock_dim)
    m2 = complex(np.vdot(c[:-2], np.sqrt(n[2:]) * np.sqrt(n[1:-1]) * c[2:]))
    return _squeezing(xi, _variance_extrema(m2, float(np.sum(n * np.abs(c) ** 2))))


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
    second-order shift.  predicted = bs_rate(n=0, ground) * t = g^2 t / sigma
    is the secular rate times t, not the second-order phase: at
    (omega, omega0, g, t) = (1, 0.8, 0.05, 1), fock 24, it is 2.18 times the
    measured 6.375e-4.  The diagonal of Omega_2 on |0, g> gives the
    second-order phase g^2 (t / sigma - sin(sigma t) / sigma^2) = -g^2 Im(I6) / 2,
    within 5.8e-9 of the measured phase there and O(g^4) from it.  Both
    propagators are read from the blocks of one propagator_bundle (see _bs_phase).
    """
    return _bs_phase(propagator_bundle(params, spec, t).blocks, params, t)
