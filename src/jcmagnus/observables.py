"""State evolution and physical readouts: quadratures, populations, phase probes.

Quadrature convention: X_theta = (a e^{-i theta} + a^dag e^{i theta}) / 2 with
field operators lifted as op (x) I, so the vacuum variance is 1/4 for every
angle and a squeeze of magnitude r pushes the minimum variance down to
e^{-2r}/4 at theta = arg(xi)/2.
"""

from __future__ import annotations

import math
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
from .magnus import omega2_closed, shift_rates, squeeze_params
from .propagator import u_exact, u_rwa, unitarity_defect

__all__ = [
    "SqueezingReport",
    "StateVector",
    "basis_state",
    "bs_phase_probe",
    "evolve",
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


def _variance_curve(psi: StateVector):
    """Var(X_theta) as a cheap scalar function via precomputed field moments."""
    m1, m2, nbar = _field_moments(psi)

    def var(theta: float) -> float:
        second = 0.25 * (2.0 * np.real(m2 * np.exp(-2j * theta)) + 2.0 * nbar + 1.0)
        mean = np.real(m1 * np.exp(-1j * theta))
        return float(second - mean * mean)

    return var


def _golden_min(fn, lo: float, hi: float, tol: float = 1e-6) -> tuple[float, float]:
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = fn(x1), fn(x2)
    while hi - lo > tol:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = fn(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = fn(x2)
    return (x1, f1) if f1 <= f2 else (x2, f2)


def _scan_extrema(var, points: int = 360) -> tuple[float, float, float]:
    """(var_min, theta_min, var_max) over theta in [0, pi) with refinement."""
    thetas = np.linspace(0.0, np.pi, points, endpoint=False)
    values = np.array([var(th) for th in thetas])
    step = np.pi / points
    k_min = int(np.argmin(values))
    theta_min, var_min = _golden_min(var, thetas[k_min] - step, thetas[k_min] + step)
    k_max = int(np.argmax(values))
    theta_max, neg = _golden_min(lambda th: -var(th), thetas[k_max] - step, thetas[k_max] + step)
    return var_min, theta_min % np.pi, -neg


def squeezing_report(
    params: ModelParams, spec: HilbertSpec, t: float, atom: str
) -> SqueezingReport:
    """Quadrature extrema of vacuum (x) |atom> evolved under exp(Omega_2) alone.

    The second-order number-shift terms act on the vacuum only through phases
    (n|0> = 0), isolating the two-photon squeeze: the minimum variance should
    match e^{-2r}/4 with r = g^2 |zeta|.  Needs fock_dim >= 16 so the squeezed
    vacuum tail fits.
    """
    if atom not in _ATOM_INDEX:
        raise ValueError(f"atom must be 'e' or 'g', got {atom!r}")
    if spec.fock_dim < 16:
        raise ValueError(f"fock_dim must be >= 16 for the squeezing scan, got {spec.fock_dim}")
    sz = 1 if atom == "e" else -1
    r_pred, xi_angle = squeeze_params(params, t, sz)
    om2 = omega2_closed(params, spec, t).omega2
    psi = evolve(expm_antiherm(om2), basis_state(spec, 0, atom))
    var = _variance_curve(psi)
    var_min, theta_min, var_max = _scan_extrema(var)
    return SqueezingReport(
        r_pred=r_pred,
        theta_pred=(0.5 * xi_angle) % np.pi,
        var_min=var_min,
        var_max=var_max,
        theta_min=theta_min,
        product_check=var_min * var_max,
    )


def bs_phase_probe(params: ModelParams, spec: HilbertSpec, t: float) -> tuple[float, float]:
    """Vacuum Bloch-Siegert phase on |0, g>: (measured, predicted).

    measured = arg<0,g|u_exact|0,g> - arg<0,g|u_rwa|0,g>; the RWA Hamiltonian
    annihilates |0, g>, so the whole phase difference is the counter-rotating
    second-order shift.  predicted = bs_rate(n=0, ground) * t = g^2 t / sigma.
    Meaningful while g t / pi stays below about one half.
    """
    ue = u_exact(params, spec, t)
    ur = u_rwa(params, spec, t)
    idx = spec.index(0, ATOM_GROUND)
    measured = float(np.angle(ue[idx, idx]) - np.angle(ur[idx, idx]))
    measured = (measured + np.pi) % (2.0 * np.pi) - np.pi
    predicted = shift_rates(params, 0, "g")[1] * t
    return measured, predicted
