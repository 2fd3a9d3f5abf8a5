"""Jaynes-Cummings Hamiltonians and the rotating-frame machinery.

Conventions (hbar = 1 throughout, all energies in angular-frequency units):

  * full Hamiltonian     H = omega a^dag a + (omega0/2) sigma_z
                             + i g (a^dag - a)(sigma_+ + sigma_-)
  * frame generator      F = omega n + omega0 sigma_z / 2, diagonal
                             (frame_phases holds its diagonal)
  * frame phase          D(t) = exp(i t F), the atom rotation
                             exp(i omega0 t sigma_z / 2) and the field
                             rotation exp(i omega t n) combined, as they commute
  * doubly rotated       H'(t) = D(t) (H - F) D(t)^dag
                               = g ( i a^dag sigma_- e^{i delta t}
                                   - i a sigma_+     e^{-i delta t}
                                   + i a^dag sigma_+ e^{i sigma t}
                                   - i a sigma_-     e^{-i sigma t} )

with detuning delta = omega - omega0 and sum frequency sigma = omega + omega0.
The RWA Hamiltonian keeps only the detuning-frequency pair.  The rotated
Hamiltonian satisfies H'(t) = D(t) H'(0) D(t)^dag, so its propagator is
D(t) exp(-i t (H'(0) + F)); the propagator module evaluates that identity.
frame_phases is the one home of the frame: the propagators,
rotation_chain_residual and verify_bch all read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .hilbert import (
    HilbertSpec,
    adjoint,
    annihilation,
    creation,
    pauli,
    spectral_norm,
    tensor,
)

__all__ = [
    "ModelParams",
    "frame_phases",
    "h_full",
    "h_rotated",
    "h_rwa",
    "rotation_chain_residual",
    "verify_bch",
]


@dataclass(frozen=True)
class ModelParams:
    """Field frequency omega, atomic frequency omega0 and coupling g (rad/time)."""

    omega: float
    omega0: float
    g: float

    def __post_init__(self) -> None:
        if not self.omega > 0:
            raise ValueError(f"omega must be positive, got {self.omega}")
        if not self.omega0 > 0:
            raise ValueError(f"omega0 must be positive, got {self.omega0}")
        if self.g < 0:
            raise ValueError(f"g must be non-negative, got {self.g}")
        for name in ("omega", "omega0", "g"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    @property
    def delta(self) -> float:
        """Detuning omega - omega0."""
        return self.omega - self.omega0

    @property
    def sigma(self) -> float:
        """Sum frequency omega + omega0."""
        return self.omega + self.omega0


@lru_cache(maxsize=16)
def _interaction_blocks(spec: HilbertSpec) -> tuple[np.ndarray, ...]:
    """The four lifted coupling blocks (a^dag sm, a sp, a^dag sp, a sm)."""
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


def h_full(params: ModelParams, spec: HilbertSpec) -> np.ndarray:
    """Lab-frame Hamiltonian: field + atom + dipole interaction."""
    a = annihilation(spec)
    ad = creation(spec)
    field = params.omega * tensor(ad @ a, np.eye(2, dtype=complex))
    atom = 0.5 * params.omega0 * tensor(np.eye(spec.fock_dim, dtype=complex), pauli("z"))
    sx = pauli("plus") + pauli("minus")
    interaction = 1j * params.g * tensor(ad - a, sx)
    return field + atom + interaction


def h_rotated(params: ModelParams, spec: HilbertSpec, t: float) -> np.ndarray:
    """Doubly rotated interaction Hamiltonian at time t (Hermitian for all t)."""
    ad_sm, a_sp, ad_sp, a_sm = _interaction_blocks(spec)
    g = params.g
    d, s = params.delta, params.sigma
    return g * (
        1j * np.exp(1j * d * t) * ad_sm
        - 1j * np.exp(-1j * d * t) * a_sp
        + 1j * np.exp(1j * s * t) * ad_sp
        - 1j * np.exp(-1j * s * t) * a_sm
    )


def h_rwa(params: ModelParams, spec: HilbertSpec, t: float) -> np.ndarray:
    """Rotated Hamiltonian with the sum-frequency (counter-rotating) pair dropped."""
    ad_sm, a_sp, _, _ = _interaction_blocks(spec)
    g = params.g
    d = params.delta
    return g * (1j * np.exp(1j * d * t) * ad_sm - 1j * np.exp(-1j * d * t) * a_sp)


def frame_phases(params: ModelParams, spec: HilbertSpec) -> np.ndarray:
    """Diagonal of omega n + omega0 sigma_z / 2 as a real vector.

    D(t) = exp(i t frame_phases) conjugates h_rotated(0) into h_rotated(t)
    (and likewise for h_rwa).
    """
    n = np.arange(spec.fock_dim, dtype=float)
    sz = np.array([0.5, -0.5])
    return (params.omega * n[:, None] + params.omega0 * sz[None, :]).reshape(-1)


def verify_bch(params: ModelParams, spec: HilbertSpec, t: float) -> float:
    """Residual of the field-rotation ladder identities.

    Checks V^dag (a x I) V = e^{-i omega t} (a x I) and the adjoint identity
    with V = D(t)^dag = exp(-i t F), held as its diagonal v; the atom part of
    the frame commutes with a x I.  Both hold exactly even under truncation
    because V is diagonal, so the returned residual is rounding-level.
    """
    v = np.exp(-1j * t * frame_phases(params, spec))
    a_full = tensor(annihilation(spec), np.eye(2, dtype=complex))
    ad_full = adjoint(a_full)
    r1 = spectral_norm(v.conj()[:, None] * a_full * v - np.exp(-1j * params.omega * t) * a_full)
    r2 = spectral_norm(v.conj()[:, None] * ad_full * v - np.exp(1j * params.omega * t) * ad_full)
    return max(r1, r2)


def rotation_chain_residual(params: ModelParams, spec: HilbertSpec, t: float) -> float:
    """Norm distance between h_rotated(t) and the numerically rotated h_full.

    Rotates h_full with the frame it subtracts, D(t) (h_full - F) D(t)^dag
    with D(t) = exp(i t F) and F = diag(frame_phases), as phase products on
    the entries, and compares against the closed-form h_rotated.  This is the
    module's core consistency theorem; the residual should sit at rounding
    level relative to ||h_full||.
    """
    phases = frame_phases(params, spec)
    d = np.exp(1j * t * phases)
    chained = d[:, None] * (h_full(params, spec) - np.diag(phases)) * d.conj()
    return spectral_norm(h_rotated(params, spec, t) - chained)
