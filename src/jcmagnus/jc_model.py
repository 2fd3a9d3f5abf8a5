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

import numpy as np

from .hilbert import (
    ATOM_EXCITED,
    HilbertSpec,
    _assemble,
    _banded,
    _block_layout,
    adjoint,
    annihilation,
    creation,
    pauli,
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


def _links(spec: HilbertSpec, co: complex, counter: complex) -> np.ndarray:
    """Hermitian parity blocks with sqrt(n+1) co on link n -> n+1 where position n holds the excited atom.

    The link carries sqrt(n+1) counter where position n holds the ground
    atom, and the conjugates sit above the diagonal: the blocks of
    co a^dag sm + counter a^dag sp + h.c.
    """
    n = spec.fock_dim
    excited = _block_layout(n)[0][:, :-1] % 2 == ATOM_EXCITED
    lower = np.sqrt(np.arange(1.0, n)) * np.where(excited, co, counter)
    return _banded(n, {-1: lower, 1: lower.conj()})


def _hamiltonian_blocks(params: ModelParams, spec: HilbertSpec, t: float, counter: bool = True) -> np.ndarray:
    """Parity blocks of h_rotated at time t, or of h_rwa without the counter-rotating pair."""
    co = 1j * np.exp(1j * params.delta * t)
    return params.g * _links(spec, co, 1j * np.exp(1j * params.sigma * t) if counter else 0.0)


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
    return _assemble(_hamiltonian_blocks(params, spec, t))


def h_rwa(params: ModelParams, spec: HilbertSpec, t: float) -> np.ndarray:
    """Rotated Hamiltonian with the sum-frequency (counter-rotating) pair dropped."""
    return _assemble(_hamiltonian_blocks(params, spec, t, counter=False))


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
    return max(_bch_residuals(spec, [(params, t)]))


def _bch_residuals(spec: HilbertSpec, points: list[tuple[ModelParams, float]]) -> list[float]:
    """The two residual norms of verify_bch at each (params, t) point, in order, from one stacked values-only SVD."""
    a_full, mats = tensor(annihilation(spec), np.eye(2, dtype=complex)), []
    for params, t in points:
        v = np.exp(-1j * t * frame_phases(params, spec))
        turns = ((a_full, np.exp(-1j * params.omega * t)), (adjoint(a_full), np.exp(1j * params.omega * t)))
        mats += [v.conj()[:, None] * op * v - turn * op for op, turn in turns]
    return np.linalg.svd(np.stack(mats), compute_uv=False)[:, 0].tolist()


def rotation_chain_residual(params: ModelParams, spec: HilbertSpec, t: float) -> float:
    """Norm distance between h_rotated(t) and the numerically rotated h_full.

    Rotates h_full with the frame it subtracts, D(t) (h_full - F) D(t)^dag
    with D(t) = exp(i t F) and F = diag(frame_phases), as phase products on
    the entries, and compares against the closed-form h_rotated.  This is the
    module's core consistency theorem; the residual should sit at rounding
    level relative to ||h_full||.
    """
    return _rotation_chain(params, spec, [t])[1]


def _rotation_chain(params: ModelParams, spec: HilbertSpec, times: list[float]) -> list[float]:
    """[||h_full||, then rotation_chain_residual at each time]: one h_full, all norms from one stacked values-only SVD."""
    phases, h = frame_phases(params, spec), h_full(params, spec)
    shifted, ds = h - np.diag(phases), [np.exp(1j * t * phases) for t in times]
    mats = [h] + [h_rotated(params, spec, t) - d[:, None] * shifted * d.conj() for t, d in zip(times, ds)]
    return np.linalg.svd(np.stack(mats), compute_uv=False)[:, 0].tolist()
