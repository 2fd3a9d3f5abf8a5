"""Jaynes-Cummings Hamiltonians and the rotating-frame machinery.

Conventions (hbar = 1 throughout, all energies in angular-frequency units):

  * full Hamiltonian     H = omega a^dag a + (omega0/2) sigma_z
                             + i g (a^dag - a)(sigma_+ + sigma_-)
  * atom frame           U(t) = exp(-i omega0 t sigma_z / 2)
  * field frame          V(t) = exp(-i omega t n)
  * doubly rotated       H'(t) = g ( i a^dag sigma_- e^{i delta t}
                                   - i a sigma_+     e^{-i delta t}
                                   + i a^dag sigma_+ e^{i sigma t}
                                   - i a sigma_-     e^{-i sigma t} )

with detuning delta = omega - omega0 and sum frequency sigma = omega + omega0.
The RWA Hamiltonian keeps only the detuning-frequency pair.  The rotated
Hamiltonian satisfies H'(t) = D(t) H'(0) D(t)^dag with the diagonal phase
D(t) = exp(i t F), F = omega n + omega0 sigma_z / 2, so its propagator is
D(t) exp(-i t (H'(0) + F)); the propagator module evaluates that identity.
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
    number,
    pauli,
    spectral_norm,
    tensor,
)

__all__ = [
    "ModelParams",
    "frame_atom",
    "frame_field",
    "frame_phases",
    "h_full",
    "h_rotated",
    "h_rotated_stack",
    "h_rwa",
    "h_rwa_stack",
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


@lru_cache(maxsize=16)
def _second_order_operators(spec: HilbertSpec) -> tuple[np.ndarray, ...]:
    """The operators of the second-order generator (n sz, P_e, P_g, a^2 sz, a^dag^2 sz)."""
    a = annihilation(spec)
    ad = creation(spec)
    eye_f = np.eye(spec.fock_dim, dtype=complex)
    sz = pauli("z")
    ops = (
        tensor(number(spec), sz),
        tensor(eye_f, pauli("proj_e")),
        tensor(eye_f, pauli("proj_g")),
        tensor(a @ a, sz),
        tensor(ad @ ad, sz),
    )
    for op in ops:
        op.setflags(write=False)
    return ops


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


def _stack(params: ModelParams, spec: HilbertSpec, ts: np.ndarray, rwa: bool) -> np.ndarray:
    ts = np.asarray(ts, dtype=float).reshape(-1)
    ad_sm, a_sp, ad_sp, a_sm = _interaction_blocks(spec)
    g = params.g
    d, s = params.delta, params.sigma
    ed = np.exp(1j * d * ts)[:, None, None]
    out = g * (1j * ed * ad_sm - 1j * ed.conj() * a_sp)
    if not rwa:
        es = np.exp(1j * s * ts)[:, None, None]
        out += g * (1j * es * ad_sp - 1j * es.conj() * a_sm)
    return out


def h_rotated_stack(params: ModelParams, spec: HilbertSpec, ts: np.ndarray) -> np.ndarray:
    """h_rotated evaluated on a vector of times, shape (len(ts), dim, dim)."""
    return _stack(params, spec, ts, rwa=False)


def h_rwa_stack(params: ModelParams, spec: HilbertSpec, ts: np.ndarray) -> np.ndarray:
    """h_rwa evaluated on a vector of times."""
    return _stack(params, spec, ts, rwa=True)


def frame_phases(params: ModelParams, spec: HilbertSpec) -> np.ndarray:
    """Diagonal of omega n + omega0 sigma_z / 2 as a real vector.

    D(t) = exp(i t frame_phases) conjugates h_rotated(0) into h_rotated(t)
    (and likewise for h_rwa).
    """
    n = np.arange(spec.fock_dim, dtype=float)
    sz = np.array([0.5, -0.5])
    return (params.omega * n[:, None] + params.omega0 * sz[None, :]).reshape(-1)


def frame_atom(params: ModelParams, spec: HilbertSpec, t: float) -> np.ndarray:
    """Atom-rotation unitary U(t) = exp(-i omega0 t sigma_z / 2), lifted and diagonal."""
    sz_diag = np.array([1.0, -1.0])
    phases = np.exp(-0.5j * params.omega0 * t * sz_diag)
    return np.diag(np.tile(phases, spec.fock_dim)).astype(complex)


def frame_field(params: ModelParams, spec: HilbertSpec, t: float) -> np.ndarray:
    """Field-rotation unitary V(t) = exp(-i omega t n), lifted and diagonal."""
    n = np.arange(spec.fock_dim, dtype=float)
    phases = np.exp(-1j * params.omega * t * n)
    return np.diag(np.repeat(phases, 2)).astype(complex)


def verify_bch(params: ModelParams, spec: HilbertSpec, t: float) -> float:
    """Residual of the field-rotation ladder identities.

    Checks V^dag (a x I) V = e^{-i omega t} (a x I) and the adjoint identity;
    both hold exactly even under truncation because V is diagonal, so the
    returned residual is rounding-level.
    """
    v = frame_field(params, spec, t)
    a_full = tensor(annihilation(spec), np.eye(2, dtype=complex))
    vd = adjoint(v)
    r1 = spectral_norm(vd @ a_full @ v - np.exp(-1j * params.omega * t) * a_full)
    ad_full = adjoint(a_full)
    r2 = spectral_norm(vd @ ad_full @ v - np.exp(1j * params.omega * t) * ad_full)
    return max(r1, r2)


def rotation_chain_residual(params: ModelParams, spec: HilbertSpec, t: float) -> float:
    """Norm distance between h_rotated(t) and the numerically rotated h_full.

    Applies the two frame rotations to h_full with their generator
    subtractions and compares against the closed-form h_rotated.  This is the
    module's core consistency theorem; the residual should sit at rounding
    level relative to ||h_full||.
    """
    u = frame_atom(params, spec, t)
    v = frame_field(params, spec, t)
    z_full = tensor(np.eye(spec.fock_dim, dtype=complex), pauli("z"))
    n_full = tensor(number(spec), np.eye(2, dtype=complex))
    stage1 = adjoint(u) @ h_full(params, spec) @ u - 0.5 * params.omega0 * z_full
    chained = adjoint(v) @ stage1 @ v - params.omega * n_full
    return spectral_norm(h_rotated(params, spec, t) - chained)
