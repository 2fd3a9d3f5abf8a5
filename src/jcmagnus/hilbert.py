"""Dense operator algebra on a truncated Fock space tensored with a two-level atom.

Everything is an ordinary complex numpy array.  The tensor convention is
field-first: basis index = fock_index * 2 + atom_index, with atom index 0 the
excited state and atom index 1 the ground state (sigma_z = diag(+1, -1)).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "ATOM_EXCITED",
    "ATOM_GROUND",
    "HilbertSpec",
    "adjoint",
    "annihilation",
    "anti_hermiticity_defect",
    "anti_herm_tolerance",
    "creation",
    "expm_antiherm",
    "number",
    "pauli",
    "spectral_norm",
    "tensor",
]

ATOM_EXCITED = 0
ATOM_GROUND = 1


@dataclass(frozen=True)
class HilbertSpec:
    """Truncated field (x) atom space: Fock levels |0..N-1> times a two-level atom.

    fock_dim must be an integer of at least 4 so that two-photon (squeezing)
    matrix elements survive truncation.
    """

    fock_dim: int

    def __post_init__(self) -> None:
        if not isinstance(self.fock_dim, (int, np.integer)):
            raise ValueError(f"fock_dim must be an integer, got {self.fock_dim!r}")
        if self.fock_dim < 4:
            raise ValueError(f"fock_dim must be >= 4, got {self.fock_dim}")

    @property
    def dim(self) -> int:
        """Total dimension 2 * fock_dim."""
        return self.fock_dim * 2

    def index(self, n: int, atom: int) -> int:
        """Basis index of |n, atom> under the field-first convention."""
        if not isinstance(n, (int, np.integer)) or not 0 <= n < self.fock_dim:
            raise ValueError(f"Fock level must be an integer in 0..{self.fock_dim - 1}, got {n!r}")
        if atom not in (ATOM_EXCITED, ATOM_GROUND):
            raise ValueError(f"atom index must be 0 (excited) or 1 (ground), got {atom}")
        return n * 2 + atom


def annihilation(spec: HilbertSpec) -> np.ndarray:
    """Truncated annihilation operator: entry (n-1, n) = sqrt(n)."""
    n = np.arange(1, spec.fock_dim, dtype=float)
    return np.diag(np.sqrt(n), k=1).astype(complex)


def creation(spec: HilbertSpec) -> np.ndarray:
    """Truncated creation operator, the exact adjoint of annihilation."""
    return adjoint(annihilation(spec))


def number(spec: HilbertSpec) -> np.ndarray:
    """Photon-number operator a^dag a, diagonal (0, 1, ..., N-1)."""
    return creation(spec) @ annihilation(spec)


_PAULI = {
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
    "plus": np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),
    "minus": np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex),
    "proj_e": np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex),
    "proj_g": np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex),
}


def pauli(which: str) -> np.ndarray:
    """Two-level atom operators in the (excited, ground) basis.

    'z' is diag(1, -1), 'plus' raises ground to excited, 'minus' lowers,
    'proj_e' = sigma_+ sigma_- and 'proj_g' = sigma_- sigma_+.
    """
    try:
        return _PAULI[which].copy()
    except KeyError:
        raise ValueError(
            f"unknown Pauli tag {which!r}; expected one of {sorted(_PAULI)}"
        ) from None


def tensor(field_op: np.ndarray, atom_op: np.ndarray) -> np.ndarray:
    """Kronecker product field_op (x) atom_op under the field-first convention."""
    field_op = np.asarray(field_op)
    atom_op = np.asarray(atom_op)
    if atom_op.shape != (2, 2):
        raise ValueError(f"atom operator must be 2x2, got {atom_op.shape}")
    if field_op.ndim != 2 or field_op.shape[0] != field_op.shape[1]:
        raise ValueError(f"field operator must be square, got {field_op.shape}")
    return np.kron(field_op, atom_op)


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose (of each matrix of a stack)."""
    return np.asarray(a).conj().swapaxes(-1, -2)


def spectral_norm(a: np.ndarray) -> float:
    """Largest singular value."""
    return float(np.linalg.norm(np.asarray(a), 2))


def _hermitian_norm(h: np.ndarray) -> float:
    """Largest |eigenvalue| of a Hermitian matrix (lower triangle): its spectral norm."""
    return float(np.max(np.abs(np.linalg.eigvalsh(h))))


def anti_hermiticity_defect(gen: np.ndarray) -> float:
    """Spectral norm of G + G^dag (zero for an anti-Hermitian G)."""
    gen = np.asarray(gen)
    return _hermitian_norm(gen + adjoint(gen))


def anti_herm_tolerance(norm: float) -> float:
    """Acceptance tolerance for (anti-)Hermiticity checks.

    Relative above unit scale: quadrature-built generators carry integration
    error proportional to their own size.
    """
    return 1e-10 * max(1.0, norm)


def expm_antiherm(gen: np.ndarray) -> np.ndarray:
    """Unitary exponential exp(G) of an anti-Hermitian generator G, or of each G in a stack.

    Computed through the Hermitian eigendecomposition of iG: with
    iG = Q diag(lam) Q^dag the result is Q exp(-i lam) Q^dag, which is unitary
    by construction instead of merely to truncation order of a series.  A
    stack of generators takes one stacked eigh, bit-identical per generator
    to a single call.

    Raises ValueError when ||G + G^dag|| of a generator exceeds the
    anti-Hermiticity tolerance (scaled by that generator's max |lam|, the
    norm of its anti-Hermitian part).  The Frobenius norm of G + G^dag bounds
    that spectral norm, so only a generator whose Frobenius norm exceeds the
    tolerance takes an eigvalsh.
    """
    gen = np.asarray(gen, dtype=complex)
    if gen.ndim < 2 or gen.shape[-1] != gen.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {gen.shape}")
    if not np.all(np.isfinite(gen)):
        raise ValueError("generator contains non-finite entries")
    h = 1j * gen
    h = 0.5 * (h + adjoint(h))  # strip the rounding-level skew part
    lam, q = np.linalg.eigh(h)
    sym = (gen + adjoint(gen)).reshape(-1, *gen.shape[-2:])
    scales = np.ravel(np.max(np.abs(lam), axis=-1))
    for m, frobenius, scale in zip(sym, np.linalg.norm(sym, axis=(1, 2)), scales):
        tol = anti_herm_tolerance(float(scale))
        if frobenius > tol and (defect := _hermitian_norm(m)) > tol:
            raise ValueError(
                f"generator is not anti-Hermitian: ||G + G^dag|| = {defect:.3e} "
                f"exceeds tolerance {tol:.3e}"
            )
    return (q * np.exp(-1j * lam)[..., None, :]) @ adjoint(q)



@lru_cache(maxsize=16)
def _block_layout(fock_dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(index, gather, cross) of the parity blocks of 2 fock_dim states.

    Every model operator conserves the parity of n + [atom excited], so the
    2N states split into two blocks of N, with Fock level n at position n of
    either block.  index[b, n] is the basis index of position n of block b
    (atom excited iff n + b is odd); gather[b, i, j] is the flat position of
    block entry (i, j), and cross holds those of the entries between blocks.
    """
    n = np.arange(fock_dim)
    index = 2 * n + 1 - (n + np.arange(2)[:, None]) % 2
    gather = index[:, :, None] * (2 * fock_dim) + index[:, None, :]
    cross = np.delete(np.arange(4 * fock_dim * fock_dim), gather.ravel())
    for a in (index, gather, cross):
        a.setflags(write=False)
    return index, gather, cross


def _banded(fock_dim: int, bands: dict[int, np.ndarray]) -> np.ndarray:
    """Parity blocks, shape (2, N, N), zero but for bands[k][b, :N - |k|] on offset k of block b (k > 0 above the diagonal)."""
    out = np.zeros((2, fock_dim * fock_dim), dtype=complex)
    for k, band in bands.items():
        # entry (i, i + k) of a block sits at flat position i (N + 1) + k, (i - k, i) at i (N + 1) - k N
        out[:, (k if k >= 0 else -k * fock_dim) :: fock_dim + 1][:, : fock_dim - abs(k)] = band[:, : fock_dim - abs(k)]
    return out.reshape(2, fock_dim, fock_dim)


def _assemble(blocks: np.ndarray) -> np.ndarray:
    """The full matrices, shape (..., 2N, 2N), of parity blocks of shape (..., 2, N, N), zero between the blocks."""
    n, lead = blocks.shape[-1], blocks.shape[:-3]
    full = np.zeros((*lead, 4 * n * n), dtype=complex)
    full[..., _block_layout(n)[1]] = blocks
    return full.reshape(*lead, 2 * n, 2 * n)
