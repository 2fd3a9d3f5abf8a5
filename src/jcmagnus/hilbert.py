"""Dense operator algebra on a truncated Fock space tensored with a two-level atom.

Everything is an ordinary complex numpy array.  The tensor convention is
field-first: basis index = fock_index * 2 + atom_index, with atom index 0 the
excited state and atom index 1 the ground state (sigma_z = diag(+1, -1)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ATOM_EXCITED",
    "ATOM_GROUND",
    "HilbertSpec",
    "adjoint",
    "annihilation",
    "anti_hermiticity_defect",
    "anti_herm_tolerance",
    "commutator",
    "creation",
    "expm_antiherm",
    "frobenius_norm",
    "herm_eig",
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

    fock_dim must be at least 4 so that two-photon (squeezing) matrix elements
    survive truncation.  atom_dim is fixed at 2.
    """

    fock_dim: int
    atom_dim: int = 2

    def __post_init__(self) -> None:
        if self.fock_dim < 4:
            raise ValueError(f"fock_dim must be >= 4, got {self.fock_dim}")
        if self.atom_dim != 2:
            raise ValueError(f"atom_dim is fixed at 2, got {self.atom_dim}")

    @property
    def dim(self) -> int:
        """Total dimension 2 * fock_dim."""
        return self.fock_dim * self.atom_dim

    def index(self, n: int, atom: int) -> int:
        """Basis index of |n, atom> under the field-first convention."""
        if not 0 <= n < self.fock_dim:
            raise ValueError(f"Fock level {n} outside 0..{self.fock_dim - 1}")
        if atom not in (ATOM_EXCITED, ATOM_GROUND):
            raise ValueError(f"atom index must be 0 (excited) or 1 (ground), got {atom}")
        return n * self.atom_dim + atom


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


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """AB - BA for square matrices of matching dimension."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"commutator needs matching square matrices, got {a.shape} and {b.shape}")
    return a @ b - b @ a


def spectral_norm(a: np.ndarray) -> float:
    """Largest singular value."""
    return float(np.linalg.norm(np.asarray(a), 2))


def frobenius_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(a), "fro"))


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


def _require_square(a: np.ndarray) -> np.ndarray:
    """a as complex; a square matrix or a stack of them."""
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def expm_antiherm(gen: np.ndarray) -> np.ndarray:
    """Unitary exponential exp(G) of an anti-Hermitian generator G, or of each G in a stack.

    Computed through the Hermitian eigendecomposition of iG: with
    iG = Q diag(lam) Q^dag the result is Q exp(-i lam) Q^dag, which is unitary
    by construction instead of merely to truncation order of a series.  A
    stack of generators takes one stacked eigh, bit-identical per generator
    to a single call.

    Raises ValueError when ||G + G^dag|| of a generator exceeds the
    anti-Hermiticity tolerance (scaled by that generator's max |lam|, the
    norm of its anti-Hermitian part).
    """
    gen = _require_square(gen)
    if not np.all(np.isfinite(gen)):
        raise ValueError("generator contains non-finite entries")
    h = 1j * gen
    h = 0.5 * (h + adjoint(h))  # strip the rounding-level skew part
    lam, q = np.linalg.eigh(h)
    defects = np.max(np.abs(np.linalg.eigvalsh(gen + adjoint(gen))), axis=-1)
    for defect, scale in zip(np.ravel(defects), np.ravel(np.max(np.abs(lam), axis=-1))):
        tol = anti_herm_tolerance(float(scale))
        if defect > tol:
            raise ValueError(
                f"generator is not anti-Hermitian: ||G + G^dag|| = {defect:.3e} "
                f"exceeds tolerance {tol:.3e}"
            )
    return (q * np.exp(-1j * lam)[..., None, :]) @ adjoint(q)


def herm_eig(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition H = Q diag(lam) Q^dag of a Hermitian matrix.

    Eigenvalues come back ascending.  Rejects inputs whose Hermiticity defect
    exceeds the shared tolerance.
    """
    h = _require_square(h)
    defect = spectral_norm(h - adjoint(h))
    tol = anti_herm_tolerance(spectral_norm(h))
    if defect > tol:
        raise ValueError(
            f"matrix is not Hermitian: ||H - H^dag|| = {defect:.3e} exceeds {tol:.3e}"
        )
    sym = 0.5 * (h + adjoint(h))
    lam, q = np.linalg.eigh(sym)
    return lam, q
