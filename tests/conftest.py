import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


def angle_diff_mod_pi(a: float, b: float) -> float:
    """Distance between two angles identified modulo pi."""
    d = abs(a - b) % np.pi
    return min(d, np.pi - d)


def random_antihermitian(rng, dim: int) -> np.ndarray:
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (m - m.conj().T)


def random_unitary(rng, dim: int) -> np.ndarray:
    """Haar-random unitary: QR of a complex Gaussian, column phases fixed by diag R."""
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """AB - BA for square matrices of matching dimension."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"commutator needs matching square matrices, got {a.shape} and {b.shape}")
    return a @ b - b @ a
