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
