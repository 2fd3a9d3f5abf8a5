import os
import threading

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


def count_thread_starts(monkeypatch, cpus: int | None = None) -> list:
    """The threads started from now on, as a growing list; with cpus, that many CPUs look usable."""
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Counted)
    if cpus is not None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    return started


def count_linalg_calls(monkeypatch, *names: str) -> dict[str, list]:
    """The calls of each named numpy.linalg function from now on, as growing lists of (shape of the first argument, keywords).

    numpy's own calls count too (np.linalg.norm(a, 2) calls svd).
    """
    calls: dict[str, list] = {name: [] for name in names}
    for name in names:
        real = getattr(np.linalg, name)

        def counting(a, *args, _real=real, _calls=calls[name], **kwargs):
            _calls.append((np.shape(a), kwargs))
            return _real(a, *args, **kwargs)

        for module in (np.linalg, np.linalg._linalg):
            monkeypatch.setattr(module, name, counting)
    return calls
