import math
import re

import numpy as np
import pytest

from jcmagnus.hilbert import (
    HilbertSpec,
    adjoint,
    annihilation,
    anti_herm_tolerance,
    anti_hermiticity_defect,
    creation,
    expm_antiherm,
    number,
    pauli,
    spectral_norm,
    tensor,
)
from jcmagnus.hilbert import _hermitian_norm
from jcmagnus.observables import basis_state

from conftest import commutator, count_linalg_calls, random_antihermitian, random_unitary


def test_spec_validation():
    with pytest.raises(ValueError, match="fock_dim"):
        HilbertSpec(3)
    for bad in (12.0, "12", None, np.float64(12.0)):
        with pytest.raises(ValueError, match="fock_dim must be an integer"):
            HilbertSpec(bad)
    assert HilbertSpec(np.int64(12)).dim == 24
    with pytest.raises(TypeError):
        HilbertSpec(8, atom_dim=3)
    spec = HilbertSpec(6)
    assert spec.dim == 12
    assert spec.index(2, 1) == 5
    with pytest.raises(ValueError):
        spec.index(6, 0)
    # a Fock level that is not an integer is named, not used as an index
    for bad in (1.5, 1.0, math.nan, np.float64(1.0), "1"):
        with pytest.raises(ValueError, match="Fock level must be an integer"):
            spec.index(bad, 0)
        with pytest.raises(ValueError, match="Fock level must be an integer"):
            basis_state(spec, bad, "e")
    assert spec.index(np.int64(1), 0) == 2
    assert np.array_equal(basis_state(spec, np.int64(1), "e").amplitudes, basis_state(spec, 1, "e").amplitudes)


def test_annihilation_entries():
    spec = HilbertSpec(4)
    a = annihilation(spec)
    # two lowest levels carry the bare sqrt(1) ladder entry
    assert np.array_equal(a[:2, :2], np.array([[0, 1], [0, 0]], dtype=complex))
    # ladder action on |3>
    e3 = np.zeros(4)
    e3[3] = 1.0
    out = a @ e3
    expected = np.zeros(4, dtype=complex)
    expected[2] = np.sqrt(3.0)
    assert np.allclose(out, expected, atol=0, rtol=0)


def test_number_operator_diagonal():
    spec = HilbertSpec(5)
    n = number(spec)
    assert np.allclose(np.diag(n), np.arange(5))
    assert np.allclose(n - np.diag(np.diag(n)), 0.0)


def test_creation_is_exact_adjoint():
    spec = HilbertSpec(9)
    assert np.array_equal(creation(spec), annihilation(spec).conj().T)


def test_pauli_matrices():
    assert np.array_equal(pauli("z"), np.diag([1.0, -1.0]).astype(complex))
    assert np.array_equal(pauli("plus") @ pauli("minus"), pauli("proj_e"))
    assert np.array_equal(pauli("minus") @ pauli("plus"), pauli("proj_g"))
    assert np.array_equal(commutator(pauli("minus"), pauli("plus")), -pauli("z"))
    with pytest.raises(ValueError, match="Pauli"):
        pauli("x")


def test_tensor_structure():
    spec = HilbertSpec(5)
    eye_f = np.eye(5, dtype=complex)
    lifted = tensor(eye_f, pauli("z"))
    assert np.array_equal(np.diag(lifted), np.tile([1.0, -1.0], 5).astype(complex))
    assert np.array_equal(tensor(eye_f, np.eye(2, dtype=complex)), np.eye(10))
    # <0,atom0| a (x) I |1,atom0> = 1
    a = annihilation(spec)
    assert tensor(a, np.eye(2, dtype=complex))[0, 2] == 1.0
    with pytest.raises(ValueError):
        tensor(a, np.eye(3, dtype=complex))


def test_tensor_mixed_product():
    spec = HilbertSpec(4)
    a = annihilation(spec)
    ad = creation(spec)
    lhs = tensor(a, pauli("plus")) @ tensor(ad, pauli("minus"))
    rhs = tensor(a @ ad, pauli("proj_e"))
    assert spectral_norm(lhs - rhs) == 0.0


def test_tensor_mixed_product_random(rng):
    # bilinearity and the mixed-product rule on random operators
    f1 = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    f2 = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    a1 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    a2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    lhs = tensor(f1, a1) @ tensor(f2, a2)
    rhs = tensor(f1 @ f2, a1 @ a2)
    assert spectral_norm(lhs - rhs) <= 1e-13 * max(1.0, spectral_norm(rhs))
    lin = tensor(2.0 * f1 + f2, a1) - 2.0 * tensor(f1, a1) - tensor(f2, a1)
    assert spectral_norm(lin) <= 1e-13


def test_ladder_commutator_truncation():
    spec = HilbertSpec(8)
    c = commutator(annihilation(spec), creation(spec))
    # identity everywhere except the top Fock level, where truncation bites
    expected = np.eye(8, dtype=complex)
    expected[7, 7] = -7.0
    assert np.allclose(c, expected, atol=1e-15)
    assert np.allclose(c[:7, :7], np.eye(7), atol=1e-15)


def test_commutator_basics(rng):
    m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    assert spectral_norm(commutator(m, m)) == 0.0
    with pytest.raises(ValueError):
        commutator(m, np.eye(4))


def test_product_commutator_expansion(rng):
    # [AB, CD] = A[B,C]D + AC[B,D] + [A,C]DB + C[A,D]B, checked directly
    mats = [rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) for _ in range(4)]
    a, b, c, d = mats
    lhs = commutator(a @ b, c @ d)
    rhs = (
        a @ commutator(b, c) @ d
        + a @ c @ commutator(b, d)
        + commutator(a, c) @ d @ b
        + c @ commutator(a, d) @ b
    )
    assert spectral_norm(lhs - rhs) <= 1e-13 * spectral_norm(lhs)


def test_norms():
    m = np.array([[3.0, 0.0], [0.0, -4.0]], dtype=complex)
    assert spectral_norm(m) == 4.0


def test_expm_antiherm_trivial_cases():
    assert np.allclose(expm_antiherm(np.zeros((4, 4))), np.eye(4), atol=1e-15)
    theta = 0.731
    g = np.diag([1j * theta, -1j * theta])
    u = expm_antiherm(g)
    assert np.allclose(np.diag(u), [np.exp(1j * theta), np.exp(-1j * theta)], atol=1e-15)


def test_expm_antiherm_inverse_composition(rng):
    g = random_antihermitian(rng, 8)
    u = expm_antiherm(g) @ expm_antiherm(-g)
    assert spectral_norm(u - np.eye(8)) <= 1e-12


@pytest.mark.parametrize("dim", [2, 8, 32, 128])
def test_expm_antiherm_unitarity(rng, dim):
    g = random_antihermitian(rng, dim)
    u = expm_antiherm(g)
    assert spectral_norm(adjoint(u) @ u - np.eye(dim)) <= 1e-12


def test_expm_antiherm_rejects_hermitian(rng):
    h = random_antihermitian(rng, 6) * 1j  # Hermitian now
    with pytest.raises(ValueError, match="anti-Hermitian"):
        expm_antiherm(h)
    with pytest.raises(ValueError):
        expm_antiherm(np.ones((3, 4)))


def test_hermitian_norm_matches_spectral_norm(rng):
    # the eigvalsh norm behind anti_hermiticity_defect and unitarity_defect
    # agrees with the SVD norm on Hermitian matrices.  eigvalsh reads one
    # triangle, so on a product U^dag U - I that BLAS rounds to a slightly
    # non-Hermitian matrix (some kernels do at small sizes) the two may differ
    # by up to the rounding-level skew part, ||M - M^dag||_F (Weyl).
    for dim in (2, 3, 12, 48):
        for _ in range(5):
            h = 1j * random_antihermitian(rng, dim)
            u = random_unitary(rng, dim)
            for m in (h, adjoint(u) @ u - np.eye(dim)):
                want = np.linalg.norm(m, 2)
                skew = np.linalg.norm(m - adjoint(m))
                assert abs(_hermitian_norm(m) - want) <= 1e-14 * want + skew, dim
    g = random_antihermitian(rng, 12)
    with pytest.raises(ValueError, match="not anti-Hermitian"):
        expm_antiherm(g + 1e-6 * np.eye(12))



def test_expm_antiherm_frobenius_guard(rng, monkeypatch):
    # ||G + G^dag||_F bounds the spectral norm, so eigvalsh runs only for a
    # generator whose Frobenius norm exceeds the tolerance, and the spectral
    # norm still decides: with G + G^dag = delta I on 16 states the Frobenius
    # norm is 4 delta, the spectral norm delta, and the tolerance 1e-10
    calls = count_linalg_calls(monkeypatch, "eigvalsh")["eigvalsh"]
    g = random_antihermitian(rng, 16)
    g *= 0.5 / spectral_norm(g)
    expm_antiherm(g)
    assert calls == []
    passing = g + 2.5e-11 * np.eye(16)
    assert np.linalg.norm(passing + adjoint(passing)) > anti_herm_tolerance(0.5) >= anti_hermiticity_defect(passing)
    assert spectral_norm(expm_antiherm(passing) - expm_antiherm(g)) <= 1e-14
    assert len(calls) == 2  # the guard's eigvalsh and anti_hermiticity_defect's
    failing = g + 2e-10 * np.eye(16)
    message = (
        f"generator is not anti-Hermitian: ||G + G^dag|| = {anti_hermiticity_defect(failing):.3e} "
        f"exceeds tolerance {anti_herm_tolerance(0.5):.3e}"
    )
    with pytest.raises(ValueError, match=re.escape(message)):
        expm_antiherm(failing)
