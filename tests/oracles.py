"""Independent reference implementations that the tests compare the library against."""

import numpy as np

from jcmagnus.jc_model import h_rotated_stack, h_rwa_stack


def midpoint_product(params, spec, t: float, steps: int, rwa: bool) -> np.ndarray:
    """Literal ordered product of exp(-i dt H(t_mid)) over all midpoints.

    Second order in dt = t / steps; each factor is an exact Hermitian
    eigendecomposition of the Hamiltonian at its midpoint.
    """
    dt = t / steps
    mids = (np.arange(steps) + 0.5) * dt
    stack = h_rwa_stack(params, spec, mids) if rwa else h_rotated_stack(params, spec, mids)
    lam, q = np.linalg.eigh(stack)  # batched Hermitian eigendecompositions
    factors = np.einsum("kij,kj,klj->kil", q, np.exp(-1j * dt * lam), q.conj())
    while factors.shape[0] > 1:
        m = factors.shape[0]
        paired = factors[1 : 2 * (m // 2) : 2] @ factors[0 : 2 * (m // 2) : 2]
        if m % 2:
            paired = np.concatenate([paired, factors[-1:]], axis=0)
        factors = paired
    return factors[0]


def midpoint_extrapolated(params, spec, t: float, steps: int, rwa: bool) -> np.ndarray:
    """Richardson extrapolation of midpoint_product from steps and 2 steps.

    The midpoint rule is symmetric, so its error expands in even powers of
    dt and (4 U(dt/2) - U(dt)) / 3 is fourth-order accurate.
    """
    coarse = midpoint_product(params, spec, t, steps, rwa)
    fine = midpoint_product(params, spec, t, 2 * steps, rwa)
    return (4.0 * fine - coarse) / 3.0


def phase_scan_distance(u1, u2, projector=None) -> float:
    """min over phi of ||P U1 P - e^{i phi} P U2 P||: a 96-point scan of the
    whole circle followed by golden-section refinement to 1e-10."""
    a = np.asarray(u1, dtype=complex)
    b = np.asarray(u2, dtype=complex)
    if projector is not None:
        a = projector @ a @ projector
        b = projector @ b @ projector

    def dist(phi: float) -> float:
        return float(np.linalg.svd(a - np.exp(1j * phi) * b, compute_uv=False)[0])

    coarse = np.linspace(-np.pi, np.pi, 97)[:-1]
    values = [dist(p) for p in coarse]
    k = int(np.argmin(values))
    step = coarse[1] - coarse[0]
    lo, hi = coarse[k] - step, coarse[k] + step

    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = dist(x1), dist(x2)
    while hi - lo > 1e-10:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = dist(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = dist(x2)
    return min(min(values), f1, f2)
