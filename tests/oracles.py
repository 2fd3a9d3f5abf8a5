"""Independent reference implementations that the tests compare the library against."""

import numpy as np

from jcmagnus.jc_model import h_rotated_stack, h_rwa_stack
from jcmagnus.magnus import IntegralSet, simpson_weights


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
    """min over phi of f(phi) = ||P U1 P - e^{i phi} P U2 P||: a 96-point scan of
    the whole circle, then golden-section refinement within one scan step of
    every scan point that the Lipschitz bound cannot rule out, each until the
    bracket cannot shrink further in floating point.

    f is ||B||-Lipschitz in phi (B = P U2 P), and every phase lies within half
    a step of a scan point p, so p can hold a lower value only if
    f(p) - ||B|| step / 2 is below the best value found.  Those points are
    refined in increasing f.  Far-apart arguments can have several local
    minima, and this reaches the global one unless two of them share a
    bracket.  Returns the smallest value evaluated, so it converges to
    rounding at kinks as well as at smooth minima.
    """
    a = np.asarray(u1, dtype=complex)
    b = np.asarray(u2, dtype=complex)
    if projector is not None:
        a = projector @ a @ projector
        b = projector @ b @ projector

    def dist(phi: float) -> float:
        return float(np.linalg.svd(a - np.exp(1j * phi) * b, compute_uv=False)[0])

    invphi = (np.sqrt(5.0) - 1.0) / 2.0

    def golden(lo: float, hi: float) -> float:
        x1 = hi - invphi * (hi - lo)
        x2 = lo + invphi * (hi - lo)
        f1, f2 = dist(x1), dist(x2)
        best = min(f1, f2)
        while lo < x1 < x2 < hi:
            if f1 <= f2:
                hi, x2, f2 = x2, x1, f1
                x1 = hi - invphi * (hi - lo)
                f1 = dist(x1)
            else:
                lo, x1, f1 = x1, x2, f2
                x2 = lo + invphi * (hi - lo)
                f2 = dist(x2)
            best = min(best, f1, f2)
        return best

    coarse = np.linspace(-np.pi, np.pi, 97)[:-1]
    step = coarse[1] - coarse[0]
    values = [dist(p) for p in coarse]
    lipschitz = float(np.linalg.svd(b, compute_uv=False)[0])
    best = min(values)
    for k in np.argsort(values, kind="stable"):
        if values[k] - 0.5 * step * lipschitz >= best:
            break
        best = min(best, golden(coarse[k] - step, coarse[k] + step))
    return best


def eigenphase_arc_distance(u1, u2) -> float:
    """min over phi of ||U1 - e^{i phi} U2|| for unitaries, in closed form.

    ||U1 - e^{i phi} U2|| = ||U2^dag U1 - e^{i phi}|| = max_k |e^{i theta_k} - e^{i phi}|
    over the eigenphases theta_k of the unitary U2^dag U1, so the minimum is
    2 sin(w / 4), with w the narrowest arc that holds every theta_k (2 pi
    minus the widest gap between neighbours), reached at its midpoint.
    """
    theta = np.sort(np.angle(np.linalg.eigvals(np.asarray(u2).conj().T @ np.asarray(u1))))
    gaps = np.diff(np.append(theta, theta[0] + 2.0 * np.pi))
    return float(2.0 * np.sin((2.0 * np.pi - gaps.max()) / 4.0))


def omega1_stack_rule(params, spec, t: float, n: int) -> np.ndarray:
    """-i times the composite-Simpson sum of h_rotated over its n + 1 nodes on [0, t]."""
    ts = np.linspace(0.0, t, n + 1)
    return -1j * np.einsum("i,iab->ab", simpson_weights(n, t), h_rotated_stack(params, spec, ts))


def triangle_quadrature(fn, t: float, n: int) -> complex:
    """Iterated composite Simpson of fn(t1, t2) over 0 <= t2 <= t1 <= t.

    The integrand is evaluated on the full (n + 1)^2 grid; the inner integral
    uses a fresh n-panel grid on [0, t1] for every outer node.
    """
    t1 = np.linspace(0.0, t, n + 1)[:, None]
    t2 = t1 * np.linspace(0.0, 1.0, n + 1)[None, :]
    inner_w = simpson_weights(n, 1.0)[None, :] * t1
    inner = np.sum(inner_w * fn(t1, t2), axis=1)
    return complex(np.sum(simpson_weights(n, t) * inner))


def inner_sums_grid(params, t: float, n: int):
    """(e_d, e_s): the inner Simpson sums E_x(s_i) = sum_j w_ij e^{i x s_i xi_j}
    on the full (n + 1)^2 phase grid, xi_j = j / n and w_ij = s_i / n times
    the Simpson pattern, for x = delta and x = sigma."""
    s = np.linspace(0.0, t, n + 1)
    u = s[:, None] * np.linspace(0.0, 1.0, n + 1)[None, :]
    pattern = simpson_weights(n, n)  # (1, 4, 2, ..., 4, 1) / 3
    return tuple(
        (s / n) * (np.cos(x * u) @ pattern + 1j * (np.sin(x * u) @ pattern))
        for x in (params.delta, params.sigma)
    )


def integrals_triangle_rule(params, t: float, n: int) -> IntegralSet:
    """I1..I6 with each defining integrand evaluated on its own (n + 1)^2 grid."""
    d, s = params.delta, params.sigma

    def e(x):
        return np.exp(1j * x)

    i1 = triangle_quadrature(lambda t1, t2: -e(d * (t1 - t2)) + e(-d * (t1 - t2)), t, n)
    i2 = triangle_quadrature(lambda t1, t2: e(d * t1 + s * t2) - e(s * t1 + d * t2), t, n)
    i3 = triangle_quadrature(lambda t1, t2: -e(d * t1 - s * t2) + e(-(s * t1 - d * t2)), t, n)
    i4 = triangle_quadrature(lambda t1, t2: -e(s * t1 - d * t2) + e(-(d * t1 - s * t2)), t, n)
    i5 = triangle_quadrature(lambda t1, t2: e(-(d * t1 + s * t2)) - e(-(s * t1 + d * t2)), t, n)
    i6 = triangle_quadrature(lambda t1, t2: -e(s * (t1 - t2)) + e(-s * (t1 - t2)), t, n)
    return IntegralSet(i1=i1, i2=i2, i3=i3, i4=i4, i5=i5, i6=i6, zeta=i2, t=t, params=params)
