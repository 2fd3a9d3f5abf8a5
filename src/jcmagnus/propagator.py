"""Propagators for the rotated Jaynes-Cummings dynamics and their comparison.

Four unitaries are produced for a given (params, t):

  * u_exact    -- the exact propagator of h_rotated,
  * u_rwa      -- the exact propagator of h_rwa,
  * u_magnus1  -- exp(Omega_1),
  * u_magnus2  -- exp(Omega_1 + Omega_2), one exponential of the sum.

Both rotated Hamiltonians obey H(t) = D(t) H(0) D(t)^dag with the diagonal
frame phase D(t) = exp(i t F), F = diag(frame_phases).  Their propagator is
therefore the interaction-picture identity

    U(t) = D(t) exp(-i t (H(0) + F)),

a single Hermitian eigendecomposition: exact to rounding for every t and
unitary by construction, with no time stepping.

Every operator here conserves the parity of n + [atom excited], because the
counter-rotating terms change the excitation number by two.  Each exponential
is taken per parity block (two fock_dim eigendecompositions instead of one of
size 2 fock_dim), so cross-parity entries of all four propagators are exactly
zero.

Error comparisons are phase-aligned spectral-norm distances restricted to a
buffered Fock subspace, because ladder truncation corrupts the top levels and
two propagators may differ by a physically irrelevant global phase.  The
minimum over the phase is located by a coarse scan of a certified arc and
refined with exact first and second derivatives of the top singular values:
Newton steps at a smooth minimum, branch intersections at a kink where the
two largest singular values cross (Lewis & Overton, Acta Numerica 5 (1996)
149), each guarded by a bisection bracket, so distances are exact to
rounding.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .hilbert import ATOM_EXCITED, HilbertSpec, _hermitian_norm, adjoint, expm_antiherm
from .jc_model import ModelParams, frame_phases, h_rotated, h_rwa
from .magnus import convergence_margin, omega1_closed, omega2_closed

__all__ = [
    "DEFAULT_BUFFER",
    "PropagatorBundle",
    "error_report",
    "phase_aligned_distance",
    "project_buffer",
    "propagator_bundle",
    "u_exact",
    "u_magnus",
    "u_rwa",
    "unitarity_defect",
]

# Each application of h_rotated moves the photon number by one and the
# second-order objects by up to two, so two guard levels quarantine the
# truncation edge.
DEFAULT_BUFFER = 2
# Coarse-scan spacing of the phase search, and the step, in ulps of phi, at
# which its refinement stops.
_PHASE_STEP = 2.0 * math.pi / 96
_ULPS = 4


@dataclass(frozen=True)
class PropagatorBundle:
    """The four propagators at one parameter point."""

    u_exact: np.ndarray
    u_rwa: np.ndarray
    u_magnus1: np.ndarray
    u_magnus2: np.ndarray
    params: ModelParams
    t: float


def unitarity_defect(u: np.ndarray) -> float:
    """Spectral norm of U^dag U - I."""
    u = np.asarray(u)
    return _hermitian_norm(adjoint(u) @ u - np.eye(u.shape[0]))


def project_buffer(spec: HilbertSpec, buffer: int) -> np.ndarray:
    """Orthogonal projector onto Fock levels 0 .. N-1-buffer (both atom states)."""
    if not 0 <= buffer <= spec.fock_dim - 2:
        raise ValueError(
            f"buffer must lie in 0..{spec.fock_dim - 2} for fock_dim={spec.fock_dim}, got {buffer}"
        )
    keep = np.arange(spec.fock_dim) <= spec.fock_dim - 1 - buffer
    return np.diag(np.repeat(keep, 2).astype(complex))


def _parity_blocks(index: np.ndarray) -> list[np.ndarray]:
    """Positions in `index` of the even and of the odd n + [atom excited] states.

    `index` holds basis indices under the field-first convention; empty
    blocks are dropped.
    """
    parity = (index // 2 + (index % 2 == ATOM_EXCITED)) % 2
    blocks = (np.flatnonzero(parity == 0), np.flatnonzero(parity == 1))
    return [blk for blk in blocks if blk.size]


def _couples_blocks(m: np.ndarray, blocks: list[np.ndarray]) -> bool:
    """Whether m has a nonzero entry between two different parity blocks."""
    return len(blocks) > 1 and bool(
        np.any(m[np.ix_(blocks[0], blocks[1])]) or np.any(m[np.ix_(blocks[1], blocks[0])])
    )


def _expm_blockwise(gen: np.ndarray) -> np.ndarray:
    """exp(G) of a parity-conserving anti-Hermitian G, one expm_antiherm per block."""
    blocks = _parity_blocks(np.arange(gen.shape[0]))
    if _couples_blocks(gen, blocks):
        raise ValueError("generator couples the two excitation-parity blocks")
    u = np.zeros(gen.shape, dtype=complex)
    for blk in blocks:
        sub = np.ix_(blk, blk)
        u[sub] = expm_antiherm(gen[sub])
    return u


def _frame_propagator(params: ModelParams, spec: HilbertSpec, t: float, rwa: bool) -> np.ndarray:
    """D(t) exp(-i t (H(0) + F)) for H = h_rwa or h_rotated."""
    if t < 0:
        raise ValueError(f"t must be non-negative, got {t}")
    if t == 0.0 or params.g == 0.0:
        return np.eye(spec.dim, dtype=complex)
    phases = frame_phases(params, spec)
    h0 = h_rwa(params, spec, 0.0) if rwa else h_rotated(params, spec, 0.0)
    u_lab = _expm_blockwise(-1j * t * (h0 + np.diag(phases)))
    return np.exp(1j * t * phases)[:, None] * u_lab


def u_exact(params: ModelParams, spec: HilbertSpec, t: float) -> np.ndarray:
    """Exact propagator of h_rotated over [0, t]."""
    return _frame_propagator(params, spec, t, rwa=False)


def u_rwa(params: ModelParams, spec: HilbertSpec, t: float) -> np.ndarray:
    """Exact propagator of the RWA Hamiltonian h_rwa over [0, t]."""
    return _frame_propagator(params, spec, t, rwa=True)


def u_magnus(params: ModelParams, spec: HilbertSpec, t: float, order: int) -> np.ndarray:
    """exp(Omega_1) or exp(Omega_1 + Omega_2); a single exponential of the sum."""
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    gen = omega1_closed(params, spec, t).omega1
    if order == 2:
        gen = gen + omega2_closed(params, spec, t).omega2
    return _expm_blockwise(gen)


def _kept_indices(projector: np.ndarray) -> np.ndarray:
    diag = np.diag(projector)
    if not (np.array_equal(projector, np.diag(diag)) and np.all((diag == 0) | (diag == 1))):
        raise ValueError("projector must be diagonal with 0/1 entries, as project_buffer returns")
    return np.flatnonzero(diag)


def _top_branches(x: np.ndarray, y: np.ndarray, z: complex) -> list[tuple[float, float, float]]:
    """(sigma_k, sigma_k', sigma_k'') of the two largest singular values of x - z y.

    Derivatives are in phi with z = e^{i phi}: M' = -i z y and M'' = i M'.
    With K = U^dag M' V from one full SVD,

        sigma_k'  = Re K_kk,
        sigma_k'' = Re(i K_kk) + sum_{j != k} |K_jk + conj(K_kj)|^2 / (2 (sigma_k - sigma_j))
                               + sum_j |K_jk - conj(K_kj)|^2 / (2 (sigma_k + sigma_j)),

    the second-order perturbation of the eigenvalue sigma_k of the Hermitian
    dilation [[0, M], [M^dag, 0]].  Terms with a zero denominator (exact ties
    and pairs of zero singular values) are dropped: their numerators vanish
    along the analytic branches.
    """
    u, s, vh = np.linalg.svd(x - z * y)
    dm = -1j * z * y
    top = min(2, s.size)
    col = u.conj().T @ (dm @ vh[:top].conj().T)  # K_jk for the top k
    row = ((u[:, :top].conj().T @ dm) @ vh.conj().T).T.conj()  # conj(K_kj)
    kk = np.diagonal(col)
    curv = -kk.imag
    for num, den in (
        (np.abs(col + row) ** 2, s[:top] - s[:, None]),
        (np.abs(col - row) ** 2, s[:top] + s[:, None]),
    ):
        curv = curv + np.sum(np.divide(num, 2.0 * den, out=np.zeros(num.shape), where=den != 0), axis=0)
    return list(zip(s[:top].tolist(), kk.real.tolist(), curv.tolist()))


def _model_step(branches: list[tuple[float, float, float]]) -> float | None:
    """Step h to the local minimum nearest 0 of the largest of the branch models.

    Each branch is modelled as q(h) = sigma + sigma' h + sigma'' h^2 / 2.  A
    local minimum of max_k q_k is either the Newton point of a convex model
    that is on top there (a smooth minimum) or a crossing of two models that
    are on top there with slopes of opposite sign (a kink).  None when there
    is neither.
    """

    def value(m: tuple[float, float, float], h: float) -> float:
        return m[0] + m[1] * h + 0.5 * m[2] * h * h

    def on_top(h: float, *ms: tuple[float, float, float]) -> bool:
        return max(value(m, h) for m in ms) >= max(value(m, h) for m in branches)

    minima = [-d / c for s, d, c in branches if c > 0.0 and on_top(-d / c, (s, d, c))]
    for m1, m2 in itertools.combinations(branches, 2):
        (s1, d1, c1), (s2, d2, c2) = m1, m2
        a, b, c = s1 - s2, d1 - d2, 0.5 * (c1 - c2)
        roots = []
        if c == 0.0:
            if b != 0.0:
                roots.append(-a / b)
        elif b * b >= 4.0 * a * c:
            q = -0.5 * (b + math.copysign(math.sqrt(b * b - 4.0 * a * c), b))
            roots.append(q / c)
            if q != 0.0:
                roots.append(a / q)
        minima += [h for h in roots if (d1 + c1 * h) * (d2 + c2 * h) <= 0.0 and on_top(h, m1, m2)]
    return min((h for h in minima if math.isfinite(h)), key=abs, default=None)


def phase_aligned_distance(
    u1: np.ndarray, u2: np.ndarray, projector: np.ndarray | None = None
) -> float:
    """min over phi of f(phi) = ||P U1 P - e^{i phi} P U2 P|| in spectral norm.

    P is a diagonal 0/1 projector (project_buffer); the norm is taken on the
    kept indices directly.  When neither matrix couples the two parity
    blocks, f is the larger of the two block norms.

    The search starts at phi0 = arg tr(B^dag A) with A, B the projected
    arguments.  By the triangle inequality
    f(phi) >= |e^{i phi} - e^{i phi0}| ||B|| - f(phi0), so no phase farther
    than 2 arcsin(f(phi0) / ||B||) from phi0 beats f(phi0).  Only that arc
    is scanned, at spacing 2 pi / 96, by singular values alone.

    The refinement around the best scan point takes one full SVD per block
    per iterate, which gives each block's two largest singular values with
    their exact first and second derivatives in phi (_top_branches).  The
    step goes to the nearest local minimum of the largest of these
    branches' quadratic models (_model_step): a Newton step at a smooth
    minimum, the intersection of two branches at a kink, where the top
    singular values cross.  A bracket, narrowed by the sign of the active
    slope, guards every step: a step that would leave it, or that is longer
    than half the step before last, is replaced by bisection.  The
    iteration stops when the step is a few ulps of phi.  Every evaluation is
    an upper bound on the minimum, so the smallest one is returned.  The
    distance is insensitive to a global phase of either argument.

    When f(phi0) >= ||B|| the whole circle is scanned, and f may have
    several local minima there.  f is ||B||-Lipschitz in phi, so the
    refinement is then repeated around every other scan point p with
    f(p) - ||B|| pi / 96 below the best value found, each run stopping once
    its bracket cannot hold a lower value.
    """
    a = np.asarray(u1, dtype=complex)
    b = np.asarray(u2, dtype=complex)
    index = np.arange(a.shape[0])
    if projector is not None:
        index = _kept_indices(projector)
        a = a[np.ix_(index, index)]
        b = b[np.ix_(index, index)]
    blocks = _parity_blocks(index)
    if _couples_blocks(a, blocks) or _couples_blocks(b, blocks):
        pairs = [(a, b)]
    else:
        pairs = [(a[np.ix_(blk, blk)], b[np.ix_(blk, blk)]) for blk in blocks]

    def top(m: np.ndarray) -> float:
        return float(np.linalg.svd(m, compute_uv=False)[0])

    def dist(phi: float) -> float:
        z = np.exp(1j * phi)
        return max(top(x - z * y) for x, y in pairs)

    def refine(j: int, best_f: float, lipschitz: float | None = None) -> float:
        """Guarded refinement from scan point j within one step; the smallest value seen.

        Given a Lipschitz constant of f, it stops as soon as the bracket
        cannot hold a value below best_f.
        """
        phi = float(scan[j])
        lo = max(phi - _PHASE_STEP, phi0 - half)
        hi = min(phi + _PHASE_STEP, phi0 + half)
        steps = [hi - lo, hi - lo]  # lengths of the steps taken, newest last
        while best_f > 0.0:
            tol = _ULPS * math.ulp(max(abs(phi), 1.0))
            if hi - lo <= tol:
                break
            z = np.exp(1j * phi)
            branches = [br for x, y in pairs for br in _top_branches(x, y, z)]
            f, slope, _ = max(branches)
            best_f = min(best_f, f)
            if lipschitz is not None and f - lipschitz * (hi - lo) >= best_f:
                break
            if slope > 0.0:
                hi = phi
            elif slope < 0.0:
                lo = phi
            else:
                break
            h = _model_step(branches)
            if h is not None and abs(h) <= tol:
                break
            # halving the step at least every other iterate bounds the count
            if h is None or not lo < phi + h < hi or abs(h) > 0.5 * steps[-2]:
                h = 0.5 * (lo + hi) - phi
            steps.append(abs(h))
            phi += h
        return best_f

    phi0 = float(np.angle(np.vdot(b, a)))
    f0 = dist(phi0)
    norm_b = max(top(y) for _, y in pairs)
    half = 2.0 * math.asin(f0 / norm_b) if f0 < norm_b else math.pi
    k = int(half // _PHASE_STEP)
    scan = phi0 + _PHASE_STEP * np.arange(-k, k + 1)
    values = [f0 if j == k else dist(p) for j, p in enumerate(scan)]
    order = np.argsort(values, kind="stable")
    best_f = refine(int(order[0]), min(values))
    if f0 >= norm_b:
        # every phi lies within half a step of a scan point
        for j in order[1:]:
            if values[j] - 0.5 * _PHASE_STEP * norm_b >= best_f:
                break
            best_f = refine(int(j), best_f, norm_b)
    return best_f


def propagator_bundle(params: ModelParams, spec: HilbertSpec, t: float) -> PropagatorBundle:
    """The four propagators at one parameter point."""
    return PropagatorBundle(
        u_exact=u_exact(params, spec, t),
        u_rwa=u_rwa(params, spec, t),
        u_magnus1=u_magnus(params, spec, t, order=1),
        u_magnus2=u_magnus(params, spec, t, order=2),
        params=params,
        t=t,
    )


def error_report(
    params: ModelParams,
    spec: HilbertSpec,
    t: float,
    buffer: int = DEFAULT_BUFFER,
) -> tuple[PropagatorBundle, dict[str, float]]:
    """All four propagators plus their pairwise phase-aligned distances.

    Distances are computed on the buffered subspace (Fock 0 .. N-1-buffer).
    The table also carries the convergence margin g t / pi.
    """
    proj = project_buffer(spec, buffer)
    bundle = propagator_bundle(params, spec, t)
    ue, ur, m1, m2 = bundle.u_exact, bundle.u_rwa, bundle.u_magnus1, bundle.u_magnus2
    table = {
        "err_rwa": phase_aligned_distance(ue, ur, proj),
        "err_magnus1": phase_aligned_distance(ue, m1, proj),
        "err_magnus2": phase_aligned_distance(ue, m2, proj),
        "rwa_vs_magnus1": phase_aligned_distance(ur, m1, proj),
        "rwa_vs_magnus2": phase_aligned_distance(ur, m2, proj),
        "magnus1_vs_magnus2": phase_aligned_distance(m1, m2, proj),
        "convergence_margin": convergence_margin(params, t),
    }
    return bundle, table
