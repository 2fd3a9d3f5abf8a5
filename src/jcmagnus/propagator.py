"""Propagators for the rotated Jaynes-Cummings dynamics and their comparison.

Every propagator comes from _bundles, four for each (params, t) point:

  * u_exact    -- the exact propagator of h_rotated,
  * u_rwa      -- the exact propagator of h_rwa,
  * u_magnus1  -- exp(Omega_1),
  * u_magnus2  -- exp(Omega_1 + Omega_2), one exponential of the sum.

Both rotated Hamiltonians obey H(t) = D(t) H(0) D(t)^dag with the diagonal
frame phase D(t) = exp(i t F), F = diag(frame_phases), so their propagator is
U(t) = D(t) exp(-i t (H(0) + F)): one Hermitian eigendecomposition, exact to
rounding for every t and unitary by construction.

Block layout.  Every operator here conserves the parity of n + [atom
excited], so a propagator is held as its two parity blocks (hilbert's
_block_layout), an (2, N, N) array, and the buffered window of
project_buffer (Fock levels 0 .. N-1-buffer) is the leading (N - buffer)
corner of each block.  _bundles builds the four generators of every point
as blocks (jc_model and magnus build them so), exponentiates the blocks of
all points in stacked eigh calls, and lets D(t) scale the rows of the two
frame kinds.  Full 2N x 2N matrices are assembled (hilbert's _assemble) only
where read: the PropagatorBundle fields, which u_exact, u_rwa, u_magnus
return.  _gather splits full matrices that callers pass in, and says
whether they couple the blocks.

Errors are phase-aligned spectral-norm distances on the buffered window
(phase_aligned_distances), because ladder truncation corrupts the top levels
and two propagators may differ by a global phase.  One search, _search(x, y),
takes the blocks of many pairs, shape (pairs, blocks, n, n), and runs their
distances in lockstep, one stacked full-SVD call per round, whose top
singular pairs drive the refinements and then compress a level-set
certificate of the global minimum.  block_distances slices x and y from the
block corners; phase_aligned_distances gathers full-matrix windows into them.

Threads.  From block side 20 (search) and 40 (exponentials) on, with two
usable CPUs, _in_halves runs half of the pairs or eigh calls on a second
thread, since LAPACK releases the interpreter lock; values stay bit-identical.
Fock-12 rows and verify, bound by that lock, stay on the calling thread.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .hilbert import HilbertSpec, _assemble, _block_layout, _hermitian_norm, adjoint, expm_antiherm
from .jc_model import ModelParams, _hamiltonian_blocks, frame_phases
from .magnus import _omega1_blocks, _omega2_blocks, convergence_margin

__all__ = [
    "DEFAULT_BUFFER",
    "PropagatorBundle",
    "block_distances",
    "error_report",
    "phase_aligned_distance",
    "phase_aligned_distances",
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
# The step, in ulps of phi, at which the phase search's refinement stops.
_ULPS = 4
# Cap on each stacked operand of the distances' LAPACK calls: small blocks
# stack fully, blocks above it go one per call.
_STACK_BYTES = 128 * 1024
# The pencil's shift, off the unit circle, and how near to it an eigenvalue
# counts as a crossing of the level (_arcs_below).
_SHIFT, _UNIT = 2.0 + 1.0j, 1e-6
# Block sides from which the distance search and the exponentials split their
# work across two threads (_in_halves); below them a thread slows them down.
_SEARCH_THREAD_SIDE, _EXPM_THREAD_SIDE = 20, 40
# The distances error_report tabulates: name -> the positions in
# PropagatorBundle.blocks of the two compared (the first three are the errors
# against u_exact).
_DISTANCE_PAIRS = {
    "err_rwa": (0, 1),
    "err_magnus1": (0, 2),
    "err_magnus2": (0, 3),
    "rwa_vs_magnus1": (1, 2),
    "rwa_vs_magnus2": (1, 3),
    "magnus1_vs_magnus2": (2, 3),
}


def _gather(mats, levels: int) -> tuple[np.ndarray, np.ndarray]:
    """(blocks, couples) of a stack of square matrices on Fock levels 0 .. levels-1.

    blocks[k], shape (2, levels, levels), holds the parity blocks of the
    leading (2 levels) x (2 levels) window of matrix k; couples[k] is whether
    that window has a nonzero entry between the blocks.
    """
    _, gather, cross = _block_layout(levels)
    window = np.asarray(mats)[:, : 2 * levels, : 2 * levels].reshape(len(mats), -1)
    return np.take(window, gather, axis=1), np.any(window[:, cross], axis=1)


@dataclass(frozen=True)
class PropagatorBundle:
    """The four propagators at one parameter point, as propagator_bundle builds them.

    blocks holds u_exact, u_rwa, u_magnus1, u_magnus2 as parity blocks, shape
    (4, 2, N, N); |0, g> is position 0 of block 0.  The u_* attributes are
    the full matrices, assembled when first read.
    """

    blocks: np.ndarray

    @cached_property
    def _matrices(self) -> np.ndarray:
        """The four full matrices, assembled from the blocks."""
        return _assemble(self.blocks)

    u_exact = property(lambda self: self._matrices[0])
    u_rwa = property(lambda self: self._matrices[1])
    u_magnus1 = property(lambda self: self._matrices[2])
    u_magnus2 = property(lambda self: self._matrices[3])


def unitarity_defect(u: np.ndarray) -> float:
    """Spectral norm of U^dag U - I; of a stack of matrices, the largest, from one stacked eigvalsh."""
    u = np.asarray(u)
    return _hermitian_norm(adjoint(u) @ u - np.eye(u.shape[-1]))


def _check_buffer(fock_dim: int, buffer: int) -> None:
    if not 0 <= buffer <= fock_dim - 2:
        raise ValueError(f"buffer must lie in 0..{fock_dim - 2} for fock_dim={fock_dim}, got {buffer}")


def project_buffer(spec: HilbertSpec, buffer: int) -> np.ndarray:
    """Orthogonal projector onto Fock levels 0 .. N-1-buffer (both atom states)."""
    _check_buffer(spec.fock_dim, buffer)
    keep = np.arange(spec.fock_dim) <= spec.fock_dim - 1 - buffer
    return np.diag(np.repeat(keep, 2).astype(complex))


def _in_halves(job, count: int, side: int, crossover: int) -> list:
    """job(0, count), or job(0, half) + job(half, count) with the second half on a worker thread.

    job(lo, hi) returns a list.  Halves run only with two usable CPUs, two
    items and a block side of at least crossover.  The worker is joined before
    this returns, and an exception it raised is raised here.
    """
    # os.sched_getaffinity, which counts the CPUs this process may use, is not on every platform
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    if count < 2 or side < crossover or cpus < 2:
        return job(0, count)
    half, second = (count + 1) // 2, []

    def run() -> None:
        try:
            second.append(job(half, count))
        except BaseException as exc:  # raised again in the caller, after the join
            second.append(exc)

    worker = threading.Thread(target=run)
    worker.start()
    try:
        first = job(0, half)
    finally:
        worker.join()
    if isinstance(second[0], BaseException):
        raise second[0]
    return first + second[0]


def _expm_blockwise(blocks: np.ndarray) -> np.ndarray:
    """exp(G) of each parity block of a stack of anti-Hermitian generators, shape (k, 2, N, N), in that shape.

    All blocks go in one stacked expm_antiherm call when they fit in _STACK_BYTES,
    else one generator's two blocks per call (all eight measured slower).  At
    N >= _EXPM_THREAD_SIDE _in_halves runs half of the calls on a second
    thread; stacked eigh is bit-identical per matrix, so the split changes no bit.
    """
    stack = blocks.reshape(-1, *blocks.shape[2:])
    per = len(stack) if stack.nbytes <= _STACK_BYTES else 2
    starts = range(0, len(stack), per)
    calls = lambda lo, hi: [expm_antiherm(stack[k : k + per]) for k in starts[lo:hi]]  # noqa: E731
    return np.concatenate(_in_halves(calls, len(starts), stack.shape[-1], _EXPM_THREAD_SIDE)).reshape(blocks.shape)


def u_exact(params: ModelParams, spec: HilbertSpec, t: float) -> np.ndarray:
    """Exact propagator of h_rotated over [0, t]: the u_exact of propagator_bundle."""
    return propagator_bundle(params, spec, t).u_exact


def u_rwa(params: ModelParams, spec: HilbertSpec, t: float) -> np.ndarray:
    """Exact propagator of the RWA Hamiltonian h_rwa over [0, t]: the u_rwa of propagator_bundle."""
    return propagator_bundle(params, spec, t).u_rwa


def u_magnus(params: ModelParams, spec: HilbertSpec, t: float, order: int) -> np.ndarray:
    """exp(Omega_1) or exp(Omega_1 + Omega_2), one exponential of the sum: u_magnus<order> of propagator_bundle."""
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    bundle = propagator_bundle(params, spec, t)
    return bundle.u_magnus1 if order == 1 else bundle.u_magnus2


def _windowed(pair: tuple[np.ndarray, np.ndarray], projector: np.ndarray | None) -> np.ndarray:
    """The two matrices of pair on the leading window that projector keeps, stacked; malformed input raises."""
    x, y = (np.asarray(u, dtype=complex) for u in pair)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("distances need finite matrices, got a nan or inf entry")
    if not all(m.ndim == 2 and m.shape[0] == m.shape[1] for m in (x, y)):
        raise ValueError(f"distances need square matrices, got shapes {x.shape} and {y.shape}")
    if x.shape != y.shape:
        raise ValueError(f"the matrices of a pair differ in size: {x.shape} and {y.shape}")
    keep = len(x)
    if projector is not None:
        if np.shape(projector) != x.shape:
            raise ValueError(f"projector has shape {np.shape(projector)}, the matrices {x.shape}")
        keep = int(np.count_nonzero(np.diag(projector)))
        if not np.array_equal(projector, np.diag(np.arange(len(x)) < keep)):
            raise ValueError("projector must keep a leading window (0/1 diagonal), as project_buffer returns")
    if keep == 0:
        raise ValueError("the window is empty: the projector keeps no index")
    return np.stack([x[:keep, :keep], y[:keep, :keep]])


def _top_pairs(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> tuple[list, np.ndarray, np.ndarray]:
    """(models, u, v): the top singular pair model and vectors of each x_i - z_i y_i, from one full SVD each.

    x and y are stacks of square matrices and z a vector of unit phases.  The
    model of block i is (sigma_1, sigma_1', r_1, sigma_2, sigma_2', r_2,
    |kappa|^2) for its two largest singular values, in phi with z = e^{i phi}:
    M' = -i z y and M'' = i M'.  With K = U^dag M' V, sigma_k' = Re K_kk and

        sigma_k'' = Re(i K_kk) + sum_{j != k} |K_jk + conj(K_kj)|^2 / (2 (sigma_k - sigma_j))
                               + sum_j |K_jk - conj(K_kj)|^2 / (2 (sigma_k + sigma_j)),

    the second-order perturbation of the eigenvalue sigma_k of the Hermitian
    dilation [[0, M], [M^dag, 0]].  kappa = (K_21 + conj(K_12)) / 2 couples
    the pair, and r_k is sigma_k'' without the pair's own term, +-2 |kappa|^2 /
    (sigma_1 - sigma_2), which _model_step keeps exact.  Terms with a zero
    denominator (exact ties and pairs of zero singular values) are dropped:
    their numerators vanish along the analytic branches.  A 1 x 1 block
    repeats its one branch, with kappa = 0.  u[i] and v[i] hold the left and
    right singular vectors of the two (a 1 x 1 block: one) largest as columns.
    """
    u, s, vh = np.linalg.svd(x - z[:, None, None] * y)
    uh, w = adjoint(u), y @ adjoint(vh)
    top = min(2, s.shape[-1])
    dz = (-1j * z)[:, None, None]
    col = dz * (uh @ w[:, :, :top])  # K_jk for the top k
    row = adjoint(dz * (uh[:, :top] @ w))  # conj(K_kj)
    kk = np.diagonal(col, axis1=1, axis2=2)
    gaps = s[:, None, :top] - s[:, :, None]
    if top == 2:
        gaps[:, [1, 0], [0, 1]] = 0.0  # the pair's own term, which kappa carries
    curv = -kk.imag
    for num, den in ((np.abs(col + row) ** 2, gaps), (np.abs(col - row) ** 2, s[:, None, :top] + s[:, :, None])):
        curv = curv + np.sum(np.divide(num, 2.0 * den, out=np.zeros(num.shape), where=den != 0), axis=1)
    kappa = 0.5 * (col[:, 1, 0] + row[:, 1, 0]) if top == 2 else np.zeros(len(s))
    cols = (s[:, 0], kk.real[:, 0], curv[:, 0], s[:, top - 1], kk.real[:, top - 1], curv[:, top - 1], np.abs(kappa) ** 2)
    return list(zip(*(c.tolist() for c in cols))), u[:, :, :top], adjoint(vh[:, :top])


def _pair_model(s1: float, d1: float, r1: float, s2: float, d2: float, r2: float, k2: float):
    """(at, h): at(h) = (m, m', m'') of one block's pair model m, and h its smooth minimum or None.

    m(h) is the upper eigenvalue of [[q_1(h), kappa h], [conj(kappa) h, q_2(h)]],
    q_i = s_i + d_i h + r_i h^2 / 2, k2 = |kappa|^2 > 0.  With r = 0 it is
    a + b h + sqrt((D0 + D1 h)^2 + k2 h^2), whose minimum is a root of a
    quadratic equation; h starts there (at 0 if there is none) and takes up
    to seven Newton steps on m.  h is None unless m stays convex and h ends
    within an ulp of m's minimum value, with a gap above 1e3 eps s_1 there.
    """

    def at(h: float) -> tuple[float, float, float]:
        q1, q2 = s1 + (d1 + 0.5 * r1 * h) * h, s2 + (d2 + 0.5 * r2 * h) * h
        half, slope = 0.5 * (q1 - q2), 0.5 * (d1 - d2 + (r1 - r2) * h)
        rad = math.sqrt(half * half + k2 * h * h)
        if rad == 0.0:  # an exact crossing: no derivatives
            return 0.5 * (q1 + q2), math.nan, math.nan
        g = (half * slope + k2 * h) / rad
        curv = 0.5 * (r1 + r2) + (slope * slope + 0.5 * half * (r1 - r2) + k2 - g * g) / rad
        return 0.5 * (q1 + q2) + rad, 0.5 * (d1 + d2 + (r1 + r2) * h) + g, curv

    b, d0, dd, a = 0.5 * (d1 + d2), 0.5 * (s1 - s2), 0.5 * (d1 - d2), 0.25 * (d1 - d2) * (d1 - d2) + k2
    h = -d0 * (dd + b * math.sqrt(k2 / (a - b * b))) / a if a > b * b else 0.0
    for _ in range(8):
        m, slope, curv = at(h)
        if not curv > 0.0:
            return at, None
        if slope * slope <= 2.0 * curv * math.ulp(m):
            gap = math.hypot(s1 - s2 + (d1 - d2 + 0.5 * (r1 - r2) * h) * h, 2.0 * math.sqrt(k2) * h)
            return at, (h if gap > 1e3 * np.finfo(float).eps * s1 else None)
        h -= slope / curv
    return at, None


def _model_step(blocks: list[tuple[float, ...]]) -> tuple[float | None, float | None]:
    """(h, value): the step to the local minimum nearest 0 of the largest block model, and the model there if smooth.

    A block (sigma_1, sigma_1', r_1, sigma_2, sigma_2', r_2, |kappa|^2) of
    _top_pairs is modelled by one 2 x 2 model of its top
    singular pair (_pair_model).  It matches sigma_1 to second order at h = 0
    and also holds across an avoided crossing of the pair, where the Taylor
    model of sigma_1 fails (Lewis & Overton, Acta Numerica 5 (1996) 149).
    Without a smooth minimum (kappa = 0, a tie, or a gap of rounding size
    there: an exact crossing) the block is its two branches sigma_k +
    sigma_k' h + sigma_k'' h^2 / 2 instead.  A local minimum of the
    largest model is a minimum of a model on top there (smooth; Newton for a
    branch), or a crossing of two models on top there with slopes of
    opposite sign (a kink): a root of their Taylor quadratics, polished by up
    to three Newton steps where a pair model takes part.  Candidates go
    minima first, then crossings by pair of models; of equally near ones the
    first wins.  value is None at a kink, and both are None without a minimum.
    """
    models = []  # (at: h -> (value, slope, curvature), Taylor quadratic at 0, smooth minimum, is a pair model)
    for s1, d1, r1, s2, d2, r2, k2 in blocks:
        pull = 2.0 * k2 / (s1 - s2) if s1 > s2 else 0.0  # the pair's own term of sigma_k''
        at, h = _pair_model(s1, d1, r1, s2, d2, r2, k2) if pull > 0.0 else (None, None)
        if h is not None:
            models.append((at, (s1, d1, r1 + pull), h, True))
            continue
        for s, d, c in ((s1, d1, r1 + pull), (s2, d2, r2 - pull)):
            branch = lambda h, s=s, d=d, c=c: (s + d * h + 0.5 * c * h * h, d + c * h, c)  # noqa: E731
            models.append((branch, (s, d, c), -d / c if c > 0.0 else None, False))

    def on_top(value: float, h: float, *own) -> bool:
        return all(value >= at(h)[0] for at, *_ in models if at not in own)

    def nearer(h: float) -> bool:
        return math.isfinite(h) and (best is None or abs(h) < abs(best))

    best = low = None
    for at, _, h, _ in models:
        if h is not None and nearer(h) and on_top(value := at(h)[0], h, at):
            best, low = h, value
    for (at1, (s1, d1, c1), _, pair1), (at2, (s2, d2, c2), _, pair2) in itertools.combinations(models, 2):
        a, b, c = s1 - s2, d1 - d2, 0.5 * (c1 - c2)
        if c == 0.0:
            roots: tuple[float, ...] = (-a / b,) if b != 0.0 else ()
        elif b * b >= 4.0 * a * c:
            q = -0.5 * (b + math.copysign(math.sqrt(b * b - 4.0 * a * c), b))
            roots = (q / c, a / q) if q != 0.0 else (q / c,)
        else:
            roots = ()
        for h in filter(nearer, roots):
            for _ in range(3 if pair1 or pair2 else 0):
                (v1, e1, _), (v2, e2, _) = at1(h), at2(h)
                h = h - (v1 - v2) / (e1 - e2) if e1 != e2 else h
            (v1, e1, _), (v2, e2, _) = at1(h), at2(h)
            if nearer(h) and e1 * e2 <= 0.0 and on_top(max(v1, v2), h, at1, at2):
                best, low = h, None
    return best, low


def _arcs_below(a: np.ndarray, b: np.ndarray, u: np.ndarray, v: np.ndarray, levels: np.ndarray) -> list[list]:
    """Per pair p, the arcs (lo, hi) between crossings of levels[p] on which its compressed minorant is below it.

    a and b, shape (pairs, blocks, n, n), hold each pair's blocks, and u and
    v, shape (pairs, blocks, n, m), singular vectors of them.  With U, V
    orthonormal bases of those, f_c(phi) = max_b sigma_1(C_b - e^{i phi}
    D_b) <= f(phi), C = U^dag a V and D = U^dag b V.  A singular value of
    C - z D, |z| = 1, equals the level exactly where z is an eigenvalue of
    L - z R, L = [[-level I, C], [-D^dag, 0]], R = [[0, D], [-C^dag, level
    I]], found as nu = 1 / (z - _SHIFT), the eigenvalues of (L - _SHIFT R)^-1
    R, which a singular C or D leaves finite.  Those within _UNIT of the unit
    circle cut it into arcs, on each of which f_c keeps the side of the
    level that it takes at the arc's midpoint.
    """
    if u.shape[-1] > min(2, u.shape[-2]):  # one evaluation's singular vectors are orthonormal already
        u, v = np.linalg.qr(np.stack([u, v]))[0]
    c, d = adjoint(u) @ a @ v, adjoint(u) @ b @ v
    k, eye = c.shape[-1], levels[:, None, None, None] * np.eye(c.shape[-1])
    lhs, rhs = np.zeros((2, *c.shape[:2], 2 * k, 2 * k), dtype=complex)
    lhs[..., :k, :k], lhs[..., :k, k:], lhs[..., k:, :k] = -eye, c, -adjoint(d)
    rhs[..., :k, k:], rhs[..., k:, :k], rhs[..., k:, k:] = d, -adjoint(c), eye
    nu = np.linalg.eigvals(np.linalg.solve(lhs - _SHIFT * rhs, rhs)).reshape(len(c), -1)
    w = 1.0 + _SHIFT * nu  # z = w / nu
    unit = np.abs(np.abs(w) - np.abs(nu)) <= _UNIT * np.abs(nu)
    count = np.count_nonzero(unit, axis=1)[:, None]
    lo = np.sort(np.where(unit, np.angle(w * nu.conj()), 4.0 * math.pi), axis=1)  # each pair's cuts first
    j = np.arange(lo.shape[1])
    hi = np.where(j < count - 1, np.roll(lo, -1, axis=1), lo[:, :1] + 2.0 * math.pi)
    p, j = np.nonzero((j < count) & (hi - lo > _ULPS * np.spacing(np.maximum(np.abs(hi), 1.0))))
    lo, hi = lo[p, j], hi[p, j]
    m = c[p] - np.exp(0.5j * (lo + hi))[:, None, None, None] * d[p]  # the blocks at each midpoint
    # a column at least as long as the level puts sigma_1 above it; the SVD decides the rest
    below = np.max(np.sum(m.real**2 + m.imag**2, axis=-2), axis=(-2, -1)) < levels[p] ** 2
    if np.any(below):
        below[below] = np.linalg.svd(m[below], compute_uv=False)[..., 0].max(axis=-1) < levels[p][below]
    p, lo, hi = p[below], lo[below], hi[below]
    return [list(zip(lo[p == i].tolist(), hi[p == i].tolist())) for i in range(len(c))]


def _phase_search(phi0: float, margin: float):
    """The phase search of one pair from phi0, as a generator driven by _lockstep; returns the distance.

    It yields a list of phases and is sent per phase the models and top
    singular vectors of all blocks (_top_pairs), or yields (u, v, level) and
    is sent the arcs of _arcs_below.  margin bounds the rounding of any value.
    """
    seen = []  # (value, u, v) of the best evaluation of the first refinement and of every later one

    def evaluate(phases: list[float]):
        replies = yield phases
        seen.extend((max(models)[0], u, v) for models, u, v in replies)
        return [models for models, _, _ in replies]

    def refine(phi: float, models: list, lo: float, hi: float):
        """Refine from phi in [lo, hi]: the smallest value seen."""
        steps, best = [hi - lo, hi - lo], math.inf  # lengths of the steps taken, newest last
        while True:
            f, slope = max(models)[:2]
            best = min(best, f)
            tol = _ULPS * math.ulp(max(abs(phi), 1.0))
            if best == 0.0 or hi - lo <= tol or slope == 0.0:
                return best
            lo, hi = (lo, phi) if slope > 0.0 else (phi, hi)
            h, low = _model_step(models)
            if h is not None and (abs(h) <= tol or low is not None and 0.0 <= f - low <= _ULPS * math.ulp(f)):
                return best
            # halving the step at least every other iterate bounds the count
            if h is None or not lo < phi + h < hi or abs(h) > 0.5 * steps[-2]:
                h = 0.5 * (lo + hi) - phi
            steps.append(abs(h))
            phi += h
            [models] = yield from evaluate([phi])

    [models] = yield from evaluate([phi0])
    best = yield from refine(phi0, models, phi0 - math.pi, phi0 + math.pi)
    seen[:] = [min(seen, key=lambda e: e[0])]
    while best > margin:
        u, v = (np.concatenate([e[i] for e in seen], axis=-1) for i in (1, 2))
        arcs = yield u, v, best - margin
        if not arcs:
            break
        replies = yield from evaluate([0.5 * (lo + hi) for lo, hi in arcs])
        value, j = min((max(models)[0], j) for j, models in enumerate(replies))
        if value < best:
            best = yield from refine(0.5 * sum(arcs[j]), replies[j], *arcs[j])
    return best


def _search(x: np.ndarray, y: np.ndarray) -> list[float]:
    """The phase-aligned distance of each pair (x[p], y[p]): its _phase_search, run in lockstep.

    x and y, shape (pairs, blocks, n, n), hold the blocks of each pair's two
    matrices, A and B; the distance is min over phi of the largest block's
    ||A_b - e^{i phi} B_b||.  A pair starts at phi0 = arg sum_b tr(B_b^dag A_b),
    and its margin is 4 eps max_b (||A_b||_F + ||B_b||_F).  A round evaluates
    every phase asked for in stacked calls over all blocks, _STACK_BYTES each.
    At n >= _SEARCH_THREAD_SIDE _in_halves searches two contiguous groups of
    pairs on two threads; a pair's distance does not depend on its batch, bit
    for bit, so the split changes no value.
    """
    return _in_halves(lambda lo, hi: _lockstep(x[lo:hi], y[lo:hi]), len(x), x.shape[-1], _SEARCH_THREAD_SIDE)


def _lockstep(x: np.ndarray, y: np.ndarray) -> list[float]:
    """_search on one thread: a round evaluates every phase asked for, and certifies per number of vectors."""
    nb, n = x.shape[1], x.shape[-1]
    norms = np.linalg.norm(x, axis=(2, 3)) + np.linalg.norm(y, axis=(2, 3))
    margins = 4.0 * np.finfo(float).eps * norms.max(axis=1)
    searches = [_phase_search(float(np.angle(np.vdot(b, a))), m) for a, b, m in zip(x, y, margins.tolist())]
    per = max(1, _STACK_BYTES // (16 * n * n))  # blocks per call, one at least
    distances: list[float] = [0.0] * len(x)
    pending = {p: next(search) for p, search in enumerate(searches)}
    while pending:
        asks = [(p, phi) for p, ask in pending.items() if isinstance(ask, list) for phi in ask]
        xs, ys = (m[[p for p, _ in asks]].reshape(-1, n, n) for m in (x, y))
        z = np.repeat(np.exp(1j * np.array([phi for _, phi in asks])), nb)
        out = [_top_pairs(*(m[k : k + per] for m in (xs, ys, z))) for k in range(0, len(xs), per)]
        models, us, vs = ([item for o in out for item in o[i]] for i in range(3))
        # an ask's blocks are consecutive: its models and vectors in one list each
        replies = ((models[k : k + nb], us[k : k + nb], vs[k : k + nb]) for k in range(0, len(us), nb))
        certify: dict[int, list[int]] = {}  # number of singular vectors -> the pairs asking for arcs
        for p, ask in pending.items():
            if isinstance(ask, tuple):
                certify.setdefault(ask[0].shape[-1], []).append(p)
        answers = {}
        for group in certify.values():
            u, v, level = (np.array([pending[p][i] for p in group]) for i in range(3))
            answers.update(zip(group, _arcs_below(x[group], y[group], u, v, level)))
        for p, ask in list(pending.items()):
            try:
                pending[p] = searches[p].send(answers[p] if p in answers else [next(replies) for _ in ask])
            except StopIteration as stop:
                distances[p] = stop.value
                del pending[p]
    return distances


def block_distances(blocks: np.ndarray, pairs: list[tuple[int, int]], buffer: int = DEFAULT_BUFFER) -> list[float]:
    """phase_aligned_distances of (blocks[i], blocks[j]) per index pair, with project_buffer(spec, buffer).

    blocks stacks propagators as parity blocks, shape (n, 2, N, N), as in
    PropagatorBundle.blocks; the window is the leading (N - buffer) corner of
    each block, and the corners of every pair go to _search as they are, so
    the distances are those of the assembled matrices bit for bit.
    """
    fock_dim = blocks.shape[2]
    _check_buffer(fock_dim, buffer)
    corners = blocks[:, :, : fock_dim - buffer, : fock_dim - buffer]
    return _search(corners[[i for i, _ in pairs]], corners[[j for _, j in pairs]])


def phase_aligned_distances(
    pairs: list[tuple[np.ndarray, np.ndarray]], projector: np.ndarray | None = None
) -> list[float]:
    """min over phi of f(phi) = ||P U1 P - e^{i phi} P U2 P|| in spectral norm, per (U1, U2).

    P is a diagonal 0/1 projector that keeps a leading window, as
    project_buffer does; the norm is taken on the window directly.  When the
    window has an even length and neither matrix of a pair couples the two
    parity blocks on it, f is the larger of the two block norms (_gather);
    otherwise the pair is searched as one block.  A non-square, mismatched or
    non-finite pair, a projector of another size and an empty window raise
    ValueError.

    Each evaluation of f is one full SVD per block: the two largest singular
    values with their first derivatives, their coupling and second-order
    terms in phi, and their singular vectors (_top_pairs).  The first is at
    phi0 = arg tr(B^dag A), A and B the projected arguments, summed over
    their blocks.  A refinement steps to the nearest local minimum of the
    largest block model (_model_step): one 2 x 2 model of each block's top
    singular pair, whose upper eigenvalue holds across an avoided crossing
    of the pair (Lewis & Overton, Acta Numerica 5 (1996) 149), with two
    branches and their crossing where the pair crosses exactly.  Its
    bracket, first the whole circle around phi0, narrows with the sign of
    the slope; a step leaving it or longer than half the step before last is
    replaced by bisection.  It stops at a step of a few ulps of phi or where
    a smooth model minimum predicts a decrease of at most 4 ulps of f, and
    keeps the smallest value seen, so distances are exact to rounding.

    A level-set certificate then proves the global minimum (_arcs_below;
    Byers, SIAM J. Sci. Stat. Comput. 9 (1988) 875; Boyd & Balakrishnan,
    Syst. Control Lett. 15 (1990) 1).  The top singular vectors at the best
    phase, and at every later evaluation, compress A and B to a minorant of
    f, whose crossings of the best value less a rounding margin are the unit
    eigenvalues of a small pencil.  Each arc where it is below gets one
    evaluation at its midpoint, where it becomes exact; a refinement runs
    from the lowest, within its arc, if it beats the best value, and the
    certificate runs again until no arc is left.

    Pairs are grouped by block shape, and each group is searched in lockstep
    by one _search call, each round one stacked full-SVD call over every pair
    and block of the group (capped at _STACK_BYTES) and one certificate per
    number of vectors; numpy's stacked calls are bit-identical per matrix to
    single ones, so a pair's result does not depend on the other pairs.
    """
    groups: dict[tuple[int, ...], list[tuple[int, np.ndarray]]] = {}  # block shape -> (position, blocks)
    for p, pair in enumerate(pairs):
        ms = _windowed(pair, projector)
        parts = ms[:, None]  # one block: the whole window
        if len(ms[0]) % 2 == 0:
            blocks, couples = _gather(ms, len(ms[0]) // 2)
            if not np.any(couples):
                parts = blocks
        groups.setdefault(parts.shape, []).append((p, parts))
    found: dict[int, float] = {}
    for members in groups.values():
        positions, parts = zip(*members)
        found.update(zip(positions, _search(*np.stack(parts, axis=1))))
    return [found[p] for p in range(len(pairs))]


def phase_aligned_distance(
    u1: np.ndarray, u2: np.ndarray, projector: np.ndarray | None = None
) -> float:
    """min over phi of ||P U1 P - e^{i phi} P U2 P||: phase_aligned_distances([(u1, u2)], projector)[0].

    phase_aligned_distances describes the search; a batch of one pair gives
    the same value, bit for bit, as the same pair in any larger batch.
    """
    return phase_aligned_distances([(u1, u2)], projector)[0]


def propagator_bundle(params: ModelParams, spec: HilbertSpec, t: float) -> PropagatorBundle:
    """The four propagators at one parameter point: the one-point case of _bundles, which builds every propagator."""
    return _bundles(spec, [(params, t)])[0]


def _bundles(spec: HilbertSpec, points: list[tuple[ModelParams, float]]) -> list[PropagatorBundle]:
    """The bundle of each (params, t) point, all blocks from one _expm_blockwise call.

    The frame kinds are D(t) exp(-i t (H(0) + F)) with H = h_rotated or h_rwa,
    the identity at t = 0 or g = 0; D(t) scales row n of block b by its entry
    at _block_layout's index[b, n].  A negative or non-finite t raises ValueError.
    """
    n, gens, frames = spec.fock_dim, [], []
    index, diagonal = _block_layout(n)[0], np.arange(n)
    for params, t in points:
        omega1 = _omega1_blocks(params, spec, t)  # rejects a negative or non-finite t
        framed, phases = t != 0.0 and params.g != 0.0, frame_phases(params, spec)[index]
        for counter in (True, False) if framed else ():
            h = _hamiltonian_blocks(params, spec, 0.0, counter)
            h[:, diagonal, diagonal] = phases  # H(0) + F: the coupling has no diagonal
            gens.append(-1j * t * h)
        gens += [omega1, omega1 + _omega2_blocks(params, spec, t)]
        frames.append(np.exp(1j * t * phases) if framed else None)
    exps, k, bundles = _expm_blockwise(np.stack(gens)), 0, []
    for frame in frames:
        if frame is None:
            blocks, k = np.concatenate([np.broadcast_to(np.eye(n), (2, 2, n, n)), exps[k : k + 2]]), k + 2
        else:
            blocks, k = exps[k : k + 4], k + 4
            blocks[:2] = frame[:, :, None] * blocks[:2]  # a new product: scaling in place rounds differently
        bundles.append(PropagatorBundle(blocks))
    return bundles


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
    bundle = propagator_bundle(params, spec, t)
    table = dict(zip(_DISTANCE_PAIRS, block_distances(bundle.blocks, list(_DISTANCE_PAIRS.values()), buffer)))
    table["convergence_margin"] = convergence_margin(params, t)
    return bundle, table
