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
zero.  propagator_bundle builds Omega_1 once for both Magnus propagators and
exponentiates the blocks of all four generators in stacked eigh calls, each
stack capped at _STACK_BYTES; u_exact, u_rwa and u_magnus are the one-request
case of the same path (_propagators), and give the same matrices bit for bit.

Error comparisons are phase-aligned spectral-norm distances restricted to a
buffered Fock subspace, because ladder truncation corrupts the top levels and
two propagators may differ by a physically irrelevant global phase.  The
minimum over the phase is located by a coarse scan of a certified arc and
refined with exact first and second derivatives of the top singular values:
Newton steps at a smooth minimum, branch intersections at a kink where the
two largest singular values cross (Lewis & Overton, Acta Numerica 5 (1996)
149), each guarded by a bisection bracket, so distances are exact to
rounding.  phase_aligned_distances runs the searches of many pairs in
lockstep, so each stage is one stacked LAPACK call over all pairs and parity
blocks, with every stacked operand capped at _STACK_BYTES; numpy's stacked
svd, eigh and matmul are bit-identical per matrix to single calls, so a
distance does not depend on the pairs it is computed with.
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
# Coarse-scan spacing of the phase search, and the step, in ulps of phi, at
# which its refinement stops.
_PHASE_STEP = 2.0 * math.pi / 96
_ULPS = 4
# Cap on each stacked operand of the distances' LAPACK calls: small blocks
# stack fully, blocks above it go one per call.
_STACK_BYTES = 128 * 1024
# The distances error_report tabulates: name -> the two PropagatorBundle
# fields compared.  The first three are the errors against u_exact.
_DISTANCE_PAIRS = {
    "err_rwa": ("u_exact", "u_rwa"),
    "err_magnus1": ("u_exact", "u_magnus1"),
    "err_magnus2": ("u_exact", "u_magnus2"),
    "rwa_vs_magnus1": ("u_rwa", "u_magnus1"),
    "rwa_vs_magnus2": ("u_rwa", "u_magnus2"),
    "magnus1_vs_magnus2": ("u_magnus1", "u_magnus2"),
}


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


def _chunks(n: int, item_bytes: int) -> list[slice]:
    """Slices of n stacked items, each stack at most _STACK_BYTES (one item at least)."""
    per = max(1, _STACK_BYTES // item_bytes)
    return [slice(lo, lo + per) for lo in range(0, n, per)]


def _expm_blockwise(gens: list[np.ndarray]) -> list[np.ndarray]:
    """exp(G) of each parity-conserving anti-Hermitian G, all on the same 2 fock_dim states.

    Each generator is sliced into its two parity blocks of fock_dim states,
    and all the blocks go through stacked expm_antiherm calls, each stack
    capped at _STACK_BYTES.
    """
    if not gens:
        return []
    blocks = _parity_blocks(np.arange(gens[0].shape[0]))
    if any(_couples_blocks(gen, blocks) for gen in gens):
        raise ValueError("generator couples the two excitation-parity blocks")
    us = [np.zeros(gen.shape, dtype=complex) for gen in gens]
    pieces = [(gen, u, np.ix_(blk, blk)) for gen, u in zip(gens, us) for blk in blocks]
    for c in _chunks(len(pieces), np.dtype(complex).itemsize * blocks[0].size ** 2):
        exps = expm_antiherm(np.stack([gen[sub] for gen, _, sub in pieces[c]]))
        for (_, u, sub), block in zip(pieces[c], exps):
            u[sub] = block
    return us


def _propagators(spec: HilbertSpec, requests: list[tuple[ModelParams, float, str]]) -> list[np.ndarray]:
    """The propagator of each (params, t, kind) request, kind "exact", "rwa", "magnus1" or "magnus2".

    Every exponential goes through one _expm_blockwise call.  The frame
    kinds are D(t) exp(-i t (H(0) + F)) with H = h_rotated ("exact") or
    h_rwa ("rwa"), exactly the identity at t = 0 or g = 0.  Omega_1 is
    built once per (params, t) and shared by both Magnus orders.
    """
    out: list[np.ndarray | None] = [None] * len(requests)
    gens: list[np.ndarray] = []
    frames: list[tuple[int, np.ndarray | None]] = []  # (request, D(t) diagonal or None) per generator
    omega1: dict[tuple[ModelParams, float], np.ndarray] = {}
    for i, (params, t, kind) in enumerate(requests):
        if t < 0:
            raise ValueError(f"t must be non-negative, got {t}")
        if kind in ("exact", "rwa"):
            if t == 0.0 or params.g == 0.0:
                out[i] = np.eye(spec.dim, dtype=complex)
                continue
            phases = frame_phases(params, spec)
            h0 = h_rwa(params, spec, 0.0) if kind == "rwa" else h_rotated(params, spec, 0.0)
            gens.append(-1j * t * (h0 + np.diag(phases)))
            frames.append((i, np.exp(1j * t * phases)))
        else:
            if (params, t) not in omega1:
                omega1[params, t] = omega1_closed(params, spec, t).omega1
            gen = omega1[params, t]
            gens.append(gen + omega2_closed(params, spec, t).omega2 if kind == "magnus2" else gen)
            frames.append((i, None))
    for (i, frame), u in zip(frames, _expm_blockwise(gens)):
        out[i] = u if frame is None else frame[:, None] * u
    return out


def u_exact(params: ModelParams, spec: HilbertSpec, t: float) -> np.ndarray:
    """Exact propagator of h_rotated over [0, t]."""
    return _propagators(spec, [(params, t, "exact")])[0]


def u_rwa(params: ModelParams, spec: HilbertSpec, t: float) -> np.ndarray:
    """Exact propagator of the RWA Hamiltonian h_rwa over [0, t]."""
    return _propagators(spec, [(params, t, "rwa")])[0]


def u_magnus(params: ModelParams, spec: HilbertSpec, t: float, order: int) -> np.ndarray:
    """exp(Omega_1) or exp(Omega_1 + Omega_2); a single exponential of the sum."""
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    return _propagators(spec, [(params, t, f"magnus{order}")])[0]


def _kept_indices(projector: np.ndarray) -> np.ndarray:
    diag = np.diag(projector)
    if not (np.array_equal(projector, np.diag(diag)) and np.all((diag == 0) | (diag == 1))):
        raise ValueError("projector must be diagonal with 0/1 entries, as project_buffer returns")
    return np.flatnonzero(diag)


def _parity_block_norms(mats: list[np.ndarray], projector: np.ndarray | None = None) -> list[float]:
    """Spectral norm of each matrix on the kept indices of projector, taken per parity block.

    One stacked values-only SVD covers every block.  A matrix that couples
    the two blocks gets inf, so a check built on these norms fails on it.
    """
    index = np.arange(np.shape(mats[0])[0]) if projector is None else _kept_indices(projector)
    blocks = [index[blk] for blk in _parity_blocks(index)]
    stack, couples = [], []
    for m in map(np.asarray, mats):
        couples.append(_couples_blocks(m, blocks))
        stack += [m[np.ix_(blk, blk)] for blk in blocks]
    tops = np.linalg.svd(np.stack(stack), compute_uv=False)[:, 0].reshape(len(mats), -1)
    return [math.inf if c else float(top) for c, top in zip(couples, tops.max(axis=1))]


def _top_branches(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> list[list[tuple[float, float, float]]]:
    """(sigma_k, sigma_k', sigma_k'') of the two largest singular values of each x_i - z_i y_i.

    x and y are stacks of square matrices and z a vector of unit phases.
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
    u, s, vh = np.linalg.svd(x - z[:, None, None] * y)
    dm = (-1j * z)[:, None, None] * y
    top = min(2, s.shape[-1])
    col = adjoint(u) @ (dm @ adjoint(vh[:, :top]))  # K_jk for the top k
    row = adjoint((adjoint(u[:, :, :top]) @ dm) @ adjoint(vh))  # conj(K_kj)
    kk = np.diagonal(col, axis1=1, axis2=2)
    curv = -kk.imag
    for num, den in (
        (np.abs(col + row) ** 2, s[:, None, :top] - s[:, :, None]),
        (np.abs(col - row) ** 2, s[:, None, :top] + s[:, :, None]),
    ):
        curv = curv + np.sum(np.divide(num, 2.0 * den, out=np.zeros(num.shape), where=den != 0), axis=1)
    return [list(zip(*cols)) for cols in zip(s[:, :top].tolist(), kk.real.tolist(), curv.tolist())]


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


def _phase_search(phi0: float, norm_b: float):
    """The phase search of one pair, as a generator driven by phase_aligned_distances.

    It yields (full, phases).  With full=False it is sent f(phi) per phase,
    the largest top singular value of the blocks of A - e^{i phi} B; with
    full=True, for its one phase, the top branches (_top_branches) of all
    blocks in one list.  It returns the distance.
    """
    (f0,) = yield False, [phi0]
    half = 2.0 * math.asin(f0 / norm_b) if f0 < norm_b else math.pi
    k = int(half // _PHASE_STEP)
    scan = phi0 + _PHASE_STEP * np.arange(-k, k + 1)
    values = yield False, np.delete(scan, k)
    values.insert(k, f0)

    def refine(j: int, best_f: float, lipschitz: float | None = None):
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
            branches = yield True, [phi]
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

    order = np.argsort(values, kind="stable")
    best_f = yield from refine(int(order[0]), min(values))
    if f0 >= norm_b:
        # every phi lies within half a step of a scan point
        for j in order[1:]:
            if values[j] - 0.5 * _PHASE_STEP * norm_b >= best_f:
                break
            best_f = yield from refine(int(j), best_f, norm_b)
    return best_f


def _stacked_svd(
    stacks: dict[int, np.ndarray], items: np.ndarray, phis: np.ndarray, full: bool
) -> np.ndarray | list:
    """Top singular value (full=False) or top branches (full=True) of x - e^{i phi} y, per item.

    items has one row (size, x slot, y slot) per item, the slots indexing
    stacks[size], and phis the item's phase.  Items of one size share
    stacked LAPACK calls, chunked by _chunks.
    """
    out = [None] * len(items) if full else np.empty(len(items))
    for size, stack in stacks.items():
        sel = np.flatnonzero(items[:, 0] == size)
        z = np.exp(1j * phis[sel])
        for c in _chunks(len(sel), stack[0].nbytes):
            x, y = stack[items[sel[c], 1]], stack[items[sel[c], 2]]
            if full:
                for i, r in zip(sel[c].tolist(), _top_branches(x, y, z[c])):
                    out[i] = r
            else:
                out[sel[c]] = np.linalg.svd(x - z[c, None, None] * y, compute_uv=False)[:, 0]
    return out


def phase_aligned_distances(
    pairs: list[tuple[np.ndarray, np.ndarray]], projector: np.ndarray | None = None
) -> list[float]:
    """min over phi of f(phi) = ||P U1 P - e^{i phi} P U2 P|| in spectral norm, per (U1, U2).

    P is a diagonal 0/1 projector (project_buffer); the norm is taken on the
    kept indices directly.  Each distinct matrix is sliced to them and split
    into its parity blocks once.  When neither matrix of a pair couples the
    two blocks, f is the larger of the two block norms; a pair that couples
    them is searched as one block.

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

    All pairs are searched in lockstep (_phase_search): ||B||, f(phi0), the
    scan, and each round of refinement are stacked LAPACK calls over every
    pair and block, each stack capped at
    _STACK_BYTES, so large blocks fall back to one matrix per call.  A
    pair's result does not depend on the other pairs: the stacked calls
    are bit-identical per matrix to single ones.
    """
    pairs = list(pairs)
    kept = None if projector is None else _kept_indices(projector)
    sliced: dict[int, tuple[np.ndarray, list[np.ndarray], bool]] = {}
    for u in {id(u): u for pair in pairs for u in pair}.values():
        m = np.asarray(u, dtype=complex)
        index = np.arange(m.shape[0]) if kept is None else kept
        if kept is not None:
            m = m[np.ix_(index, index)]
        blocks = _parity_blocks(index)
        sliced[id(u)] = (m, blocks, _couples_blocks(m, blocks))
    phi0 = [float(np.angle(np.vdot(sliced[id(b)][0], sliced[id(a)][0]))) for a, b in pairs]

    # every block the pairs compare, stacked by size: geometry[p] has one
    # row (size, x slot, y slot) per block of pair p
    members: dict[int, list[np.ndarray]] = {}
    slots: dict[tuple[int, int], tuple[int, int]] = {}

    def slot(u: np.ndarray, part: int) -> tuple[int, int]:
        """(size, position) of block `part` of u, or of all of u for part -1."""
        if (id(u), part) not in slots:
            m, blocks, _ = sliced[id(u)]
            block = m if part < 0 else m[np.ix_(blocks[part], blocks[part])]
            group = members.setdefault(block.shape[0], [])
            slots[id(u), part] = (block.shape[0], len(group))
            group.append(block)
        return slots[id(u), part]

    geometry = []
    for a, b in pairs:
        whole = sliced[id(a)][2] or sliced[id(b)][2]
        parts = [-1] if whole else range(len(sliced[id(a)][1]))
        geometry.append(np.array([(*slot(a, w), slot(b, w)[1]) for w in parts]))
    del sliced
    stacks = {size: np.stack(group) for size, group in members.items()}
    del members

    norms = {}
    for size, stack in stacks.items():
        ys = sorted({yi for geo in geometry for s, _, yi in geo.tolist() if s == size})
        for c in _chunks(len(ys), stack[0].nbytes):
            tops = np.linalg.svd(stack[ys[c]], compute_uv=False)[:, 0]
            norms.update(((size, yi), top) for yi, top in zip(ys[c], tops.tolist()))
    searches = [
        _phase_search(phi, max(norms[size, yi] for size, _, yi in geo.tolist()))
        for geo, phi in zip(geometry, phi0)
    ]
    distances: list[float] = [0.0] * len(pairs)
    pending = {p: next(search) for p, search in enumerate(searches)}
    while pending:
        # each round's items as columns: one row of `items` and one phase
        # per (pair, phase, block)
        replies: dict[int, list] = {}
        for full in (False, True):
            asks = [(p, np.asarray(phases, float)) for p, (kind, phases) in pending.items() if kind == full]
            if not asks:
                continue
            items = np.concatenate([np.tile(geometry[p], (len(phases), 1)) for p, phases in asks])
            phis = np.concatenate([np.repeat(phases, len(geometry[p])) for p, phases in asks])
            results = _stacked_svd(stacks, items, phis, full)
            start = 0
            for p, phases in asks:
                stop = start + len(phases) * len(geometry[p])
                if full:
                    replies[p] = [br for res in results[start:stop] for br in res]
                else:
                    per_block = results[start:stop].reshape(len(phases), len(geometry[p]))
                    replies[p] = per_block.max(axis=1).tolist()
                start = stop
        for p in list(pending):
            try:
                pending[p] = searches[p].send(replies[p])
            except StopIteration as stop:
                distances[p] = stop.value
                del pending[p]
    return distances


def phase_aligned_distance(
    u1: np.ndarray, u2: np.ndarray, projector: np.ndarray | None = None
) -> float:
    """min over phi of ||P U1 P - e^{i phi} P U2 P||: phase_aligned_distances([(u1, u2)], projector)[0].

    phase_aligned_distances describes the search; a batch of one pair gives
    the same value, bit for bit, as the same pair in any larger batch.
    """
    return phase_aligned_distances([(u1, u2)], projector)[0]


def propagator_bundle(params: ModelParams, spec: HilbertSpec, t: float) -> PropagatorBundle:
    """The four propagators at one parameter point, from one stacked exponential."""
    kinds = ("exact", "rwa", "magnus1", "magnus2")
    ue, ur, m1, m2 = _propagators(spec, [(params, t, kind) for kind in kinds])
    return PropagatorBundle(u_exact=ue, u_rwa=ur, u_magnus1=m1, u_magnus2=m2, params=params, t=t)


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
    pairs = [(getattr(bundle, a), getattr(bundle, b)) for a, b in _DISTANCE_PAIRS.values()]
    table = dict(zip(_DISTANCE_PAIRS, phase_aligned_distances(pairs, proj)))
    table["convergence_margin"] = convergence_margin(params, t)
    return bundle, table
