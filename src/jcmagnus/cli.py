"""Command-line front end: one-shot verification, single-point reports, sweeps.

Subcommands:

  verify  -- run every oracle and invariant check, one PASS/FAIL/SKIP line per
             check, exit 0 iff nothing failed
  report  -- human-readable summary at a single parameter point
  sweep   -- CSV over grids of omega0, g and/or t (RFC-4180, 17 significant
             digits, deterministic row order)

Configuration is a flat key=value file; every key can be overridden by the
CLI flag of the same name.  The field frequency omega sets the unit scale
(omega = 1 recommended); physical cavity couplings of 1e6-1e7 rad/s sit at
g/omega ~ 1e-9 against optical frequencies, so the defaults use exaggerated
couplings to make the beyond-RWA signatures visible at desk scale.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import math
import os
import sys
import tempfile
from dataclasses import dataclass, fields, replace

import numpy as np

from .hilbert import HilbertSpec, adjoint, spectral_norm
from .jc_model import ModelParams, _bch_residuals, _rotation_chain, h_rotated
from .magnus import (
    _omega2_from_integrals,
    commutator_table,
    convergence_margin,
    integrals_closed,
    integrals_quadrature,
    omega1_closed,
    omega1_quadrature,
    omega2_closed,
    shift_rates,
    zeta_resonance_limit,
)
from .observables import SqueezingReport, _bs_phase, gaussian_squeezing, squeezing_report
from .propagator import (
    _DISTANCE_PAIRS,
    _bundles,
    _gather,
    block_distances,
    project_buffer,
    propagator_bundle,
    unitarity_defect,
)

__all__ = [
    "RunConfig",
    "SWEEP_FIELDS",
    "SweepRow",
    "build_config",
    "cmd_report",
    "cmd_sweep",
    "cmd_verify",
    "compute_row",
    "load_config_file",
    "main",
]

_BCH_SEED = 20260809


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters shared by all subcommands."""

    omega: float = 1.0
    omega0: float = 0.8
    g: float = 0.05
    t: float = 1.0
    t_grid: tuple[float, ...] | None = None
    omega0_grid: tuple[float, ...] | None = None
    g_grid: tuple[float, ...] | None = None
    fock_dim: int = 12
    buffer: int = 2
    quad_steps: int = 1024
    output_path: str = "sweep.csv"

    def validate(self) -> None:
        # the library constructors name the offending field in their errors
        ModelParams(self.omega, self.omega0, self.g)
        if not (np.isfinite(self.t) and self.t >= 0):
            raise ValueError(f"t must be non-negative and finite, got {self.t}")
        project_buffer(HilbertSpec(self.fock_dim), self.buffer)
        if self.quad_steps < 64 or self.quad_steps % 2:
            raise ValueError(f"quad_steps must be even and >= 64, got {self.quad_steps}")
        for name, grid, check in (
            ("t_grid", self.t_grid, lambda v: np.isfinite(v) and v >= 0),
            ("omega0_grid", self.omega0_grid, lambda v: np.isfinite(v) and v > 0),
            ("g_grid", self.g_grid, lambda v: np.isfinite(v) and v >= 0),
        ):
            if grid is not None:
                if len(grid) == 0:
                    raise ValueError(f"{name} must not be empty")
                for v in grid:
                    if not check(v):
                        raise ValueError(f"{name} contains an invalid value {v}")


@dataclass(frozen=True)
class SweepRow:
    omega: float
    omega0: float
    g: float
    t: float
    fock_dim: int
    err_rwa: float
    err_magnus1: float
    err_magnus2: float
    zeta_re: float
    zeta_im: float
    r_pred: float
    var_min: float
    var_max: float
    theta_min: float
    bs_predicted: float
    bs_measured: float
    convergence_margin: float


SWEEP_FIELDS = tuple(f.name for f in fields(SweepRow))


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def _evaluate(
    cfg: RunConfig, omega0: float, g: float, t: float, distances: tuple[str, ...]
) -> tuple[SweepRow, dict[str, float], SqueezingReport]:
    """The row, the named distances of error_report's table and the squeezing readout at one point.

    Each object is computed once: one stacked exponential for the four
    propagators, one block_distances call on their parity blocks, and the
    exact Gaussian squeezing readout (no Fock space).
    """
    params = ModelParams(cfg.omega, omega0, g)
    spec = HilbertSpec(cfg.fock_dim)
    blocks = propagator_bundle(params, spec, t).blocks
    pairs = [_DISTANCE_PAIRS[name] for name in distances]
    table = dict(zip(distances, block_distances(blocks, pairs, cfg.buffer)))
    zeta = integrals_closed(params, t).zeta
    sq = gaussian_squeezing(params, t, atom="e")
    measured, predicted = _bs_phase(blocks, params, t)
    margin = convergence_margin(params, t)
    # the series converges while t ||h_rotated(0)|| < pi; beyond that the
    # order of the two errors says nothing, so only a row inside it warns
    if table["err_magnus2"] > table["err_magnus1"]:
        premise = t * spectral_norm(h_rotated(params, spec, 0.0)) / math.pi
        if premise < 1.0:
            print(
                f"warning: err_magnus2 > err_magnus1 at omega0={omega0} g={g} t={t} "
                f"(t ||h_rotated(0)|| / pi = {premise:.3g})",
                file=sys.stderr,
            )
    row = SweepRow(
        omega=cfg.omega,
        omega0=omega0,
        g=g,
        t=t,
        fock_dim=cfg.fock_dim,
        err_rwa=table["err_rwa"],
        err_magnus1=table["err_magnus1"],
        err_magnus2=table["err_magnus2"],
        zeta_re=zeta.real,
        zeta_im=zeta.imag,
        r_pred=sq.r_pred,
        var_min=sq.var_min,
        var_max=sq.var_max,
        theta_min=sq.theta_min,
        bs_predicted=predicted,
        bs_measured=measured,
        convergence_margin=margin,
    )
    return row, table, sq


def compute_row(cfg: RunConfig, omega0: float, g: float, t: float) -> SweepRow:
    """One sweep row; the report command prints exactly these values."""
    return _evaluate(cfg, omega0, g, t, ("err_rwa", "err_magnus1", "err_magnus2"))[0]


# ---------------------------------------------------------------------------
# verify


def _fit_log2_slope(xs, ys) -> float:
    lx = np.log2(np.asarray(xs, dtype=float))
    ly = np.log2(np.asarray(ys, dtype=float))
    return float(np.polyfit(lx, ly, 1)[0])


def _block_norms(mats: list[np.ndarray], levels: int) -> np.ndarray:
    """Spectral norm of each matrix on Fock levels 0 .. levels-1, the larger of its two parity blocks'.

    One stacked values-only SVD covers every block.  A matrix that couples
    the two blocks gets inf, so a check built on these norms fails on it.
    """
    blocks, couples = _gather(mats, levels)
    return np.where(couples, math.inf, np.linalg.svd(blocks, compute_uv=False)[..., 0].max(axis=1))


def cmd_verify(cfg: RunConfig) -> int:
    """Run the oracle and invariant suite; 0 iff every check passes."""
    cfg.validate()
    params = ModelParams(cfg.omega, cfg.omega0, cfg.g)
    spec = HilbertSpec(cfg.fock_dim)
    margin = convergence_margin(params, cfg.t)
    in_regime = margin < 1.0
    lines: list[tuple[str, str, float]] = []

    def record(name: str, ok: bool, residual: float) -> None:
        lines.append((name, "PASS" if ok else "FAIL", residual))

    def skip(name: str) -> None:
        lines.append((name, "SKIP", margin))

    # anti-Hermiticity of both generators; norms per parity block, so a
    # generator that couples the blocks fails
    gens = [
        om
        for t_probe in ((cfg.t, 0.5 * cfg.t) if cfg.t > 0 else (0.0,))
        for om in (omega1_closed(params, spec, t_probe), omega2_closed(params, spec, t_probe))
    ]
    norms = _block_norms(gens, cfg.fock_dim)
    defects = _block_norms([om + adjoint(om) for om in gens], cfg.fock_dim)
    resid = max(math.inf if math.isinf(n) else d / max(1.0, n) for n, d in zip(norms, defects))
    record("ANTIHERMITICITY", resid <= 1e-12, resid)

    # frame-rotation ladder identities
    rng = np.random.default_rng(_BCH_SEED)
    draws = [(float(rng.uniform(0.5, 3.0)), float(rng.uniform(0.0, 6.0))) for _ in range(2)]
    points = [(params, cfg.t)] + [(ModelParams(omega, cfg.omega0, cfg.g), tp) for omega, tp in draws]
    resid = max(_bch_residuals(HilbertSpec(min(cfg.fock_dim, 16)), points))
    record("BCH_RESIDUAL", resid <= 1e-12, resid)

    # rotated Hamiltonian vs the numerically rotated full Hamiltonian, relative to ||h_full||
    href, *resids = _rotation_chain(params, spec, np.linspace(0.0, cfg.t if cfg.t > 0 else 1.0, 5).tolist())
    resid = max(r / href for r in resids)
    record("ROTATION_CHAIN", resid <= 1e-12, resid)

    # block commutators: direct vs closed form on the buffered subspace.  The
    # closed forms differ from the direct ones at the top Fock level by
    # construction (commutator_table), and the closed Omega_2 is built from
    # them, so every check that reads it keeps at least one guard level.
    buffer = max(cfg.buffer, 1)
    table = commutator_table(spec)
    diffs = [direct - closed for _, direct, closed in table]
    resid = float(_block_norms(diffs, cfg.fock_dim - buffer).max())
    record("COMMUTATOR_TABLE", resid <= 1e-12, resid)

    # Formula-level oracle checks run at a bounded time so the configured
    # panel count always resolves the oscillations; the identities are
    # pointwise in t, so any well-resolved probe time validates them.
    t_resolved = (4.0 * math.pi / params.sigma) * min(1.0, cfg.quad_steps / 1024.0)
    t_oracle = min(cfg.t, t_resolved) if cfg.t > 0 else min(1.0, t_resolved)

    # integral identities: conjugacy and pure imaginarity
    quad = integrals_quadrature(params, t_oracle, cfg.quad_steps)
    closed = integrals_closed(params, t_oracle)
    resid = max(
        abs(quad.i5 - np.conj(quad.i2)),
        abs(closed.i5 - np.conj(closed.i2)),
        abs(quad.i1.real),
        abs(quad.i6.real),
        abs(closed.i1.real),
        abs(closed.i6.real),
    )
    record("INTEGRAL_CONJUGACY", resid <= 1e-12, resid)

    resid = max(
        abs(getattr(closed, k) - getattr(quad, k)) for k in ("i1", "i2", "i5", "i6")
    )
    record("INTEGRALS_CLOSED_VS_QUADRATURE", resid <= 1e-8, resid)

    resid = spectral_norm(
        omega1_closed(params, spec, t_oracle) - omega1_quadrature(params, spec, t_oracle, cfg.quad_steps)
    )
    record("OMEGA1_CLOSED_VS_QUADRATURE", resid <= 1e-9, resid)

    # the quadrature Omega_2 from the integrals just checked and the table's direct commutators
    c1, c2, _, _, c5, c6 = (direct for _, direct, _ in table)
    diff = omega2_closed(params, spec, t_oracle) - _omega2_from_integrals(quad, (c1, c2, c5, c6))
    resid = float(_block_norms([diff], cfg.fock_dim - buffer)[0])
    record("OMEGA2_CLOSED_VS_QUADRATURE", resid <= 1e-8, resid)

    # removable singularity of zeta, relative to |limit| + omega t^2 |sin(omega t)| / sigma:
    # the second term, the first-order change of zeta - limit per unit relative detuning,
    # bounds the probe's own offset to 1e-6 where the limit vanishes (tan(omega t) = omega t)
    resid = 0.0
    ok = True
    for sign in (-1.0, 1.0):
        near = ModelParams(cfg.omega, cfg.omega * (1.0 + sign * 1e-6), cfg.g)
        z = integrals_closed(near, t_oracle).zeta
        limit = zeta_resonance_limit(near, t_oracle)
        ok = ok and np.isfinite(z.real) and np.isfinite(z.imag)
        scale = abs(limit) + cfg.omega * t_oracle**2 * abs(math.sin(cfg.omega * t_oracle)) / near.sigma
        if scale > 0:
            resid = max(resid, abs(z - limit) / scale)
    record("RESONANCE_LIMIT", ok and resid <= 1e-5, resid)

    # propagator unitarity and order-by-order error scaling, gated on the convergence
    # margin; one stacked exponential builds the bundles at g and at each probe coupling
    gs = (0.01, 0.02, 0.04)
    if in_regime:
        bundles = _bundles(spec, [(replace(params, g=gv), cfg.t) for gv in (cfg.g, *(gs if cfg.t > 0 else ()))])
        # U^dag U - I is block-diagonal, so its norm is the largest block's
        resid = unitarity_defect(bundles[0].blocks.reshape(-1, cfg.fock_dim, cfg.fock_dim))
        record("UNITARITY", resid <= 1e-10, resid)
    else:
        skip("UNITARITY")

    # order-by-order error scaling: the err_magnus1 and err_magnus2 pairs of each probe coupling's bundle
    if in_regime and cfg.t > 0:
        blocks = np.concatenate([bundle.blocks for bundle in bundles[1:]])
        orders = (_DISTANCE_PAIRS["err_magnus1"], _DISTANCE_PAIRS["err_magnus2"])
        pairs = [(k + i, k + j) for k in range(0, len(blocks), 4) for i, j in orders]
        errs = block_distances(blocks, pairs, buffer)
        err1, err2 = errs[0::2], errs[1::2]
        s1 = _fit_log2_slope(gs, err1)
        s2 = _fit_log2_slope(gs, err2)
        outside = max(0.0, abs(s1 - 2.0) - 0.2) + max(0.0, abs(s2 - 3.0) - 0.3)
        record("ERROR_SCALING", outside == 0.0, outside)
        worst = max(e2 - e1 for e1, e2 in zip(err1, err2))
        record("ERR2_LE_ERR1", worst <= 0.0, max(0.0, worst))
    else:
        skip("ERROR_SCALING")
        skip("ERR2_LE_ERR1")

    # squeezing readout against the exact Gaussian extrema of exp(Omega_2)
    if in_regime and cfg.t > 0:
        sq_spec = HilbertSpec(max(cfg.fock_dim, 24))
        worst_var = worst_theta = product_resid = 0.0
        for atom in ("e", "g"):
            rep = squeezing_report(params, sq_spec, cfg.t, atom)
            ref = gaussian_squeezing(params, cfg.t, atom)
            worst_var = max(worst_var, abs(rep.var_min - ref.var_min))
            dtheta = abs(rep.theta_min - ref.theta_min) % math.pi
            worst_theta = max(worst_theta, min(dtheta, math.pi - dtheta))
            product_resid = max(product_resid, max(0.0, 1.0 / 16.0 - rep.product_check))
        record("SQUEEZING_VARIANCE", worst_var <= 1e-8 and worst_theta <= 1e-3, worst_var)
        record("UNCERTAINTY_PRODUCT", product_resid <= 1e-12, product_resid)
    else:
        skip("SQUEEZING_VARIANCE")
        skip("UNCERTAINTY_PRODUCT")

    failures = [(n, r) for n, s, r in lines if s == "FAIL"]
    for name, status, residual in lines:
        print(f"{name} {status} {residual:.3e}")
    if failures:
        name, residual = failures[0]
        print(f"FIRST_FAILURE {name} {residual:.3e}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# report


def cmd_report(cfg: RunConfig) -> int:
    """Single-point human-readable report (plus the sweep-row values verbatim)."""
    cfg.validate()
    params = ModelParams(cfg.omega, cfg.omega0, cfg.g)
    row, table, sq = _evaluate(cfg, cfg.omega0, cfg.g, cfg.t, tuple(_DISTANCE_PAIRS))

    print("== parameter point ==")
    for name in ("omega", "omega0", "g", "t", "fock_dim"):
        print(f"{name} = {_fmt(getattr(row, name))}")
    print(f"buffer = {cfg.buffer}")

    print("== propagator errors (phase-aligned, buffered subspace) ==")
    for name in ("err_rwa", "err_magnus1", "err_magnus2"):
        print(f"{name} = {_fmt(getattr(row, name))}")
    for name in ("rwa_vs_magnus1", "rwa_vs_magnus2", "magnus1_vs_magnus2"):
        print(f"{name} = {_fmt(table[name])}")

    print("== squeezing coefficient ==")
    print(f"zeta_re = {_fmt(row.zeta_re)}")
    print(f"zeta_im = {_fmt(row.zeta_im)}")

    print("== squeezing scan: vacuum x |e> under exp(Omega_2) ==")
    for name in ("r_pred", "var_min", "var_max", "theta_min"):
        print(f"{name} = {_fmt(getattr(row, name))}")
    print(f"theta_pred = {_fmt(sq.theta_pred)}")
    print(f"product_check = {_fmt(sq.product_check)}")

    print("== shift rates (stark, bloch-siegert) ==")
    for n in (0, 1, 2):
        for atom in ("e", "g"):
            stark, bs = shift_rates(params, n, atom)
            print(f"rates n={n} atom={atom}: stark={_fmt(stark)} bs={_fmt(bs)}")

    print("== bloch-siegert probe on |0, g> ==")
    print(f"bs_predicted = {_fmt(row.bs_predicted)}")
    print(f"bs_measured = {_fmt(row.bs_measured)}")
    print(f"convergence_margin = {_fmt(row.convergence_margin)}")
    return 0


# ---------------------------------------------------------------------------
# sweep


def cmd_sweep(cfg: RunConfig) -> int:
    """Grid sweep to CSV; rows are deterministic and independently computed."""
    cfg.validate()
    if cfg.omega0_grid is None and cfg.g_grid is None and cfg.t_grid is None:
        raise ValueError("sweep requires at least one grid axis (omega0_grid, g_grid or t_grid)")
    omega0s = sorted(cfg.omega0_grid) if cfg.omega0_grid is not None else [cfg.omega0]
    gs = sorted(cfg.g_grid) if cfg.g_grid is not None else [cfg.g]
    ts = sorted(cfg.t_grid) if cfg.t_grid is not None else [cfg.t]
    total = len(omega0s) * len(gs) * len(ts)
    if total > 10**6:
        raise ValueError(f"sweep would produce {total} rows; the cap is 1e6")

    existed = os.path.exists(cfg.output_path)
    try:
        open(cfg.output_path, "a").close()  # fails on an unwritable path before any row, keeps its content
    except OSError as exc:
        raise ValueError(f"output_path {cfg.output_path!r} is not writable: {exc}") from exc
    # the rows go to a scratch file first, so a sweep that raises leaves output_path as it was
    with tempfile.TemporaryFile("w+", newline="", encoding="utf-8") as rows:
        try:
            writer = csv.writer(rows)
            writer.writerow(SWEEP_FIELDS)
            for w0, g, t in itertools.product(omega0s, gs, ts):
                row = compute_row(cfg, w0, g, t)
                writer.writerow([_fmt(getattr(row, name)) for name in SWEEP_FIELDS])
        except BaseException:
            if not existed:
                os.remove(cfg.output_path)
            raise
        rows.seek(0)
        with open(cfg.output_path, "w", newline="", encoding="utf-8") as handle:
            handle.writelines(rows)
    return 0


# ---------------------------------------------------------------------------
# configuration plumbing


def _parse_grid(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(",") if v.strip() != "")
    except ValueError as exc:
        raise ValueError(f"cannot parse grid value {text!r}: {exc}") from exc


def load_config_file(path: str) -> dict:
    """Flat key=value config of RunConfig fields; '#' starts a comment, blank lines ignored."""
    # a grid (default None) parses as a comma list, any other field as the type of its default
    parsers = {f.name: _parse_grid if f.default is None else type(f.default) for f in fields(RunConfig)}
    values: dict = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in parsers:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                values[key] = parsers[key](value)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: invalid value for {key!r}: {exc}") from None
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jcmagnus",
        description="Magnus-expansion analysis of the Jaynes-Cummings model beyond the RWA",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("verify", "run all oracle and invariant checks"),
        ("report", "single-point report"),
        ("sweep", "parameter sweep to CSV"),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", type=str, default=None, help="key=value config file")
        for f in fields(RunConfig):
            # grids stay strings here: build_config parses them into an error line, not an argparse exit
            flag = "--out" if f.name == "output_path" else "--" + f.name.replace("_", "-")
            p.add_argument(flag, dest=f.name, type=str if f.default is None else type(f.default), default=None)
    return parser


def build_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if args.config is not None:
        cfg = replace(cfg, **load_config_file(args.config))
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if f.default is None and isinstance(value, str):
            value = _parse_grid(value)
        if value is not None:
            cfg = replace(cfg, **{f.name: value})
    cfg.validate()
    return cfg


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = build_config(args)
        if args.command == "verify":
            return cmd_verify(cfg)
        if args.command == "report":
            return cmd_report(cfg)
        return cmd_sweep(cfg)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
