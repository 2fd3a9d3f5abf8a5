"""Workload grids, seeded operation rounds, operation runners and the correctness gate.

Every operation is one call of a public jcmagnus function: ``cli.compute_row``
(``sweep_t``), ``cli.cmd_verify`` (``verify``) or ``cli.cmd_report``
(``report_fock``).  Inputs are drawn from fixed candidate grids; the grid
points whose reference values were generated from the seed code (see
``make_reference.py``) are the only ones timed, so no timed operation is
expected to fail.  Points where the seed's stepped oracle raises are kept as a
separate, untimed defect probe and checked only against invariants.
"""

from __future__ import annotations

import contextlib
import io
import math
import re
from time import perf_counter

# omega = 1 throughout: 0.8 and 0.9 are red-detuned, 1.0 resonant, 1.1 blue-detuned
OMEGA0 = (0.8, 0.9, 1.0, 1.1)
G = (0.02, 0.05)
SWEEP_FOCK = 12
SWEEP_T = (0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 2.5, 3.0, 3.5, 4.0)
# Every round holds one sweep point per (omega0, g) cell and t stratum, so the
# stepper's t-dependent cost enters each round in the same proportions.
T_STRATA = ((0.0, 1.0), (1.0, 2.0), (2.0, math.inf))
VERIFY_FOCK = 12
VERIFY_T = (0.5, 1.0, 1.5, 2.0)
# A single t keeps the per-report cost, which grows with the stepper's step
# count, the same across seeds; a round's four fock-24 reports take about as
# long as its one fock-48 report on the seed.
REPORT_T = (1.0,)
REPORT_FOCK = (24, 48)
# cmd_verify runs the stepped oracle at its own g and at g = 0.01, 0.02, 0.04
VERIFY_SCALING_G = (0.01, 0.02, 0.04)
# A timed point must converge within this many midpoint steps in every stepper
# run of its operation.  The stepper's rounding floor grows with the step
# count and makes it raise beyond about 2**17 steps; at 2**16 the floor is
# about a quarter of the 1e-10 tolerance, so rounding differences between
# machines cannot push a timed point into the failure region.
STEP_LIMIT = 2**16

# Inside the convergence regime g t / pi < 1 but beyond the seed stepper's
# rounding floor; the last sweep point is the README's report example.  The
# verify points pass every other check when the propagator is exact.
DEFECT_POINTS = {
    "sweep_t": [
        (0.8, 0.05, 5.0), (0.9, 0.05, 10.0), (1.0, 0.05, 4.0), (1.1, 0.05, 20.0),
        (0.8, 0.02, 8.0), (1.0, 0.02, 10.0), (1.1, 0.02, 14.0), (0.9, 0.02, 20.0),
    ],
    "verify": [(0.9, 0.02, 5.0), (0.8, 0.02, 6.0)],
    "report_fock": [(0.9, 0.02, 20.0)],
}
DEFECT_FOCK = {"sweep_t": SWEEP_FOCK, "verify": VERIFY_FOCK, "report_fock": 24}

# Warm-up sizes: every HilbertSpec a workload's operations build
# (compute_row and cmd_report squeeze at max(fock_dim, 16); cmd_verify at 24).
WARM_FOCK = {"sweep_t": (12, 16), "verify": (12, 24), "report_fock": (24, 48)}

SWEEP_FIELDS = (
    "omega", "omega0", "g", "t", "fock_dim", "err_rwa", "err_magnus1", "err_magnus2",
    "zeta_re", "zeta_im", "r_pred", "var_min", "var_max", "theta_min",
    "bs_predicted", "bs_measured", "convergence_margin",
)
DISTANCES = (
    "err_rwa", "err_magnus1", "err_magnus2",
    "rwa_vs_magnus1", "rwa_vs_magnus2", "magnus1_vs_magnus2",
)
REPORT_KEYS = SWEEP_FIELDS + DISTANCES[3:] + ("theta_pred", "product_check") + tuple(
    f"rates.n{n}.{atom}.{kind}" for n in (0, 1, 2) for atom in ("e", "g") for kind in ("stark", "bs")
)

# (atol, rtol) per value, or ("angle", atol) for angles compared modulo pi.
# Distances and the measured phase come from the stepped oracle (tolerance
# 1e-10) and a phase search; an eigendecomposition propagator agrees with
# the stepper to <= 7e-11, which atol = 1e-9 accepts while a wrong generator
# moves these values by orders of magnitude more.  zeta and r_pred allow the
# 1e-8 relative change that a branch-free zeta formula makes near resonance.
# theta_min comes from a golden-section search to 1e-6 rad.
TOLERANCES = {
    **{name: (1e-9, 1e-8) for name in DISTANCES + ("bs_measured",)},
    **{name: (1e-15, 1e-7) for name in ("zeta_re", "zeta_im", "r_pred")},
    **{name: (1e-10, 0.0) for name in ("var_min", "var_max", "product_check")},
    "theta_min": ("angle", 1e-5),
    "theta_pred": ("angle", 1e-9),
}
DEFAULT_TOLERANCE = (1e-14, 1e-12)

_REPORT_LINE = re.compile(r"^(\w+) = (\S+)$")
_RATES_LINE = re.compile(r"^rates n=(\d+) atom=(\w): stark=(\S+) bs=(\S+)$")
_VERIFY_LINE = re.compile(r"^([A-Z0-9_]+) (PASS|FAIL|SKIP) (\S+)$")


def t_stratum(t: float) -> int:
    return next(i for i, (lo, hi) in enumerate(T_STRATA) if lo < t <= hi)


# ---------------------------------------------------------------------------
# rounds


def rounds(workload: str, reference: dict, rng):
    """Endless rounds of operations; the mix of cost classes is the same every round.

    sweep_t: one point per (omega0, g, t stratum) cell.  verify: one point per
    omega0.  report_fock: one fock-24 report per omega0 and one fock-48 report
    whose omega0 steps through the grid from a seeded start.  The seed picks
    the remaining coordinates and the order within each round.
    """
    cells: dict[tuple, list] = {}
    for p in reference[workload]:
        if workload == "sweep_t":
            key = (p["omega0"], p["g"], t_stratum(p["t"]))
        else:
            key = (p["fock_dim"], p["omega0"])
        cells.setdefault(key, []).append(p)
    start = rng.randrange(len(OMEGA0))
    k = 0
    while True:
        if workload == "report_fock":
            keys = [(24, w0) for w0 in OMEGA0] + [(48, OMEGA0[(start + k) % len(OMEGA0)])]
        else:
            keys = sorted(cells)
        ops = [rng.choice(cells[key]) for key in keys]
        rng.shuffle(ops)
        yield ops
        k += 1


def defect_ops(workload: str) -> list[dict]:
    return [
        {"omega0": w0, "g": g, "t": t, "fock_dim": DEFECT_FOCK[workload], "expect": None}
        for w0, g, t in DEFECT_POINTS[workload]
    ]


# ---------------------------------------------------------------------------
# running one operation


def call(cli, workload: str, op: dict):
    """Run one operation with stdout and stderr captured.

    Returns (elapsed seconds, return value or the raised exception, stdout, stderr).
    """
    cfg = cli.RunConfig(omega0=op["omega0"], g=op["g"], t=op["t"], fock_dim=op["fock_dim"])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            if workload == "sweep_t":
                result = cli.compute_row(cfg, op["omega0"], op["g"], op["t"])
            elif workload == "verify":
                result = cli.cmd_verify(cfg)
            else:
                result = cli.cmd_report(cfg)
        except Exception as exc:  # a raising operation is counted as failed, not fatal
            result = exc
        elapsed = perf_counter() - t0
    return elapsed, result, out.getvalue(), err.getvalue()


def values_of(workload: str, result, stdout: str) -> dict:
    """The checked outputs of one successful operation, by name."""
    if workload == "sweep_t":
        return {name: float(getattr(result, name)) for name in SWEEP_FIELDS}
    if workload == "verify":
        return {
            m.group(1): (m.group(2), float(m.group(3)))
            for m in map(_VERIFY_LINE.match, stdout.splitlines())
            if m
        }
    values = {}
    for line in stdout.splitlines():
        if m := _REPORT_LINE.match(line):
            try:
                values[m.group(1)] = float(m.group(2))
            except ValueError:
                pass  # non-numeric lines such as the zeta branch name
        elif m := _RATES_LINE.match(line):
            n, atom, stark, bs = m.groups()
            values[f"rates.n{n}.{atom}.stark"] = float(stark)
            values[f"rates.n{n}.{atom}.bs"] = float(bs)
    return values


def _close(name: str, got: float, want: float) -> bool:
    tol = TOLERANCES.get(name, DEFAULT_TOLERANCE)
    if tol[0] == "angle":
        d = abs(got - want) % math.pi
        return min(d, math.pi - d) <= tol[1]
    atol, rtol = tol
    return math.isfinite(want) and abs(got - want) <= atol + rtol * abs(want)


def _invariants(workload: str, values: dict) -> str | None:
    """Checks for points without a reference: finite fields, distances in [0, 2],
    and the uncertainty bound var_min * var_max >= 1/16.  (verify returning 0
    already means no check failed.)"""
    if workload == "verify":
        return None
    if not all(math.isfinite(values[name]) for name in SWEEP_FIELDS):
        return "non-finite value"
    for name in DISTANCES:
        if name in values and not 0.0 <= values[name] <= 2.0:
            return f"{name} = {values[name]} outside [0, 2]"
    if values["var_min"] * values["var_max"] < 1.0 / 16.0 - 1e-12:
        return "var_min * var_max < 1/16"
    return None


def check(workload: str, op: dict, result, stdout: str) -> tuple[str | None, dict]:
    """(reason the operation failed or None, checked values)."""
    if isinstance(result, Exception):
        return f"raised {type(result).__name__}: {result}", {}
    if workload != "sweep_t" and result != 0:
        return f"returned {result}", {}
    try:
        values = values_of(workload, result, stdout)
    except (AttributeError, TypeError, ValueError) as exc:
        return f"unreadable result: {exc}", {}
    expect = op["expect"]
    if expect is None:
        return _invariants(workload, values), values
    if workload == "verify":
        for name, status in expect.items():
            if name not in values or values[name][0] != status:
                return f"{name}: expected {status}, got {values.get(name, ('missing',))[0]}", values
        return None, values
    for name, want in expect.items():
        got = values.get(name)
        if got is None:
            return f"{name} missing", values
        if got != want and not _close(name, got, want):
            return f"{name} = {got!r}, reference {want!r}", values
    return None, values


def warnings_in(stderr: str) -> int:
    return sum(1 for line in stderr.splitlines() if line.startswith("warning:"))
