"""Write reference.json: the benchmark's grid points and their expected outputs.

    python3 benchmarks/make_reference.py

Run it against the code whose outputs are the reference (the repository's
seed code).  For every candidate grid point it first asks the stepped oracle,
through the public ``error_report``, whether every stepper run the operation
makes converges within ``STEP_LIMIT`` steps; only those points are written,
together with the values the operation returned.  The other points are listed under
``excluded`` with the reason.
"""

from __future__ import annotations

import json
import platform
import sys

from run import HERE, environment, load_program
import workloads as wl


def stepper_ok(jc, omega0: float, gs, t: float, fock_dim: int) -> str | None:
    spec = jc.HilbertSpec(fock_dim)
    for g in gs:
        try:
            bundle, _ = jc.error_report(jc.ModelParams(1.0, omega0, g), spec, t)
        except RuntimeError:
            return f"stepper raises at g={g}"
        if max(bundle.steps_exact, bundle.steps_rwa) > wl.STEP_LIMIT:
            return f"stepper needs more than {wl.STEP_LIMIT} steps at g={g}"
    return None


def reference_point(jc, workload: str, omega0: float, g: float, t: float, fock_dim: int, excluded: list):
    gs = (g,) + (wl.VERIFY_SCALING_G if workload == "verify" else ())
    op = {"omega0": omega0, "g": g, "t": t, "fock_dim": fock_dim, "expect": None}
    reason = stepper_ok(jc, omega0, gs, t, fock_dim)
    if reason is None:
        _, result, out, _ = wl.call(jc.cli, workload, op)
        reason, values = wl.check(workload, op, result, out)
    if reason is not None:
        excluded.append([omega0, g, t, fock_dim, reason])
        print(f"{workload} {omega0} {g} {t} {fock_dim}: excluded, {reason}", file=sys.stderr)
        return None
    if workload == "verify":
        op["expect"] = {name: status for name, (status, _) in values.items()}
    else:
        keys = wl.SWEEP_FIELDS if workload == "sweep_t" else wl.REPORT_KEYS
        op["expect"] = {name: values[name] for name in keys}
    return op


def main() -> int:
    jc = load_program()
    grids = {
        "sweep_t": [(w0, g, t, wl.SWEEP_FOCK) for w0 in wl.OMEGA0 for g in wl.G for t in wl.SWEEP_T],
        "verify": [(w0, g, t, wl.VERIFY_FOCK) for w0 in wl.OMEGA0 for g in wl.G for t in wl.VERIFY_T],
        "report_fock": [
            (w0, g, t, n) for n in wl.REPORT_FOCK for w0 in wl.OMEGA0 for g in wl.G for t in wl.REPORT_T
        ],
    }
    reference: dict = {"generated_with": {**environment(), "jcmagnus": jc.__version__, "platform": platform.platform()}}
    excluded: dict = {}
    for workload, grid in grids.items():
        excluded[workload] = []
        points = [reference_point(jc, workload, *p, excluded[workload]) for p in grid]
        reference[workload] = [p for p in points if p is not None]
    # the seed's outcome on each defect point, for the record
    reference["defect_seed_outcome"] = {}
    for workload in wl.DEFECT_POINTS:
        outcomes = reference["defect_seed_outcome"][workload] = []
        for op in wl.defect_ops(workload):
            _, result, out, _ = wl.call(jc.cli, workload, op)
            reason, _ = wl.check(workload, op, result, out)
            outcomes.append([op["omega0"], op["g"], op["t"], op["fock_dim"], reason or "ok"])
    reference["excluded"] = excluded
    with open(HERE / "reference.json", "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
