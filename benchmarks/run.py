"""jcmagnus benchmark: closed-loop, single-process runs of the public CLI functions.

    python3 benchmarks/run.py --workload sweep_t --seed 1 --seconds 25 --trace 0

One caller issues the next operation only after the previous one returned;
nothing runs concurrently, and BLAS is pinned to one thread in this process.
Operations are drawn from ``reference.json`` by ``--seed`` in rounds (see
``workloads.py``); every result is checked against its reference.

``--trace 0`` measures for ``--seconds`` and reports the end-to-end metrics.
``--trace 1`` runs a fixed list of rounds twice, untraced and then traced
(``tracer.py``), and reports per-layer metrics, the tracing overhead between
the two passes, accuracy figures, and the untimed defect probe.  The last line
of standard output is one JSON object; the lines before it repeat the metrics
by name and unit and record the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from tracer import LAYERS as PROGRAM_LAYERS, Tracer  # noqa: E402

WORKLOADS = ("sweep_t", "verify", "report_fock")
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 7
# Nominal seed time of one round; sizes the traced run from --seconds without
# measuring anything, so its operation list depends on the seed alone.
ROUND_SECONDS = {"sweep_t": 3.8, "verify": 5.2, "report_fock": 9.5}

# The share metrics are percentages of the traced wall time.
BUSY_SHARES = (
    "propagator.u_exact", "propagator.u_rwa", "propagator.phase_aligned_distance",
    "magnus.integrals_quadrature", "magnus.omega1_quadrature", "magnus.omega2_quadrature",
    "magnus.omega1_closed", "magnus.omega2_closed", "magnus.integrals_closed",
    "observables.squeezing_report", "observables.bs_phase_probe",
    "hilbert.expm_antiherm", "jc_model.h_rotated_stack",
)
SELF_SHARES = ("propagator.error_report", "cli.compute_row", "cli.cmd_report", "cli.cmd_verify")
CALL_COUNTS = (
    "propagator.phase_aligned_distance", "linalg.svd", "linalg.eigh", "hilbert.expm_antiherm",
    "magnus.omega1_closed", "magnus.omega2_closed", "magnus.integrals_closed",
)
LAYERS = PROGRAM_LAYERS + ("linalg",)
PROPAGATOR_RETURNS = ("propagator.error_report", "propagator.u_exact", "propagator.u_rwa", "propagator.u_magnus")


def load_program():
    """Import jcmagnus from this checkout's src/ with BLAS pinned; exit 2 if absent."""
    src = ROOT / "src"
    if not (src / "jcmagnus" / "__init__.py").is_file():
        print(f"error: no jcmagnus sources under {src}", file=sys.stderr)
        raise SystemExit(2)
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))
    import jcmagnus
    import jcmagnus.cli

    if Path(jcmagnus.__file__).resolve().parent != src / "jcmagnus":
        print(f"error: imported jcmagnus from {jcmagnus.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(2)
    return jcmagnus


def warm_up(jc, workload: str) -> None:
    """Fill the per-size caches and initialise BLAS/LAPACK for every size the workload uses."""
    params = jc.ModelParams(1.0, 0.9, 0.05)
    for n in wl.WARM_FOCK[workload]:
        spec = jc.HilbertSpec(n)
        jc.h_rotated(params, spec, 0.0)
        jc.unitarity_defect(jc.u_magnus(params, spec, 0.5, order=2))


def setup_probe(workload: str) -> None:
    t0 = perf_counter()
    warm_up(load_program(), workload)
    print(repr(perf_counter() - t0))


def setup_seconds(workload: str) -> float:
    """Median import-plus-warm-up time over fresh interpreters."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples)


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tally:
    """Outcomes of the operations of one pass."""

    def __init__(self, workload: str):
        self.workload = workload
        self.attempted = 0
        self.failures: list[str] = []
        self.latencies: list[float] = []
        self.elapsed = 0.0
        self.warnings = 0
        self.bs_abs_err = 0.0
        self.oracle_resid = 0.0

    def run(self, cli, op: dict) -> None:
        elapsed, result, out, err = wl.call(cli, self.workload, op)
        reason, values = wl.check(self.workload, op, result, out)
        self.attempted += 1
        self.elapsed += elapsed
        self.warnings += wl.warnings_in(err)
        if reason is not None:
            self.failures.append(f"{op['omega0']},{op['g']},{op['t']},fock={op['fock_dim']}: {reason}")
            return
        self.latencies.append(elapsed)
        if "bs_measured" in values:
            self.bs_abs_err = max(self.bs_abs_err, abs(values["bs_measured"] - values["bs_predicted"]))
        if self.workload == "verify":
            for name, (status, resid) in values.items():
                if "QUADRATURE" in name and status != "SKIP":
                    self.oracle_resid = max(self.oracle_resid, resid)


def measure(cli, workload: str, reference: dict, rng, seconds: float) -> tuple[dict, Tally, list[str]]:
    tally = Tally(workload)
    rounds = wl.rounds(workload, reference, rng)
    t_start = perf_counter()
    while perf_counter() - t_start < seconds:
        for op in next(rounds):
            tally.run(cli, op)
    wall = perf_counter() - t_start
    completed = tally.attempted - len(tally.failures)
    metrics = {
        "ops_per_s": (completed / wall, "1/s"),
        "op_s_p50": (statistics.median(tally.latencies or [wall]), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return metrics, tally, []


def measure_traced(jc, workload: str, reference: dict, rng, seconds: float) -> tuple[dict, Tally, list[str]]:
    cli = jc.cli
    rounds = wl.rounds(workload, reference, rng)
    n_rounds = max(1, round(seconds / 2.0 / ROUND_SECONDS[workload]))
    ops = [op for _ in range(n_rounds) for op in next(rounds)]

    # each operation runs untraced and then traced, so drift in the machine's
    # speed during the run cancels out of the overhead
    plain, traced = Tally(workload), Tally(workload)
    tracer = Tracer()
    tracer.capture.update(PROPAGATOR_RETURNS)
    for op in ops:
        plain.run(cli, op)
        tracer.install()
        try:
            traced.run(cli, op)
        finally:
            tracer.uninstall()

    steps_exact = steps_rwa = 0
    defect = 0.0
    for key, result in tracer.returns:
        if key == "propagator.error_report":
            bundle = result[0]
            steps_exact += getattr(bundle, "steps_exact", 0)
            steps_rwa += getattr(bundle, "steps_rwa", 0)
            unitaries = [getattr(bundle, f"u_{k}") for k in ("exact", "rwa", "magnus1", "magnus2")]
        else:
            unitaries = [result[0] if isinstance(result, tuple) else result]
            if key != "propagator.u_magnus" and isinstance(result, tuple):
                steps = int(result[1])
                if key == "propagator.u_exact":
                    steps_exact += steps
                else:
                    steps_rwa += steps
        defect = max(defect, *(jc.unitarity_defect(u) for u in unitaries))

    probe = Tally(workload)
    for op in wl.defect_ops(workload):
        probe.run(cli, op)

    n = len(ops)
    wall = traced.elapsed
    ms_per_op = 1e3 / n
    metrics = {f"{layer}.self_ms": (s * ms_per_op, "ms") for layer, s in
               ((layer, tracer.layer_self().get(layer, 0.0)) for layer in LAYERS)}
    metrics.update({
        "trace.wall_ms": (wall * ms_per_op, "ms"),
        "trace.untraced_ms": (plain.elapsed * ms_per_op, "ms"),
        "trace.overhead_pct": (100.0 * (wall - plain.elapsed) / plain.elapsed, "%"),
        "trace.self_sum_pct": (100.0 * sum(tracer.layer_self().values()) / wall, "%"),
    })
    for key in SELF_SHARES:
        metrics[f"{key}.self_pct"] = (100.0 * tracer.get(key)[2] / wall, "%")
    for key in BUSY_SHARES:
        metrics[f"{key}.busy_pct"] = (100.0 * tracer.get(key)[1] / wall, "%")
    for key in CALL_COUNTS:
        metrics[f"{key}.calls"] = (tracer.get(key)[0], "count")
    metrics.update({
        "propagator.steps_exact": (steps_exact, "count"),
        "propagator.steps_rwa": (steps_rwa, "count"),
        "cli.warnings": (traced.warnings, "count"),
        "defect.failed": (len(probe.failures), "count"),
        "propagator.unitarity_defect_max": (defect, "1"),
        "magnus.oracle_resid_max": (traced.oracle_resid, "1"),
        "observables.bs_abs_err": (traced.bs_abs_err, "rad"),
    })
    plain.attempted += traced.attempted
    plain.failures += traced.failures
    notes = [f"traced_ops={n} defect_probe_attempted={probe.attempted} defect_probe_failed={len(probe.failures)}"]
    notes += [f"defect probe failure {f}" for f in probe.failures]
    return metrics, plain, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload)
        return 0

    jc = load_program()
    warm_up(jc, args.workload)
    with open(HERE / "reference.json", encoding="utf-8") as handle:
        reference = json.load(handle)
    rng = random.Random(f"{args.workload}:{args.seed}")
    print("# env " + json.dumps(environment(), sort_keys=True))

    if args.trace:
        metrics, tally, notes = measure_traced(jc, args.workload, reference, rng, args.seconds)
    else:
        setup = setup_seconds(args.workload)
        metrics, tally, notes = measure(jc.cli, args.workload, reference, rng, args.seconds)
        metrics = {"setup_s": (setup, "s"), **metrics}
    print(f"# settings workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} attempted={tally.attempted} failed={len(tally.failures)}")
    for line in notes + [f"failure {f}" for f in tally.failures[:10]]:
        print(f"# {line}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
