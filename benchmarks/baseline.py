"""Run every workload over several seeds and summarise the spread of each metric.

    python3 benchmarks/baseline.py --seeds 1-10 --out benchmarks/baseline.json

For each workload it runs ``run.py --trace 0`` once per seed, one after the
other, and reports the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread (quartile distance over the median) of every end-to-end
metric next to the bound in BENCHMARK.json; then one ``--trace 1`` run with
the first seed gives the per-layer metrics.  With ``--out`` the summary,
together with the run environment and settings, is written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.splitlines()
    env = json.loads(next(line for line in lines if line.startswith("# env "))[len("# env "):])
    return json.loads(lines[-1]), env


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=None, help="comma-separated; default all")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)

    summary: dict = {"settings": {"run_seconds": seconds, "seeds": seeds}, "workloads": {}}
    for workload in workloads:
        runs = []
        for seed in seeds:
            t0 = time.monotonic()
            result, env = run_once(workload, seed, seconds, 0)
            runs.append(result)
            print(f"{workload} seed={seed} wall={time.monotonic() - t0:.1f}s correct={result['correct']} "
                  f"attempted={result['attempted']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        summary["environment"] = env
        stats = {}
        for name, metric in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            stats[name] = {
                "unit": metric["unit"], "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med, "bound": metric["bound"], "values": values,
            }
            flag = "" if name == "setup_s" or (q3 - q1) / med < metric["bound"] / 3 else "  <-- spread above bound/3"
            print(f"  {name:12s} median={med:.6g} {metric['unit']} spread={(q3 - q1) / med:.4f} "
                  f"bound={metric['bound']}{flag}", flush=True)
        entry = {
            "end_to_end": stats,
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "correct": all(r["correct"] for r in runs),
        }
        t0 = time.monotonic()
        traced, _ = run_once(workload, seeds[0], seconds, 1)
        entry["per_layer"] = {"seed": seeds[0], **{k: v["value"] for k, v in traced["metrics"].items()}}
        entry["per_layer_correct"] = traced["correct"]
        print(f"  traced: wall={time.monotonic() - t0:.1f}s "
              f"overhead {traced['metrics']['trace.overhead_pct']['value']:.2f}% "
              f"self-sum {traced['metrics']['trace.self_sum_pct']['value']:.2f}% "
              f"defect probe failures {traced['metrics']['defect.failed']['value']}", flush=True)
        summary["workloads"][workload] = entry

    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
