"""Repeat the benchmark over several seeds and report each metric's spread.

    python3 perfbench/record.py [--append]

For every workload of BENCHMARK.json it makes ten untraced runs of
`run_seconds` each, seeds 1..10, and prints each end-to-end metric's median,
quartiles and spread (quartile distance over the median) next to its bound.
It exits 1 unless every spread, that of setup_s too, is below a third of its
bound.  With `--append` it also makes one traced run per workload and appends
a trajectory point to perfbench/trajectory.json: the environment, every run's
metrics, the medians, the per-module self-time shares and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
RUNS = 10


def bench_run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{' '.join(cmd)}: verdicts differ: {lines[-2]}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def main():
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = {w["name"]: w["why"] for w in spec["workloads"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--append", action="store_true",
                        help="also append a trajectory point to trajectory.json")
    args = parser.parse_args()

    point = {
        "date": time.strftime("%Y-%m-%d"),
        "commit": commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "run_seconds": spec["run_seconds"],
        "seeds": list(range(1, RUNS + 1)),
        "workloads": {},
    }
    steady = True
    for workload in workloads:
        runs = []
        for seed in point["seeds"]:
            runs.append(bench_run(workload, seed, spec["run_seconds"], 0))
            print(f"{workload:16} seed {seed:3} " + " ".join(
                f"{k} {v:.4f}" for k, v in runs[-1].items()), flush=True)
        summary = {}
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med
            steady &= spread < bound / 3
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
            print(f"{workload:16} {name:12} median {med:.4f} quartiles {q1:.4f}..{q3:.4f}"
                  f" spread {spread:.4f} bound {bound}", flush=True)
        entry = {"why": workloads[workload], "runs": runs, "summary": summary}
        if args.append:
            traced = bench_run(workload, 1, spec["run_seconds"], 1)
            entry["self_share"] = {k[:-len(".self_share")]: v for k, v in traced.items()
                                   if k.endswith(".self_share")}
            entry["trace_overhead_s"] = traced["trace.overhead_s"]
            entry["traced"] = traced
        point["workloads"][workload] = entry
    print("steady" if steady else "NOT steady: a spread is above a third of its bound")
    if args.append:
        path = os.path.join(HERE, "trajectory.json")
        history = []
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                history = json.load(fh)
        history.append(point)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(history, fh, indent=1)
            fh.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
