"""Run the benchmark over several seeds and summarise every metric.

    python3 perfbench/sweep.py --seeds 1-10 [--workloads solve,certify]
                               [--seconds 20] [--trace 0] [--out FILE]

Runs perfbench/run.py once per (workload, seed), one run at a time, and
prints for each workload and metric the median, the quartiles and their
distance as a share of the median (the run-to-run spread that
BENCHMARK.json's bounds are set against).  --out writes every run and the
summary as JSON, with the Python, numpy and scipy versions and the CPU
count of the machine.
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
from pathlib import Path

from benchstats import quartile_spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def environment() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "machine": platform.machine()}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args()

    runs = []
    for workload in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            wall = time.perf_counter() - t0
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"workload": workload, "seed": seed, "wall_s": wall, **result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} wall={wall:.1f}s",
                  file=sys.stderr)

    summary = {}
    for workload in args.workloads.split(","):
        mine = [r for r in runs if r["workload"] == workload]
        summary[workload] = {}
        for name, m in mine[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in mine]
            row = {"unit": m["unit"], "median": statistics.median(values)}
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                row.update(q1=q1, q3=q3)
                if row["median"]:
                    row["spread"] = quartile_spread(values)
            summary[workload][name] = row
            spread = f"{row['spread']:.4f}" if "spread" in row else "-"
            print(f"{workload:11s} {name:45s} {row['median']:12.6g} {m['unit']:6s} "
                  f"spread {spread}")

    if args.out:
        Path(args.out).write_text(json.dumps(
            {"environment": environment(), "seeds": args.seeds,
             "seconds": args.seconds, "trace": args.trace,
             "summary": summary, "runs": runs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
