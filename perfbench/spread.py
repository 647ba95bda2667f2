#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 10 [--workloads paper_grid,train]

Every run lasts BENCHMARK.json's run_seconds, so the spreads speak to its
bounds. Runs alternate between workloads (seed 1 of every workload, then
seed 2, ...), so a drift of the machine spreads over all of them instead of
landing on one. For each end-to-end metric it prints the median and the
interquartile range over the median (statistics.quantiles, n=4) next to the
metric's bound from BENCHMARK.json. Raw results go to runs/spread.json in
the benchmark's build directory.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import build_dir

ROOT = Path(__file__).resolve().parent.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args()
    workloads = args.workloads.split(",")

    results = {w: [] for w in workloads}
    for seed in range(1, args.seeds + 1):
        for workload in workloads:
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", workload, "--seed", str(seed), "--seconds",
                 str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                sys.exit(f"{workload} seed {seed}: exit {proc.returncode}")
            seconds = time.perf_counter() - start
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            results[workload].append(result["metrics"])
            figures = ", ".join(f"{k}={v['value']:.6g}"
                                for k, v in result["metrics"].items())
            print(f"{workload} seed {seed} ({seconds:.0f} s): {figures}",
                  flush=True)

    out = build_dir() / "runs" / "spread.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1))

    print(f"\n{'workload':<11} {'metric':<22} {'median':>12} {'spread':>8} "
          f"{'bound':>6}")
    for workload in workloads:
        for m in spec["end_to_end"]:
            values = [r[m["name"]]["value"] for r in results[workload]]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / med
            flag = "" if share < m["bound"] / 3 else "  <- above bound/3"
            print(f"{workload:<11} {m['name']:<22} {med:>12.6g} "
                  f"{share:>8.2%} {m['bound']:>6}{flag}")


if __name__ == "__main__":
    main()
