#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at a tiny size, through the
same command the benchmark is run with.

    python3 perfbench/selftest.py

Checks that each workload prints every end-to-end metric (--trace 0) and
every per-layer metric (--trace 1) by name and unit, that the correctness
gate passes, and that the gate rejects a corrupted CSV value and a
corrupted training loss. Exits 1 on the first failed check.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload, trace, *extra):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
           workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
           "--tiny", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def expect(condition, message):
    if not condition:
        sys.exit(f"selftest: FAIL: {message}")
    print(f"ok: {message}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            code, result = run(workload, trace)
            label = f"{workload} --trace {trace}"
            expect(code == 0 and result and result["correct"],
                   f"{label}: exits 0 with the gate passed")
            expect(set(result) == {"correct", "attempted", "failed",
                                   "metrics"},
                   f"{label}: prints exactly the four result keys")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == wanted[trace],
                   f"{label}: prints every metric by name and unit")
            expect(all(isinstance(v["value"], (int, float))
                       for v in result["metrics"].values()),
                   f"{label}: every value is a number")
            expect(result["attempted"] >= 1 and result["failed"] == 0,
                   f"{label}: attempted >= 1, failed = 0")

    for workload, corrupt in (("paper_grid", "csv"), ("scale10k", "csv"),
                              ("train", "loss")):
        code, result = run(workload, 0, "--corrupt", corrupt)
        expect(code != 0 and result and not result["correct"],
               f"{workload}: the gate rejects a corrupted {corrupt} value")
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
