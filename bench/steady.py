"""Steadiness mode: repeated runs of each workload, one seed per run.

    python3 bench/steady.py [--runs 10] [--seconds S]

Runs ``run.py`` once per seed 1..runs for every workload in
BENCHMARK.json, one run at a time, and prints for every end-to-end metric
its median, quartiles and the quartile distance as a share of the median,
plus the failed share of operations.
These figures are what each metric's ``bound`` in BENCHMARK.json is set
against.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        shares = []
        for seed in range(1, args.runs + 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                timeout=600)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: outputs failed their checks")
            shares.append(result["failed"] / result["attempted"])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            print(f"{workload:12s} {name:12s} median {med:.4g}  quartiles {q1:.4g} {q3:.4g}  "
                  f"spread {spread:.3f}  bound {bounds.get(name)}")
        print(f"{workload:12s} failed share {sorted(set(shares))}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
