"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Measures set-up time (a fresh
``python -m sgsolve --help``, several times), then runs the workload in a
child process (``worker.py``) so that its peak memory is its own, and
prints one JSON object as the last line: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones, with ``--trace 1`` the per-layer ones.  Exits non-zero,
without a result, when the program's sources are missing or the worker
fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from calibrate import REF_S, reference
from spans import unit
from workloads import WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
SETUP_RUNS = 15
WORKER_TIMEOUT_S = 160


def setup_seconds() -> float:
    """Median wall time of a fresh ``python -m sgsolve --help`` (interpreter
    start, package import and parser build), scaled to the reference speed
    like the worker's query times (``calibrate``): the reference load runs
    in this process right before and after each start.  One unscaled start
    first fills the bytecode cache, as any installed copy would have it.  No
    timeout: with one, ``subprocess`` polls in steps of up to 50 ms, which
    would quantise the figure."""
    env = dict(os.environ, PYTHONPATH=SRC)
    cmd = [sys.executable, "-m", "sgsolve", "--help"]
    subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, check=True)
    ratios = []
    ref = reference()
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, check=True)
        took = time.perf_counter() - start
        after = reference()
        ratios.append(took / ((ref + after) / 2))
        ref = after
    return REF_S * statistics.median(ratios)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "sgsolve", "__init__.py")):
        print(f"error: no sgsolve sources under {SRC}", file=sys.stderr)
        return 2
    setup_s = None if args.trace else setup_seconds()
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
        cwd=ROOT, env=dict(os.environ, PYTHONHASHSEED="0"), stdout=subprocess.PIPE, text=True,
        timeout=WORKER_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: worker exited {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    metrics = result["metrics"]
    if setup_s is not None:
        metrics["setup_s"] = setup_s
    print(f"# {args.workload}: {result['passes']} passes", file=sys.stderr)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": "MB" if k == "peak_rss_mb" else unit(k)}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
