"""Rerun one workload k times and print each metric's median and quartiles.

    python3 perfbench/repeat.py --workload fibre-checks --runs 10 --seconds 36

Runs ``perfbench/run.py`` once per seed (first seed, first seed + 1, ...),
one after another, from the current directory, which must be the root of a
decspace checkout.  For each metric it prints the median, the first and
third quartiles as ``statistics.quantiles(values, n=4)`` gives them, and the
spread: the distance between the quartiles as a share of the median.  The
bounds in BENCHMARK.json are derived from these spreads.  It also prints the
share of failed operations of every run, which must not change.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"run failed (exit {proc.returncode}): {' '.join(cmd)}\n{proc.stderr}")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    results = []
    for i in range(args.runs):
        seed = args.first_seed + i
        res = run_once(args.workload, seed, args.seconds, args.trace)
        shown = " ".join(
            f"{k}={v['value']:.4g}" for k, v in res["metrics"].items() if k.endswith("_s") or k.endswith("_mib")
        )
        print(
            f"seed {seed}: correct={res['correct']} failed {res['failed']}/{res['attempted']} {shown}",
            flush=True,
        )
        results.append(res)

    print(f"\n{args.workload}: {len(results)} runs")
    print(f"{'metric':40} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name, m in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:40} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f}  {m['unit']}")
    shares = {(r["failed"], r["attempted"]) for r in results}
    print("failed/attempted:", ", ".join(f"{f}/{a}" for f, a in sorted(shares)))
    print("correct in every run:", all(r["correct"] for r in results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
