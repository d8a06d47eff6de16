"""Steadiness of the benchmark: how much its figures move between runs.

Usage (from the repository root):
    python3 bench/steady.py [--runs 10] [--first-seed 1] [--seconds S]
                            [--workload NAME ...] [--trace]

Runs each workload --runs times in a row, one seed per run, and prints for
each end-to-end metric the median, the quartiles (statistics.quantiles with
n=4) and the spread (q3 - q1) / median against the metric's bound in
BENCHMARK.json.  A spread under a third of the bound is marked steady.  This
is how the bounds were set.  With --trace it instead runs each workload
traced, untraced and traced again on one seed, shows whether every
per-layer count repeats exactly, and gives the tracing overhead: the traced
minus the untraced median op time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COUNT_UNITS = ("count", "MB")


def run_once(workload: str, seed: int, seconds, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def spread_table(config: dict, workloads: list, runs: int, first_seed: int, seconds) -> None:
    bounds = {m["name"]: m for m in config["end_to_end"]}
    for workload in workloads:
        results = []
        for seed in range(first_seed, first_seed + runs):
            results.append(run_once(workload, seed, seconds, 0))
            print(".", end="", file=sys.stderr, flush=True)
        print(file=sys.stderr)
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        ops = [r["attempted"] for r in results]
        print(f"{workload}: {runs} runs, ops attempted {min(ops)}-{max(ops)}, "
              f"failed share {shares}, all correct: {all(r['correct'] for r in results)}")
        print(f"  {'metric':<15} {'unit':<6} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>7} {'bound':>6}")
        for name, spec in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            verdict = ("steady" if spread <= spec["bound"] / 3
                       else "within bound" if spread <= spec["bound"] else "TOO WIDE")
            print(f"  {name:<15} {spec['unit']:<6} {med:>11.5g} {q1:>11.5g} {q3:>11.5g} {spread:>7.3f} "
                  f"{spec['bound']:>6.2f}  {verdict}")


def op_time_p50(workload: str, seed: int, trace: int) -> float:
    record = json.loads((ROOT / "bench" / "results" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return record["latency"]["latency_p50_s"]


def trace_repeat(config: dict, workloads: list, seed: int, seconds) -> None:
    """Two traced runs on one seed with an untraced run between them."""
    units = {m["name"]: m["unit"] for m in config["per_layer"]}
    for workload in workloads:
        a = run_once(workload, seed, seconds, 1)["metrics"]
        traced = [op_time_p50(workload, seed, 1)]
        run_once(workload, seed, seconds, 0)
        plain = op_time_p50(workload, seed, 0)
        b = run_once(workload, seed, seconds, 1)["metrics"]
        traced.append(op_time_p50(workload, seed, 1))
        overhead = statistics.mean(traced) - plain
        print(f"{workload} (seed {seed}): median op time {plain:.4g} s untraced, "
              f"{traced[0]:.4g} and {traced[1]:.4g} s traced; overhead {overhead:+.4g} s "
              f"({overhead / plain:+.1%})")
        for name, unit in units.items():
            va, vb = a[name]["value"], b[name]["value"]
            mark = ("repeats" if va == vb else "DIFFERS") if unit in COUNT_UNITS else ""
            print(f"  {name:<38} {va:>12.6g} {vb:>12.6g} {unit:<6} {mark}")


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=config["run_seconds"])
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in config["workloads"]])
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in config["workloads"]]
    if args.trace:
        trace_repeat(config, workloads, args.first_seed, args.seconds)
    else:
        spread_table(config, workloads, args.runs, args.first_seed, args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
