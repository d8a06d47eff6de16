"""statesphere benchmark: one workload, one run, one JSON result line.

Usage (from the repository root):
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run generates the workload's problem files from the seed and runs the
ops in a fresh worker process (worker.py) that calls statesphere.cli.main
in-process.  Before and after the worker it times fresh interpreters
importing statesphere (setup_s).
Every op's output is checked here against an independent computation
(checks.py).  With --trace 0 the last stdout line carries the end-to-end
metrics; with --trace 1 the worker wraps the program's public functions
(spans.py) and the line carries the per-layer metrics instead.  A full
record of the run, with the environment, goes to bench/results/.
"""

from __future__ import annotations

import os

# Fixed before numpy loads, here and in every child process.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from metrics import latency_summary, layer_values  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path("bench")
SETUP_PROBES = 5  # timed interpreter starts before the worker, and again after it
PROBE = "import statesphere.cli; print('ready', flush=True)"
DEADLINE_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def setup_times(env: dict, probes: int) -> list:
    """Wall times for fresh interpreters to import statesphere.cli.

    Each probe runs until the interpreter says it is ready.
    """
    times = []
    for _ in range(probes):
        t0 = perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", PROBE], env=env, stdout=subprocess.PIPE, text=True
        ) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
        times.append(elapsed)
    return times


def packed_ref(git_dir: Path, ref: str):
    """The hash `git pack-refs` stored for ref, or None."""
    packed = git_dir / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            parts = line.split()
            if len(parts) == 2 and parts[1] == ref:
                return parts[0]
    return None


def environment() -> dict:
    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    commit = "unknown (not a git checkout)"
    git_dir = ROOT / ".git"
    head = git_dir / "HEAD"
    if head.is_file():
        commit = head.read_text().strip()
        if commit.startswith("ref: "):
            ref = commit[5:]
            ref_file = git_dir / ref
            if ref_file.is_file():
                commit = ref_file.read_text().strip()
            else:
                commit = packed_ref(git_dir, ref) or f"unknown ({ref} not found)"
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def run(config: dict, workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    from checks import Checker, Mismatch
    from workloads import WORKLOADS

    started = perf_counter()
    workdir = BENCH / "_work" / f"{workload_name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        problems, ops = WORKLOADS[workload_name](workdir, seed)
        env = child_env()
        if not trace:
            # One untimed start first: it byte-compiles a fresh checkout.
            setup_times(env, 1)
            setup = setup_times(env, SETUP_PROBES)
        spec = workdir / "spec.json"
        spec.write_text(json.dumps({"ops": [op.commands for op in ops], "seconds": seconds, "trace": trace}))
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), str(spec)],
            env=env,
            capture_output=True,
            text=True,
            timeout=DEADLINE_S - (perf_counter() - started),
        )
        if not trace:
            # Half the probes after the worker, so setup_s spans the run too.
            setup += setup_times(env, SETUP_PROBES)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")

    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    peak_kb = lines[-1]["peak_rss_kb"]
    checker = Checker(problems)
    failures, correct = [], True
    latencies, layers = [], []
    for rec in lines[:-1]:
        op = ops[rec["op"]]
        problem = None
        for argv, (rc, out, err) in zip(op.commands, rec["results"]):
            if rc != 0 or err:
                problem = f"{argv[0]}: exit {rc}: {err.strip()[-300:]}"
                break
            try:
                checker.check(op.problem, argv, out)
            except (Mismatch, ValueError, KeyError, IndexError, TypeError) as exc:
                problem = f"{argv[0]}: {exc}"
                break
        if problem is not None:
            # No workload has an op that is meant to fail, so a crash counts
            # as wrong output: a failing op must not pass as a faster one.
            failures.append(f"op {rec['op']}: {problem}")
            correct = False
        if not rec["warmup"]:
            latencies.append(rec["seconds"])
            if trace:
                layers.append(layer_values(rec["trace"]))

    summary = latency_summary(latencies)
    if trace:
        metrics = {
            m["name"]: {"value": statistics.median(v[m["name"]] for v in layers), "unit": m["unit"]}
            for m in config["per_layer"]
        }
    else:
        values = {**summary, "setup_s": statistics.median(setup), "peak_rss_mb": peak_kb * 1024 / 1e6}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in config["end_to_end"]}
    return {
        "correct": correct,
        "attempted": len(lines) - 1,
        "failed": len(failures),
        "metrics": metrics,
        "record": {
            "workload": workload_name,
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "latency": summary,
            "latencies_s": latencies,
            "failures": failures[:20],
            "environment": environment(),
        },
    }


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "statesphere" / "cli.py").is_file():
        print("error: statesphere sources not found under src/", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    config = json.loads(Path("BENCHMARK.json").read_text())
    try:
        result = run(config, args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    record = result.pop("record")
    out_dir = BENCH / "results"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps({**record, **result}, indent=1) + "\n")

    summary = record["latency"]
    print(f"workload {args.workload} seed {args.seed}: {result['attempted']} ops attempted "
          f"({summary['timed_ops']} timed), {result['failed']} failed")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    tag = "traced, reference only" if args.trace else "reference only"
    for key, value in summary.items():
        if key != "timed_ops" and key not in result["metrics"]:
            unit = "ops/s" if key == "ops_per_s" else "s"
            print(f"  {key} = {value:.6g} {unit} ({tag})")
    for key, m in result["metrics"].items():
        print(f"  {key} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
