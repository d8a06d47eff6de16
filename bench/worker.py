"""Runs one workload's ops in a fresh interpreter and streams their outputs.

Usage: python3 bench/worker.py SPEC.json

SPEC holds {"ops": [[argv, ...], ...], "seconds": S, "trace": bool}.  The
worker runs the first op once as an untimed warm-up, then cycles through the
ops in a closed loop, one caller, until S seconds have passed at the end of
a whole cycle.  After each op it writes one JSON line to stdout with the
op's wall time and each command's exit code, stdout and stderr; the last
line holds the process's peak resident memory.  Writing happens between
ops, outside the timed region.  run.py starts this process and checks what
it writes.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import traceback
from time import perf_counter

import statesphere.cli as cli


def run_command(argv: list) -> list:
    """[exit code, stdout, stderr] of cli.main(argv); a traceback lands in stderr."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception:
        rc = None
        err.write(traceback.format_exc())
    return [rc, out.getvalue(), err.getvalue()]


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    ops = spec["ops"]
    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    def run_op(index: int, warmup: bool) -> None:
        if tracer is not None:
            tracer.take()
        t0 = perf_counter()
        results = [run_command(argv) for argv in ops[index]]
        elapsed = perf_counter() - t0
        record = {"op": index, "warmup": warmup, "seconds": elapsed, "results": results}
        if tracer is not None:
            record["trace"] = tracer.take()
        sys.stdout.write(json.dumps(record) + "\n")
        sys.stdout.flush()

    run_op(0, warmup=True)
    start = perf_counter()
    done = 0
    while done % len(ops) or perf_counter() - start < spec["seconds"]:
        run_op(done % len(ops), warmup=False)
        done += 1
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps({"peak_rss_kb": peak_kb}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
