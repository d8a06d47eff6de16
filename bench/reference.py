"""Reference figures: the seed baselines listed in ROADMAP.md, re-measured.

Usage (from the repository root):
    python3 bench/reference.py

Times, with one BLAS thread, CLI `distances --pair x p` on an n=256 grid,
`trace_flow` of p at n=256 with 64 steps, and `momentum_op` and
`relations_report(x, p)` at n=2048.  Prints the median and range of
REPEATS runs of each.  These rows are not part of BENCHMARK.json.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import io  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from statesphere import (  # noqa: E402
    Grid, cli, momentum_op, position_op, relations_report, trace_flow, validate_state,
)
from workloads import GRID_LENGTH, HBAR, grid_problem, two_gaussians  # noqa: E402

REPEATS = 3


def timed(fn) -> list:
    times = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return times


def main() -> int:
    rng = np.random.default_rng(0)
    workdir = ROOT / "bench" / "_work" / f"reference-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        path = grid_problem(workdir / "grid256.json", rng, 256).path

        def distances():
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["distances", "--input", path, "--pair", "x", "p"]) == 0

        g256 = Grid(256, GRID_LENGTH, HBAR)
        p256 = momentum_op(g256)
        phi256 = validate_state(two_gaussians(rng, 256))
        g2048 = Grid(2048, GRID_LENGTH, HBAR)
        x2048, p2048 = position_op(g2048), momentum_op(g2048)
        phi2048 = validate_state(two_gaussians(rng, 2048))
        rows = [
            ("CLI distances --pair x p, n=256", 2.6, distances),
            ("trace_flow(p), n=256, 64 steps", 3.6, lambda: trace_flow(p256, phi256, 2.0, 64)),
            ("momentum_op, n=2048", 1.1, lambda: momentum_op(g2048)),
            ("relations_report(x, p), n=2048", 1.9, lambda: relations_report(x2048, p2048, phi2048)),
        ]
        print(f"{'case':<34} {'seed baseline':>13} {'median':>8} {'min':>8} {'max':>8}")
        for name, baseline, fn in rows:
            t = timed(fn)
            print(f"{name:<34} {baseline:>12.1f}s {statistics.median(t):>7.2f}s "
                  f"{min(t):>7.2f}s {max(t):>7.2f}s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
