"""Each output check accepts the program's real output and rejects a wrong one.

Run with: PYTHONPATH=src python -m pytest bench
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import metrics
from checks import Checker, Mismatch
from workloads import WORKLOADS, dense_problem, grid_problem
from statesphere import cli

ROOT = Path(__file__).resolve().parent.parent


def cli_output(argv: list) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


@pytest.fixture(scope="module")
def problems(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("bench")
    rng = np.random.default_rng(7)
    return [
        grid_problem(tmp / "grid.json", rng, 32),
        dense_problem(tmp / "dense.json", rng, 8),
        grid_problem(tmp / "small.json", rng, 64),
    ]


def with_field(text: str, name: str, change) -> str:
    doc = json.loads(text)
    doc[name] = change(doc[name])
    return json.dumps(doc)


def assert_rejects(checker: Checker, index: int, argv: list, text: str) -> None:
    with pytest.raises(Mismatch):
        checker.check(index, argv, text)


REPORT_FIELDS = (
    "delta_a", "delta_b", "area", "metric_term", "commutator_half",
    "anticommutator_half", "theta", "robertson_slack",
)


@pytest.mark.parametrize("index,pair", [(0, ["x", "p"]), (1, ["a", "b"])])
def test_report_check(problems, index, pair):
    checker = Checker(problems)
    argv = ["report", "--input", problems[index].path, "--pair", *pair]
    text = cli_output(argv)
    checker.check(index, argv, text)
    for name in REPORT_FIELDS:
        assert_rejects(checker, index, argv, with_field(text, name, lambda v: v * (1 + 1e-6) + 1e-9))
    assert_rejects(checker, index, argv, with_field(text, "identity_residual", lambda v: 1e-6))
    for name in ("robertson_slack", "schrodinger_slack", "area_bound_slack"):
        assert_rejects(checker, index, argv, with_field(text, name, lambda v: -abs(v) - 1e-3))


@pytest.mark.parametrize("index,pair", [(0, ["x", "p"]), (1, ["a", "b"])])
def test_distances_check(problems, index, pair):
    checker = Checker(problems)
    argv = ["distances", "--input", problems[index].path, "--pair", *pair]
    text = cli_output(argv)
    checker.check(index, argv, text)
    for name in ("d_phi_a", "d_phi_b", "d_a_b", "slack"):
        assert_rejects(checker, index, argv, with_field(text, name, lambda v: v + 1e-7))
    # A triangle that does not close is rejected even when self-consistent.
    with pytest.raises(Mismatch):
        checks._check_triangle({"d_phi_a": 0.1, "d_phi_b": 0.1, "d_a_b": 0.3, "slack": -0.1}, 0.1, 0.1, 0.3)


def test_evolve_check(problems):
    checker = Checker(problems)
    argv = ["evolve", "--input", problems[0].path, "--generator", "p", "--t-max", "1.5", "--steps", "8"]
    text = cli_output(argv)
    checker.check(0, argv, text)
    lines = text.splitlines()

    def edit(row: int, col: int, change) -> str:
        cells = lines[row].split(",")
        cells[col] = repr(change(float(cells[col])))
        return "\n".join(lines[:row] + [",".join(cells)] + lines[row + 1:])

    assert_rejects(checker, 0, argv, edit(5, 3, lambda v: v + 1e-6))  # an amplitude
    assert_rejects(checker, 0, argv, edit(5, 0, lambda v: v + 1e-3))  # a time
    assert_rejects(checker, 0, argv, edit(5, -1, lambda v: v * (1 + 1e-6)))  # std_dev
    assert_rejects(checker, 0, argv, edit(5, -2, lambda v: v * (1 + 1e-4)))  # fs_speed
    assert_rejects(checker, 0, argv, "\n".join(lines[:-1]))  # a row missing
    assert_rejects(checker, 0, argv, text.replace("fs_speed", "speed"))


def test_minimize_check(problems):
    checker = Checker(problems)
    argv = ["minimize", "--input", problems[2].path, "--pair", "x", "p", "--restarts", "1", "--seed", "3"]
    text = cli_output(argv)
    checker.check(2, argv, text)
    assert_rejects(checker, 2, argv, with_field(text, "value", lambda v: v * (1 + 1e-5)))
    assert_rejects(checker, 2, argv, with_field(text, "seed", lambda v: v + 1))
    assert_rejects(checker, 2, argv, with_field(text, "state", lambda s: [[1.001 * re, im] for re, im in s]))
    # The starting superposition, reported with its true product, is not as
    # low as the Gaussian minimum the restarts reach.
    start = problems[2].phi
    bad = with_field(text, "state", lambda s: [[z.real, z.imag] for z in start])
    assert_rejects(checker, 2, argv, with_field(bad, "value", lambda v: checks.variance_product(start)))


def test_selftest_check(problems):
    checker = Checker(problems)
    argv = ["selftest", "--n-random", "5", "--seed", "11"]
    text = cli_output(argv)
    checker.check(0, argv, text)
    assert_rejects(checker, 0, argv, text.replace("verified 30", "verified 24"))
    assert_rejects(checker, 0, argv, text.replace("(seed=11)", "(seed=12)"))
    assert_rejects(checker, 0, argv, "")


def test_benchmark_json_matches_the_harness():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in config["workloads"]] == list(WORKLOADS)
    computed = metrics.layer_values({"spans": {}, "counts": {}})
    assert [m["name"] for m in config["per_layer"]] == list(computed)


def traced_counts(spec_path: Path) -> list:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "worker.py"), str(spec_path)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    records = [json.loads(line) for line in proc.stdout.splitlines()[:-1]]
    assert all(rc == 0 for rec in records for rc, _, _ in rec["results"])
    return [metrics.layer_values(rec["trace"]) for rec in records]


def test_traced_counts_repeat(problems, tmp_path):
    path = problems[0].path
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "ops": [[["report", "--input", path, "--pair", "x", "p"],
                 ["distances", "--input", path, "--pair", "x", "p"]]],
        "seconds": 0,
        "trace": True,
    }))
    first, second = traced_counts(spec), traced_counts(spec)
    counts = [{k: v for k, v in layer.items() if not k.endswith("_s")} for layer in first + second]
    assert all(c == counts[0] for c in counts)
    assert counts[0]["hilbert.spectral.calls"] == 4
    assert counts[0]["hilbert.centered.calls"] == 2
    assert counts[0]["projective.eigenspace_pairs"] == 32 * 32
    # Both commands load the file and build x and p, 32 x 32 complex each.
    assert counts[0]["canonical.operator_mb"] == 2 * 2 * 32 * 32 * 16 / 1e6
    assert first[0]["projective.eigenset_distance.self_s"] > 0
