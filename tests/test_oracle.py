"""The printed digits of `statesphere report`, checked against a 50-digit oracle.

Every field of every `report` case in golden_cli.json must lie within
n * eps * scale**k of the exact value computed by oracle.report_fields, where
scale = max(A.scale, B.scale) and k is the field's degree in the operators
(0 makes theta's bound absolute).

A change may regenerate golden values only when, over the values it moves,
the largest error in units of each value's own bound does not grow.  Each
regeneration is recorded in REGENERATIONS with the values it replaced, and
test_regenerations_moved_closer keeps that rule checked.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from mpmath import mp

from statesphere.cli import load_problem

from oracle import DIGITS, problem_operators, report_fields

GOLDEN = json.loads(Path(__file__).with_name("golden_cli.json").read_text())
EPS = np.finfo(float).eps

DEGREE = {
    "delta_a": 1,
    "delta_b": 1,
    "area": 2,
    "metric_term": 2,
    "commutator_half": 2,
    "anticommutator_half": 2,
    "identity_residual": 4,
    "theta": 0,
    "robertson_slack": 2,
    "schrodinger_slack": 4,
    "area_bound_slack": 2,
}

# (problem, A, B) -> the golden values each regeneration replaced, in the
# order landed.
REGENERATIONS = {
    # report brackets from the products A_c(B_c phi) and B_c(A_c phi) instead
    # of the matrices A_c B_c and B_c A_c
    ("grid16", "x", "p"): [{
        "commutator_half": 0.50000007257650259,
        "anticommutator_half": 6.4340818134792088e-07,
        "robertson_slack": 3.1600986496460592e-06,
        "schrodinger_slack": 3.1601086805946758e-06,
        "area_bound_slack": 3.1600982357549157e-06,
    }],
}


def report_cases():
    """((problem name, A, B), case) for every report case of the golden file."""
    for case in GOLDEN["cases"]:
        argv = case["argv"]
        if argv[0] == "report":
            at = argv.index("--pair")
            yield (argv[argv.index("--input") + 1].strip("{}"), *argv[at + 1:at + 3]), case


REPORT_CASES = [
    pytest.param(key, case, id=" ".join(case["argv"][2:])) for key, case in report_cases()
]


def printed_fields(case) -> dict:
    """The report's fields parsed back from the case's JSON or CSV stdout."""
    out = case["stdout"]
    if "csv" in case["argv"]:
        header, row = out.splitlines()
        return dict(zip(header.split(","), map(float, row.split(","))))
    return json.loads(out)


@pytest.fixture(scope="module")
def oracle(tmp_path_factory):
    """(problem, A, B) -> (exact report fields, n, scale as the program computes it)."""
    out = {}
    for key in {key for key, _ in report_cases()}:
        name, a, b = key
        doc = GOLDEN["problems"][name]
        path = tmp_path_factory.mktemp("oracle") / f"{name}.json"
        path.write_text(json.dumps(doc))
        state, observables = load_problem(str(path))
        phi, exact_ops = problem_operators(doc)
        out[key] = (
            report_fields(exact_ops[a], exact_ops[b], phi),
            state.dim,
            max(observables[a].scale, observables[b].scale),
        )
    return out


def errors_in_bound_units(oracle, key, fields) -> dict:
    """|value - exact| / (n eps scale**k) for each given field."""
    exact, n, scale = oracle[key]
    with mp.workdps(DIGITS):
        return {
            name: float(abs(mp.mpf(value) - exact[name])) / (n * EPS * scale ** DEGREE[name])
            for name, value in fields.items()
        }


@pytest.mark.parametrize("key, case", REPORT_CASES)
def test_report_digits_within_oracle_bound(oracle, key, case):
    fields = printed_fields(case)
    assert list(fields) == list(DEGREE)
    errors = errors_in_bound_units(oracle, key, fields)
    assert max(errors.values()) <= 1.0, errors


def test_every_problem_has_report_cases():
    assert {key[0] for key, _ in report_cases()} == set(GOLDEN["problems"])


@pytest.mark.parametrize("key", sorted(REGENERATIONS), ids=" ".join)
def test_regenerations_moved_closer(oracle, key):
    cases = [case for k, case in report_cases() if k == key]
    assert cases
    for case in cases:
        current = printed_fields(case)
        for replaced in REGENERATIONS[key]:
            now = errors_in_bound_units(oracle, key, {k: current[k] for k in replaced})
            before = errors_in_bound_units(oracle, key, replaced)
            assert max(now.values()) <= max(before.values()), (now, before)
