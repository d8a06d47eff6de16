"""The printed digits of the golden CLI cases, checked against a 50-digit oracle.

Every field of every `report` case in golden_cli.json must lie within
n * eps * scale**k of the exact value computed by oracle.report_fields, where
scale = max(A.scale, B.scale) and k is the field's degree in the operators
(0 makes theta's bound absolute).  So must evolve's std_dev column (k = 1,
scale of the generator) and minimize's value (k = 4) and certificate
(lambda and residual, k = 0), each evaluated at the printed state.

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

from statesphere import State, minimal_condition
from statesphere.cli import load_problem
from statesphere.uncertainty import CERT_TOL

from oracle import (
    DIGITS, minimize_fields, normalised, problem_operators, report_fields, std_dev,
)

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
# Degrees of the evolve and minimize fields checked here.
STD_DEV_DEGREE = 1
MINIMIZE_DEGREE = {"value": 4, "lambda_re": 0, "lambda_im": 0, "residual": 0}

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


def cases(command: str):
    """(problem name, case) for every golden case of one command."""
    for case in GOLDEN["cases"]:
        argv = case["argv"]
        if argv[0] == command:
            yield argv[argv.index("--input") + 1].strip("{}"), case


def pair(case) -> tuple:
    at = case["argv"].index("--pair")
    return tuple(case["argv"][at + 1:at + 3])


def report_cases():
    """((problem name, A, B), case) for every report case of the golden file."""
    for name, case in cases("report"):
        yield (name, *pair(case)), case


def params(items):
    return [pytest.param(*item, id=" ".join(item[-1]["argv"][2:])) for item in items]


REPORT_CASES = params(report_cases())


def printed_fields(case) -> dict:
    """The report's fields parsed back from the case's JSON or CSV stdout."""
    out = case["stdout"]
    if "csv" in case["argv"]:
        header, row = out.splitlines()
        return dict(zip(header.split(","), map(float, row.split(","))))
    return json.loads(out)


@pytest.fixture(scope="module")
def problems(tmp_path_factory):
    """problem -> (exact state, exact observables, observables as the program loads them)."""
    out = {}
    for name, doc in GOLDEN["problems"].items():
        path = tmp_path_factory.mktemp("oracle") / f"{name}.json"
        path.write_text(json.dumps(doc))
        out[name] = (*problem_operators(doc), load_problem(str(path))[1])
    return out


@pytest.fixture(scope="module")
def oracle(problems):
    """(problem, A, B) -> (exact report fields, n, scale as the program computes it)."""
    out = {}
    for key in {key for key, _ in report_cases()}:
        name, a, b = key
        phi, exact_ops, observables = problems[name]
        out[key] = (
            report_fields(exact_ops[a], exact_ops[b], phi),
            observables[a].dim,
            max(observables[a].scale, observables[b].scale),
        )
    return out


def bound_units(value, exact, n: int, scale: float, degree: int) -> float:
    """|value - exact| / (n eps scale**degree)."""
    with mp.workdps(DIGITS):
        return float(abs(mp.mpf(value) - exact)) / (n * EPS * scale**degree)


def errors_in_bound_units(oracle, key, fields) -> dict:
    """|value - exact| / (n eps scale**k) for each given report field."""
    exact, n, scale = oracle[key]
    return {
        name: bound_units(value, exact[name], n, scale, DEGREE[name])
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


@pytest.mark.parametrize("name, case", params(cases("evolve")))
def test_evolve_std_dev_within_oracle_bound(problems, name, case):
    argv = case["argv"]
    generator = argv[argv.index("--generator") + 1]
    _, exact_ops, observables = problems[name]
    obs = observables[generator]
    header, *rows = case["stdout"].split("\r\n")[:-1]
    assert header.split(",")[-1] == "std_dev" and rows
    errors = []
    for row in rows:
        cells = [float(cell) for cell in row.split(",")]
        phi = normalised(zip(cells[1:2 * obs.dim + 1:2], cells[2:2 * obs.dim + 2:2]))
        exact = std_dev(exact_ops[generator], phi)
        errors.append(bound_units(cells[-1], exact, obs.dim, obs.scale, STD_DEV_DEGREE))
    assert max(errors) <= 1.0, errors


def printed_minimize_fields(case) -> dict:
    out = json.loads(case["stdout"])
    cert = out["certificate"]
    assert cert["re_lambda"] == cert["lambda"][0]
    return {
        "value": out["value"],
        "lambda_re": cert["lambda"][0],
        "lambda_im": cert["lambda"][1],
        "residual": cert["residual"],
    }


@pytest.mark.parametrize("name, case", params(cases("minimize")))
def test_minimize_fields_within_oracle_bound(problems, name, case):
    _, exact_ops, observables = problems[name]
    a, b = pair(case)
    n, scale = observables[a].dim, max(observables[a].scale, observables[b].scale)
    phi = normalised(json.loads(case["stdout"])["state"])
    exact = minimize_fields(exact_ops[a], exact_ops[b], phi, CERT_TOL * scale)
    errors = {
        field: bound_units(value, exact[field], n, scale, MINIMIZE_DEGREE[field])
        for field, value in printed_minimize_fields(case).items()
    }
    assert max(errors.values()) <= 1.0, errors


@pytest.mark.parametrize("name, case", params(cases("minimize")))
def test_minimize_certificate_reproduced_at_printed_state(problems, name, case):
    # The printed state round-trips exactly, so the one certificate definition
    # recomputed there must give the printed certificate bit for bit.
    out = json.loads(case["stdout"])
    observables = problems[name][2]
    a, b = pair(case)
    state = State([complex(re, im) for re, im in out["state"]])
    assert minimal_condition(observables[a], observables[b], state).to_dict() == out["certificate"]


@pytest.mark.parametrize("name, case", params(cases("minimize")))
def test_minimize_trace_strictly_decreases_to_the_value(name, case):
    # The trace depends on the path taken, so its digits are not checked
    # against the oracle: only that each accepted step lowered the product
    # and that the last entry is the printed value.
    out = json.loads(case["stdout"])
    trace = out["objective_trace"]
    assert len(trace) >= 1
    assert all(later < earlier for earlier, later in zip(trace, trace[1:]))
    assert trace[-1] == out["value"]
