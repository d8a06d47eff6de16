"""The printed digits of the golden CLI cases, checked against a 50-digit oracle.

Every field of every `report` case in golden_cli.json must lie within
n * eps * scale**k of the exact value computed by oracle.report_fields, where
scale = max(A.scale, B.scale) and k is the field's degree in the operators
(0 makes theta's bound absolute).  So must evolve's std_dev column (k = 1,
scale of the generator) and minimize's value (k = 4) and certificate
(lambda and residual, k = 0), each evaluated at the printed state.

Every field of every `distances` case must lie within n * eps * metric scale
of the exact value.  Each amplitude evolve prints at time t must lie within
n * eps * (1 + scale * |t|) of the exact e^{-iAt} phi: an eigenvalue error of
n * eps * scale turns into a phase error t times as large.  Its fs_speed,
a central difference over 2 dt, must lie within n * eps / dt of the same
difference taken exactly at the printed state, since the rounding error of
either endpoint, about n * eps, is divided by dt.

A change may regenerate golden report values by a rule that depends on its
cause.  Each regeneration is recorded in REGENERATIONS with the values it
replaced.  A route change (new arithmetic, same float64 operators) must
not grow the largest error, in units of each value's own bound, over the
values it moves.  An operator change (new float64 entries of one operator)
must not grow that operator's largest entry error against the exact one,
in units of eps * scale.  test_regenerations_moved_closer keeps the rule
checked, each entry at the state right after it landed.
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
    DIGITS, default_dt, distances_fields, entry_error, flowed, fs_speed, minimize_fields, normalised,
    problem_eigensystems, problem_operators, report_fields, std_dev,
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

# (problem, A, B) -> the regenerations of its report cases, in the order
# landed.  Each names its cause and holds the golden values it replaced.
# "route": new arithmetic on the same float64 operators.  "operator": new
# float64 entries of the named operator, by the same route; entry_error is
# the replaced operator's largest entry error against the exact one, in
# units of eps * its scale.
REGENERATIONS = {
    ("grid16", "x", "p"): [
        {
            # report brackets from the products A_c(B_c phi) and B_c(A_c phi)
            # instead of the matrices A_c B_c and B_c A_c
            "cause": "route",
            "replaced": {
                "commutator_half": 0.50000007257650259,
                "anticommutator_half": 6.4340818134792088e-07,
                "robertson_slack": 3.1600986496460592e-06,
                "schrodinger_slack": 3.1601086805946758e-06,
                "area_bound_slack": 3.1600982357549157e-06,
            },
        },
        {
            # p as the circulant from one inverse FFT of hbar k instead of
            # the product F^dagger diag(hbar k) F
            "cause": "operator",
            "operator": "p",
            "entry_error": 15.9,
            "replaced": {
                "metric_term": -6.434081812750625e-07,
                "commutator_half": 0.50000007257650247,
                "anticommutator_half": 6.4340818129934862e-07,
                "identity_residual": -8.2944151425307341e-17,
                "robertson_slack": 3.1600986497570815e-06,
                "schrodinger_slack": 3.1601086807056985e-06,
                "area_bound_slack": 3.160098235865938e-06,
            },
        },
        {
            # centred fields as A phi - <A> phi through each operator's
            # matvec (p by one FFT pair) instead of (A - <A> I) phi from a
            # centred copy of the matrix
            "cause": "route",
            "replaced": {
                "metric_term": -6.4340818127853194e-07,
                "commutator_half": 0.5000000725765027,
                "anticommutator_half": 6.434081812750625e-07,
                "identity_residual": -8.2944155889881411e-17,
                "theta": 1.5707976136029396,
                "robertson_slack": 3.1600986495350369e-06,
                "schrodinger_slack": 3.1601086804836539e-06,
                "area_bound_slack": 3.1600982356438934e-06,
            },
        },
    ],
    ("dense4", "a", "b"): [
        {
            # centred fields as A phi - <A> phi instead of (A - <A> I) phi
            # from a centred copy of the matrix
            "cause": "route",
            "replaced": {
                "metric_term": -4.5374050073000198,
                "commutator_half": 4.2135161092288493,
                "identity_residual": 3.5527136788005009e-15,
                "robertson_slack": 6.4929972059950982,
                "area_bound_slack": 5.4839775447415606,
            },
        },
    ],
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
def eigensystems():
    """problem -> observable name -> exact (eigenvalues, eigenvectors)."""
    return {name: problem_eigensystems(doc) for name, doc in GOLDEN["problems"].items()}


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


def operator_error(problems, name: str, op: str) -> float:
    """The largest entry error of an operator as the program builds it, in units of eps * scale."""
    _, exact_ops, observables = problems[name]
    return entry_error(exact_ops[op], observables[op].matrix) / (EPS * observables[op].scale)


@pytest.mark.parametrize("key", sorted(REGENERATIONS), ids=" ".join)
def test_regenerations_moved_closer(problems, oracle, key):
    """Each regeneration, judged at the state right after it landed.

    That state is today's with the replaced values of every later entry put
    back, latest first.  A route entry: over the values it moved, the
    largest error in bound units must not have grown.  An operator entry:
    the operator's largest entry error must not have grown.
    """
    cases = [case for k, case in report_cases() if k == key]
    assert cases
    for case in cases:
        after = printed_fields(case)
        operators = {}  # operator -> its entry error right after the entry at hand
        for entry in reversed(REGENERATIONS[key]):
            replaced = entry["replaced"]
            if entry["cause"] == "route":
                now = errors_in_bound_units(oracle, key, {k: after[k] for k in replaced})
                before = errors_in_bound_units(oracle, key, replaced)
                assert max(now.values()) <= max(before.values()), (now, before)
            else:
                op = entry["operator"]
                now = operators[op] if op in operators else operator_error(problems, key[0], op)
                assert now <= entry["entry_error"], (op, now, entry["entry_error"])
                operators[op] = entry["entry_error"]
            after.update(replaced)


@pytest.mark.parametrize("name, case", params(cases("distances")))
def test_distances_within_oracle_bound(problems, eigensystems, name, case):
    argv = case["argv"]
    metric_scale = float(argv[argv.index("--metric-scale") + 1]) if "--metric-scale" in argv else 1.0
    a, b = pair(case)
    phi, _, observables = problems[name]
    exact = distances_fields(eigensystems[name][a], eigensystems[name][b], phi, metric_scale)
    fields = printed_fields(case)
    assert list(fields) == list(exact)
    errors = {
        field: bound_units(value, exact[field], observables[a].dim, metric_scale, 1)
        for field, value in fields.items()
    }
    assert max(errors.values()) <= 1.0, errors


def evolve_rows(case, n: int):
    """(t, amplitudes as [re, im] pairs, fs_speed, std_dev) for each printed row."""
    header, *rows = case["stdout"].split("\r\n")[:-1]
    assert header.split(",")[-2:] == ["fs_speed", "std_dev"] and rows
    for row in rows:
        cells = [float(cell) for cell in row.split(",")]
        yield cells[0], list(zip(cells[1:2 * n + 1:2], cells[2:2 * n + 2:2])), cells[-2], cells[-1]


def generator(case) -> str:
    return case["argv"][case["argv"].index("--generator") + 1]


@pytest.mark.parametrize("name, case", params(cases("evolve")))
def test_evolve_std_dev_within_oracle_bound(problems, name, case):
    _, exact_ops, observables = problems[name]
    obs = observables[generator(case)]
    errors = []
    for _, amplitudes, _, printed in evolve_rows(case, obs.dim):
        exact = std_dev(exact_ops[generator(case)], normalised(amplitudes))
        errors.append(bound_units(printed, exact, obs.dim, obs.scale, STD_DEV_DEGREE))
    assert max(errors) <= 1.0, errors


@pytest.mark.parametrize("name, case", params(cases("evolve")))
def test_evolve_amplitudes_within_oracle_bound(problems, eigensystems, name, case):
    phi0, _, observables = problems[name]
    obs = observables[generator(case)]
    eig = eigensystems[name][generator(case)]
    errors = []
    for t, amplitudes, _, _ in evolve_rows(case, obs.dim):
        with mp.workdps(DIGITS):
            exact = flowed(eig, phi0, mp.mpf(t))
            error = max(abs(mp.mpc(*re_im) - z) for re_im, z in zip(amplitudes, exact))
        errors.append(float(error) / (obs.dim * EPS * (1 + obs.scale * abs(t))))
    assert max(errors) <= 1.0, errors


@pytest.mark.parametrize("name, case", params(cases("evolve")))
def test_evolve_fs_speed_within_oracle_bound(problems, eigensystems, name, case):
    n = problems[name][2][generator(case)].dim
    eig = eigensystems[name][generator(case)]
    dt = default_dt(eig)
    errors = []
    for _, amplitudes, printed, _ in evolve_rows(case, n):
        exact = fs_speed(eig, normalised(amplitudes), dt)
        errors.append(bound_units(printed, exact, n, 1 / float(dt), 1))
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
