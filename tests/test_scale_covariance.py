"""Exact scale covariance through cli.main: a power of two in, the same power out.

Multiplying an observable by 2**k is exact in floating point, and so is
every sum, product and square root of values so scaled, barring under- and
overflow (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
sec. 2).  So with A scaled by 2**s and B by 2**t, each `report` field of
degree (i, j) in A's and B's scale must print 2**(s i + t j) times the
field at s = t = 0, exactly, and `distances` and `selftest --input`, which
print angles and a verdict, the same bytes, with the same exit codes.

`minimize` is not covered: its scale floor of 1, its gradient test and
minimal_condition's eigenstate shortcut are not yet homogeneous in the
scale, and at grid L = 40 * 2**-27, hbar = 2**-112 it certifies a state
nine times above the bound.  `evolve` on a generator scaled by 2**s, with
--t-max scaled by 2**-s, must print the same amplitudes' bytes, and t,
fs_speed and std_dev scaled by 2**-s, 2**s and 2**s exactly: here on dense
generators, and on grid p in tests/test_cli.py::TestEvolve::test_scale_covariant.
"""

import contextlib
import io
import json
import math
import sys

import numpy as np
import pytest
from mpmath import mp

from statesphere import Grid, gaussian
from statesphere.cli import main

from oracle import DIGITS, problem_operators, report_fields

EPS = np.finfo(float).eps

# Each report field's degree in A's scale and in B's (README, oracle section).
DEGREES = {
    "delta_a": (1, 0),
    "delta_b": (0, 1),
    "area": (1, 1),
    "metric_term": (1, 1),
    "commutator_half": (1, 1),
    "anticommutator_half": (1, 1),
    "identity_residual": (2, 2),
    "theta": (0, 0),
    "robertson_slack": (1, 1),
    "schrodinger_slack": (2, 2),
    "area_bound_slack": (1, 1),
}
SHIFTS = [(120, 120), (-120, -120), (120, -120), (-120, 120), (37, -91), (-1, 0)]


def run(argv) -> tuple:
    """(exit code, stdout) of cli.main(argv), run in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv)
    return rc, out.getvalue()


def pairs(values) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(values, dtype=complex).ravel()]


def scaled(m: np.ndarray, k: int) -> list:
    """The rows of m * 2**k as [re, im] pairs; exact, part by part."""
    return [pairs(row) for row in np.ldexp(m.real, k) + 1j * np.ldexp(m.imag, k)]


def is_normal(value: float, k: int) -> bool:
    """Whether value * 2**k, exactly, is a nonzero normal double."""
    return value != 0.0 and math.frexp(value)[1] - 1 + k >= sys.float_info.min_exp - 1


def dense_pair(seed: int, n: int, exponents=(0, 0)) -> tuple:
    """A state and two Hermitian matrices with largest entries 2**ea and 2**eb."""
    rng = np.random.default_rng([seed, n])
    mats = []
    for e in exponents:
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = 0.5 * (m + m.conj().T)
        mats.append(np.ldexp(1.0, e) * (h / np.abs(h).max()))
    phi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return phi / np.linalg.norm(phi), *mats


def dense_outputs(path, phi, a, b, s, t) -> dict:
    path.write_text(json.dumps({
        "dim": phi.size,
        "state": pairs(phi),
        "observables": {"a": scaled(a, s), "b": scaled(b, t)},
    }))
    return {
        "report": run(["report", "--input", str(path), "--pair", "a", "b"]),
        "distances": run(["distances", "--input", str(path), "--pair", "a", "b"]),
        "selftest": run(["selftest", "--input", str(path)]),
    }


def assert_report_scales(got, base, s, t, exact_only=False) -> None:
    """Each field of `got` is the base field times 2**(s i + t j), exactly.

    With exact_only, a degree-4 field whose exact value is not a normal
    double (it is rounded or flushed to 0 on output) is skipped.
    """
    assert got[0] == base[0] == 0
    got, base = json.loads(got[1]), json.loads(base[1])
    assert list(got) == list(DEGREES)
    for name, (i, j) in DEGREES.items():
        k = s * i + t * j
        if exact_only and i + j == 4 and not is_normal(base[name], k):
            continue
        assert got[name] == math.ldexp(base[name], k), (name, got[name], base[name], k)


@pytest.mark.parametrize("seed, n", [(1, 2), (2, 3), (3, 5), (4, 8)])
def test_dense_pairs_scale_exactly(tmp_path, seed, n):
    # largest entries from 2**-60 to 2**60, shifted by up to 2**120 either way
    exponents = np.random.default_rng(seed).integers(-60, 61, 2).tolist()
    phi, a, b = dense_pair(seed, n, exponents)
    base = dense_outputs(tmp_path / "pair.json", phi, a, b, 0, 0)
    for s, t in SHIFTS:
        got = dense_outputs(tmp_path / "pair.json", phi, a, b, s, t)
        assert_report_scales(got["report"], base["report"], s, t)
        assert got["distances"] == base["distances"]
        assert got["selftest"] == base["selftest"]
        assert got["distances"][0] == got["selftest"][0] == 0


@pytest.mark.parametrize("seed, n", [(1, 2), (2, 3), (3, 5), (4, 8), (5, 16), (6, 32)])
def test_evolve_on_dense_generators_scales_exactly(tmp_path, seed, n):
    exponent = int(np.random.default_rng(seed).integers(-60, 61))
    phi, a = dense_pair(seed, n, (exponent,))
    path = tmp_path / "generator.json"

    def rows(s):
        path.write_text(json.dumps({"dim": n, "state": pairs(phi), "observables": {"a": scaled(a, s)}}))
        t_max = math.ldexp(3.0, -exponent - s)
        rc, out = run(["evolve", "--input", str(path), "--generator", "a",
                       "--t-max", repr(t_max), "--steps", "5"])
        assert rc == 0
        return [row.split(",") for row in out.split("\r\n")[1:-1]]

    base = rows(0)
    assert len(base) == 5
    for s in sorted({shift for pair in SHIFTS for shift in pair} - {0}):
        got = rows(s)
        assert len(got) == len(base)
        for row, ref in zip(got, base):
            assert row[1:-2] == ref[1:-2], s
            assert float(row[0]) == math.ldexp(float(ref[0]), -s)
            assert [float(cell) for cell in row[-2:]] == [math.ldexp(float(cell), s) for cell in ref[-2:]]


@pytest.mark.parametrize("s, t", [(-300, -300), (-500, -500), (-500, 0), (0, -300)])
@pytest.mark.parametrize("seed, n", [(0, 4), (5, 16)])
def test_report_where_squares_underflow(tmp_path, seed, n, s, t):
    # the squares of fields of size 2**-300 underflow; the report lifts the
    # fields by a power of two first, so it still scales exactly
    phi, a, b = dense_pair(seed, n)
    base = dense_outputs(tmp_path / "pair.json", phi, a, b, 0, 0)
    got = dense_outputs(tmp_path / "pair.json", phi, a, b, s, t)
    assert_report_scales(got["report"], base["report"], s, t, exact_only=True)
    report = json.loads(got["report"][1])
    assert report["area"] > 0 and report["area_bound_slack"] >= 0


@pytest.mark.parametrize("a, h", [(-27, -112), (20, 30), (-3, -3), (40, -60), (120, 120), (-60, -120)])
def test_grid_units_scale_exactly(tmp_path, a, h):
    # L = 40 * 2**a and hbar = 2**h scale x by 2**a and p by 2**(h - a)
    g = Grid(64, 40.0)
    v = gaussian(g, -6.0, 0.5, 1.2).amplitudes + 0.7j * gaussian(g, 5.0, -0.3, 1.4).amplitudes
    state = pairs(v / np.linalg.norm(v))
    path = tmp_path / "grid.json"

    def outputs(length, hbar):
        path.write_text(json.dumps({"dim": 64, "state": state,
                                    "grid": {"n": 64, "length": length, "hbar": hbar}}))
        return [
            run(["report", "--input", str(path), "--pair", "x", "p"]),
            run(["distances", "--input", str(path), "--pair", "x", "p"]),
            run(["selftest", "--input", str(path)]),
        ]

    base = outputs(40.0, 1.0)
    got = outputs(40.0 * 2.0**a, 2.0**h)
    assert_report_scales(got[0], base[0], a, h - a)
    assert got[1:] == base[1:]
    assert got[1][0] == got[2][0] == 0


def test_small_deviation_is_not_lost(tmp_path):
    # A = diag(1e-300, -1e-300) at (1, 1)/sqrt(2): Delta A = 1e-300, whose
    # square underflows; evolve's std_dev column must match its fs_speed
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({
        "dim": 2,
        "state": pairs(np.array([1.0, 1.0]) / math.sqrt(2.0)),
        "observables": {"a": scaled(np.diag([1e-300, -1e-300]), 0)},
    }))
    rc, out = run(["report", "--input", str(path), "--pair", "a", "a"])
    assert rc == 0 and json.loads(out)["delta_a"] == 1e-300
    rc, out = run(["evolve", "--input", str(path), "--generator", "a", "--t-max", "1", "--steps", "4"])
    rows = [line.split(",") for line in out.split("\r\n")[1:-1]]
    assert rc == 0 and len(rows) == 4
    for row in rows:
        assert float(row[-1]) == 1e-300
        assert float(row[-2]) == pytest.approx(1e-300, rel=1e-9)


# Delta a is 1e-250, so its field is lifted by about 2**830, while a's and
# b's other entries are of size 1e70: the second products' components
# orthogonal to phi are of size 1e70 * 2**830 unless they are scaled down.
FAR_LIFT = {
    "dim": 2,
    "state": [[1.0, 0.0], [1e-320, 0.0]],
    "observables": {
        "a": [[[1e70, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
        "b": [[[0.0, 0.0], [1e70, 0.0]], [[1e70, 0.0], [0.0, 0.0]]],
    },
}


@pytest.mark.parametrize("pair", [("a", "b"), ("a", "a"), ("b", "a")])
def test_report_lifted_far_beside_a_large_scale(tmp_path, pair):
    # every field within tests/test_oracle.py's bound n eps scale**degree of
    # the oracle, and the deviations, which the lift keeps, within n eps of
    # their own size
    path = tmp_path / "far.json"
    path.write_text(json.dumps(FAR_LIFT))
    rc, out = run(["report", "--input", str(path), "--pair", *pair])
    assert rc == 0
    fields = json.loads(out)
    assert list(fields) == list(DEGREES)
    phi, operators = problem_operators(FAR_LIFT)
    exact = report_fields(operators[pair[0]], operators[pair[1]], phi)
    with mp.workdps(DIGITS):
        errors = {name: abs(mp.mpf(value) - exact[name]) for name, value in fields.items()}
        for name, error in errors.items():
            assert error <= 2 * EPS * 1e70 ** sum(DEGREES[name]), (name, fields[name], exact[name])
        for name in ("delta_a", "delta_b"):
            assert errors[name] <= 2 * EPS * exact[name], (name, fields[name], exact[name])


def test_fs_speed_stays_within_its_rounding_floor(tmp_path):
    # A speed of 1e-250 is far below the central difference's rounding floor
    # eps / dt = 1e4 eps (lambda_max - lambda_min) = 2.2e58; fs_speed may
    # print anything up to that floor, but no further from std_dev
    path = tmp_path / "far.json"
    path.write_text(json.dumps(FAR_LIFT))
    rc, out = run(["evolve", "--input", str(path), "--generator", "a", "--t-max", "1", "--steps", "3"])
    rows = [[float(cell) for cell in line.split(",")] for line in out.split("\r\n")[1:-1]]
    assert rc == 0 and len(rows) == 3
    for row in rows:
        assert row[-1] == pytest.approx(1e-250, rel=1e-4)
        assert abs(row[-2] - row[-1]) <= 1e4 * EPS * 1e70
