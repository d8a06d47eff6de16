import dataclasses
import json
import os
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from statesphere import Grid, cli, gaussian, relations_report
from statesphere.cli import main
from statesphere.uncertainty import UncertaintyReport

GOLDEN = Path(__file__).with_name("golden_cli.json")


def as_pairs(vec):
    return [[float(z.real), float(z.imag)] for z in np.asarray(vec, dtype=complex)]


def as_matrix(mat):
    return [
        [[float(z.real), float(z.imag)] for z in row]
        for row in np.asarray(mat, dtype=complex)
    ]


@pytest.fixture
def pauli_file(tmp_path):
    problem = {
        "dim": 2,
        "state": as_pairs([1, 0]),
        "observables": {
            "sx": as_matrix([[0, 1], [1, 0]]),
            "sy": as_matrix([[0, -1j], [1j, 0]]),
            "sz": as_matrix([[1, 0], [0, -1]]),
        },
        "options": {"tol": 1e-10, "metric_scale": 1.0, "seed": 0},
    }
    path = tmp_path / "pauli.json"
    path.write_text(json.dumps(problem))
    return str(path)


@pytest.fixture
def plus_state_file(tmp_path):
    problem = {
        "dim": 2,
        "state": as_pairs(np.array([1, 1]) / np.sqrt(2)),
        "observables": {"sz": as_matrix([[1, 0], [0, -1]])},
    }
    path = tmp_path / "plus.json"
    path.write_text(json.dumps(problem))
    return str(path)


@pytest.fixture
def grid_file(tmp_path):
    g = Grid(64, 40.0)
    st = gaussian(g, 0.0, 0.0, 1.3)
    problem = {
        "dim": 64,
        "state": as_pairs(st.amplitudes),
        "observables": {},
        "grid": {"n": 64, "length": 40.0, "hbar": 1.0},
    }
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(problem))
    return str(path)


class TestReport:
    def test_pauli_pair_json(self, pauli_file, capsys):
        rc = main(["report", "--input", pauli_file, "--pair", "sx", "sy"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["delta_a"] == pytest.approx(1.0)
        assert out["delta_b"] == pytest.approx(1.0)
        assert out["area"] == pytest.approx(1.0)
        assert out["theta"] == pytest.approx(np.pi / 2)

    def test_self_pair(self, pauli_file, capsys):
        rc = main(["report", "--input", pauli_file, "--pair", "sz", "sz"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["area"] == pytest.approx(0.0, abs=1e-12)
        assert out["theta"] == 0.0

    def test_csv_format(self, pauli_file, capsys):
        rc = main(["report", "--input", pauli_file, "--pair", "sx", "sy", "--format", "csv"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("delta_a,delta_b,area,")
        assert len(lines) == 2

    def test_non_hermitian_exit_2(self, tmp_path, capsys):
        problem = {
            "dim": 2,
            "state": as_pairs([1, 0]),
            "observables": {"bad": as_matrix([[0, 1], [0, 0]])},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(problem))
        rc = main(["report", "--input", str(path), "--pair", "bad", "bad"])
        assert rc == 2
        assert "hermitian" in capsys.readouterr().err.lower()

    def test_missing_file_exit_1(self, tmp_path):
        assert main(["report", "--input", str(tmp_path / "no.json"), "--pair", "a", "b"]) == 1

    def test_parse_error_exit_1(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        assert main(["report", "--input", str(path), "--pair", "a", "b"]) == 1

    def test_dimension_mismatch_exit_3(self, tmp_path):
        problem = {
            "dim": 2,
            "state": as_pairs([1, 0]),
            "observables": {"m": as_matrix(np.eye(3))},
        }
        path = tmp_path / "dim.json"
        path.write_text(json.dumps(problem))
        assert main(["report", "--input", str(path), "--pair", "m", "m"]) == 3

    def test_unknown_name_exit_2(self, pauli_file):
        assert main(["report", "--input", pauli_file, "--pair", "sx", "nope"]) == 2

    def test_byte_identical_output(self, pauli_file, capsys):
        main(["report", "--input", pauli_file, "--pair", "sx", "sy"])
        first = capsys.readouterr().out
        main(["report", "--input", pauli_file, "--pair", "sx", "sy"])
        assert capsys.readouterr().out == first


class TestEvolve:
    def test_unit_speed_csv(self, plus_state_file, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        rc = main([
            "evolve", "--input", plus_state_file, "--generator", "sz",
            "--t-max", str(np.pi), "--steps", "64", "--out", str(out),
        ])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 65
        header = lines[0].split(",")
        speed_col = header.index("fs_speed")
        for line in lines[1:]:
            assert float(line.split(",")[speed_col]) == pytest.approx(1.0, abs=1e-6)

    def test_out_file_matches_stdout(self, grid_file, tmp_path, capsys):
        argv = ["evolve", "--input", grid_file, "--generator", "p", "--t-max", "2", "--steps", "16"]
        assert main(argv) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "trace.csv"
        assert main([*argv, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == printed.encode()
        assert printed.count("\r\n") == 17

    def test_eigenstate_zero_speed(self, pauli_file, capsys):
        rc = main([
            "evolve", "--input", pauli_file, "--generator", "sz",
            "--t-max", "1.0", "--steps", "8",
        ])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        speed_col = lines[0].split(",").index("fs_speed")
        for line in lines[1:]:
            assert abs(float(line.split(",")[speed_col])) <= 1e-8

    def test_steps_validation(self, pauli_file):
        rc = main([
            "evolve", "--input", pauli_file, "--generator", "sz",
            "--t-max", "1.0", "--steps", "1",
        ])
        assert rc == 2
        with pytest.raises(SystemExit) as exc:
            main([
                "evolve", "--input", pauli_file, "--generator", "sz",
                "--t-max", "1.0", "--steps", "8", "--format", "csv",
            ])
        assert exc.value.code == 2

    @pytest.mark.parametrize("a, h", [(-27, -112), (20, 30), (-3, -3), (40, -60)])
    def test_scale_covariant(self, tmp_path, capsys, a, h):
        # L = 40 * 2^a and hbar = 2^h scale p by exactly 2^(h - a), and every
        # eigenvalue times a time scaled by 2^(a - h) is the same float; so
        # the amplitudes print the same bytes and t, fs_speed and std_dev
        # scale exactly (Higham, Accuracy and Stability of Numerical
        # Algorithms, 2nd ed., sec. 2: power-of-two scaling is exact).
        g = Grid(64, 40.0)
        v = gaussian(g, -6.0, 0.5, 1.2).amplitudes + 0.7j * gaussian(g, 5.0, -0.3, 1.4).amplitudes
        state = as_pairs(v / np.linalg.norm(v))

        def rows(length, hbar, t_max):
            path = tmp_path / "two-packets.json"
            path.write_text(json.dumps({"dim": 64, "state": state,
                                        "grid": {"n": 64, "length": length, "hbar": hbar}}))
            argv = ["evolve", "--input", str(path), "--generator", "p",
                    "--t-max", repr(t_max), "--steps", "16"]
            assert main(argv) == 0
            return [row.split(",") for row in capsys.readouterr().out.split("\r\n")[1:-1]]

        base = rows(40.0, 1.0, 2.0)
        scaled = rows(40.0 * 2.0**a, 2.0**h, 2.0 * 2.0 ** (a - h))
        assert len(scaled) == len(base) == 16
        for row, ref in zip(scaled, base):
            assert row[1:-2] == ref[1:-2]
            assert float(row[0]) == np.ldexp(float(ref[0]), a - h)
            for cell, ref_cell in zip(row[-2:], ref[-2:]):
                assert float(cell) == np.ldexp(float(ref_cell), h - a)
            assert float(ref[-2]) == pytest.approx(float(ref[-1]), rel=1e-9)


class TestDistances:
    def test_pauli_distances(self, pauli_file, capsys):
        rc = main(["distances", "--input", pauli_file, "--pair", "sx", "sy"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["d_a_b"] == pytest.approx(np.pi / 4)
        assert out["slack"] >= -1e-10

    def test_scale_two_spin_bound(self, pauli_file, capsys):
        rc = main([
            "distances", "--input", pauli_file, "--pair", "sx", "sy",
            "--metric-scale", "2",
        ])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["d_phi_a"] + out["d_phi_b"] >= np.pi / 2 - 1e-9

    def test_shared_eigenvector_zero_distance(self, pauli_file, capsys):
        rc = main(["distances", "--input", pauli_file, "--pair", "sz", "sz"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["d_a_b"] <= 4 * 2 * np.finfo(float).eps

    def test_rays_inside_a_degenerate_eigenspace_print_zero(self, tmp_path, capsys):
        # sigma_x's eigenvectors lie in the zero matrix's one eigenspace
        observables = {"z": as_matrix(np.zeros((2, 2))), "b": as_matrix([[0, 1], [1, 0]])}
        problem = {"dim": 2, "state": as_pairs([1, 0]), "observables": observables}
        path = tmp_path / "zb.json"
        path.write_text(json.dumps(problem))
        assert main(["distances", "--input", str(path), "--pair", "z", "b"]) == 0
        assert '"d_a_b": 0,' in capsys.readouterr().out


class TestMinimize:
    def test_pauli_minimum(self, pauli_file, capsys):
        rc = main(["minimize", "--input", pauli_file, "--pair", "sx", "sy", "--seed", "0"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["value"] <= 1e-8
        assert out["seed"] == 0

    def test_grid_pair(self, grid_file, capsys):
        rc = main([
            "minimize", "--input", grid_file, "--pair", "p", "x",
            "--restarts", "1", "--max-iter", "200",
        ])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["value"] <= 0.25 + 1e-3
        assert out["certificate"]["is_minimal"] is True

    def test_zero_restarts_exit_2(self, pauli_file):
        assert main(["minimize", "--input", pauli_file, "--pair", "sx", "sy", "--restarts", "0"]) == 2


class TestSelftest:
    def test_random_suite(self, capsys):
        rc = main(["selftest", "--n-random", "50", "--seed", "42"])
        assert rc == 0
        assert "verified" in capsys.readouterr().out

    def test_zero_count(self, capsys):
        rc = main(["selftest", "--n-random", "0"])
        assert rc == 0
        assert "0 random instances" in capsys.readouterr().out

    def test_hermiticity_violation_fixture(self, tmp_path):
        problem = {
            "dim": 2,
            "state": as_pairs([1, 0]),
            "observables": {"bad": as_matrix([[0, 2], [0, 0]])},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(problem))
        assert main(["selftest", "--input", str(path)]) == 2


# Each report field one selftest check reads, with a value ten tolerances on
# the wrong side of that check.  No other check reads the field, so a failure
# can come from its check alone.
SELFTEST_PERTURBATIONS = [
    ("identity_residual", lambda v: v + 1e-9),
    ("robertson_slack", lambda v: -1e-9),
    ("area_bound_slack", lambda v: -1e-9),
    ("anticommutator_half", lambda v: v + 1e-9),
    ("commutator_half", lambda v: v + 1e-9),
    ("delta_a", lambda v: v - 1e-9),
]


@pytest.mark.parametrize("field, perturb", SELFTEST_PERTURBATIONS,
                         ids=[field for field, _ in SELFTEST_PERTURBATIONS])
def test_each_selftest_check_fires(field, perturb, monkeypatch, capsys):
    argv = ["selftest", "--n-random", "5", "--seed", "3"]
    assert main(argv) == 0
    capsys.readouterr()

    def perturbed(*args):
        rep = relations_report(*args)
        return replace(rep, **{field: perturb(getattr(rep, field))})

    monkeypatch.setattr(cli, "relations_report", perturbed)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: selftest invariant violated at instance 0 (n=2)\n"


def test_grid_file_defining_p_builds_no_momentum_op(grid_file, monkeypatch):
    doc = json.loads(Path(grid_file).read_text())
    own_p = np.diag(np.arange(64.0))
    doc["observables"] = {"p": as_matrix(own_p)}
    Path(grid_file).write_text(json.dumps(doc))
    calls, momentum_op = [0], cli.momentum_op

    def counted(grid):
        calls[0] += 1
        return momentum_op(grid)

    monkeypatch.setattr(cli, "momentum_op", counted)
    _, observables = cli.load_problem(grid_file)
    assert calls[0] == 0
    assert np.array_equal(observables["p"].matrix, own_p)
    assert list(observables) == ["p", "x"]


def count_builds(monkeypatch, name):
    """Count calls of the grid operator builder cli.<name>."""
    calls, build = [0], getattr(cli, name)

    def counted(grid):
        calls[0] += 1
        return build(grid)

    monkeypatch.setattr(cli, name, counted)
    return calls


@pytest.mark.parametrize("argv, unused", [
    pytest.param(["report", "--pair", "x", "x"], "momentum_op", id="report-x-x"),
    pytest.param(["distances", "--pair", "x", "x"], "momentum_op", id="distances-x-x"),
    pytest.param(["evolve", "--generator", "p", "--t-max", "1", "--steps", "2"], "position_op",
                 id="evolve-p"),
    pytest.param(["minimize", "--pair", "p", "p", "--restarts", "1", "--max-iter", "1"], "position_op",
                 id="minimize-p-p"),
])
def test_command_builds_only_the_operators_it_names(grid_file, monkeypatch, capsys, argv, unused):
    unused_calls = count_builds(monkeypatch, unused)
    used_calls = count_builds(monkeypatch, ({"momentum_op", "position_op"} - {unused}).pop())
    assert cli.main([argv[0], "--input", grid_file, *argv[1:]]) == 0
    assert (unused_calls[0], used_calls[0]) == (0, 1)


def test_selftest_input_builds_both_grid_operators(grid_file, monkeypatch, capsys):
    calls = [count_builds(monkeypatch, name) for name in ("position_op", "momentum_op")]
    assert cli.main(["selftest", "--input", grid_file]) == 0
    assert [c[0] for c in calls] == [1, 1]


def test_unknown_generator_builds_no_grid_operator(grid_file, monkeypatch, capsys):
    calls = [count_builds(monkeypatch, name) for name in ("position_op", "momentum_op")]
    argv = ["evolve", "--input", grid_file, "--generator", "nope", "--t-max", "1", "--steps", "2"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "error: unknown observable 'nope'\n"
    assert [c[0] for c in calls] == [0, 0]


def test_load_problem_builds_a_repeated_name_once(grid_file, monkeypatch):
    calls = [count_builds(monkeypatch, name) for name in ("position_op", "momentum_op")]
    _, observables = cli.load_problem(grid_file, names=["p", "p"])
    assert list(observables) == ["p"]
    assert [c[0] for c in calls] == [0, 1]


@pytest.mark.parametrize("problem, argv, eigh_calls", [
    pytest.param("grid16", ["distances", "--pair", "x", "p"], 0, id="grid-distances"),
    pytest.param("grid16", ["evolve", "--generator", "p", "--t-max", "1", "--steps", "4"], 0,
                 id="grid-evolve-p"),
    pytest.param("grid16", ["evolve", "--generator", "x", "--t-max", "1", "--steps", "4"], 0,
                 id="grid-evolve-x"),
    pytest.param("dense4", ["distances", "--pair", "a", "b"], 2, id="dense-distances"),
    pytest.param("dense4", ["evolve", "--generator", "b", "--t-max", "1", "--steps", "4"], 1,
                 id="dense-evolve"),
])
def test_eigh_runs_only_for_file_observables(tmp_path, monkeypatch, capsys, problem, argv, eigh_calls):
    # A grid's x and p have closed-form spectra; observables from the file
    # are decomposed once each by np.linalg.eigh.
    path = tmp_path / f"{problem}.json"
    path.write_text(json.dumps(json.loads(GOLDEN.read_text())["problems"][problem]))
    calls, eigh = [0], np.linalg.eigh

    def counted(*args, **kwargs):
        calls[0] += 1
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    assert main([argv[0], "--input", str(path), *argv[1:]]) == 0
    assert calls[0] == eigh_calls


@pytest.mark.parametrize("problem, pair, scale, code", [
    pytest.param("grid16", ["x", "p"], "1.5e308", 2, id="grid16-overflows"),
    pytest.param("dense4", ["a", "b"], "1e308", 0, id="dense4-finite"),
])
def test_metric_scale_overflow_exits_2(tmp_path, capsys, problem, pair, scale, code):
    # a scale near the largest double may overflow a distance or the slack:
    # an error, never an inf or a nan on stdout
    path = tmp_path / f"{problem}.json"
    path.write_text(json.dumps(json.loads(GOLDEN.read_text())["problems"][problem]))
    rc = main(["distances", "--input", str(path), "--pair", *pair, "--metric-scale", scale])
    out, err = capsys.readouterr()
    assert rc == code
    if code == 0:
        assert err == "" and all(np.isfinite(list(json.loads(out).values())))
    else:
        assert out == "" and err.startswith("error: ") and "overflows" in err


ALLOCATION = "Unable to allocate 256. GiB for an array"


@pytest.mark.parametrize("error, message", [
    (MemoryError(ALLOCATION), ALLOCATION),
    (MemoryError(), "MemoryError"),
])
def test_out_of_memory_exits_2(grid_file, monkeypatch, capsys, error, message):
    # a grid whose n x n matrix does not fit in memory: one error line, no traceback
    def no_memory(grid):
        raise error

    monkeypatch.setattr(cli, "position_op", no_memory)
    assert main(["report", "--input", grid_file, "--pair", "x", "p"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


def test_p_commands_run_where_an_n_by_n_matrix_would_not_fit(tmp_path, capsys):
    # at n = 2**16 one n x n complex matrix is 64 GiB; p's matrix is a view
    # of 2n entries, and evolve and report never read it
    n = 2**16
    g = Grid(n, 40.0)
    problem = {"dim": n, "state": as_pairs(gaussian(g, 0.0, 0.0, 1.3).amplitudes),
               "grid": {"n": n, "length": 40.0}}
    path = tmp_path / "large.json"
    path.write_text(json.dumps(problem))
    out = tmp_path / "trace.csv"
    argv = ["evolve", "--input", str(path), "--generator", "p", "--t-max", "1", "--steps", "2"]
    assert main([*argv, "--out", str(out)]) == 0
    header, *rows = out.read_bytes().decode().split("\r\n")[:-1]
    parts = [f"{part}_{k}" for k in range(n) for part in ("re", "im")]
    assert header.split(",") == ["t", *parts, "fs_speed", "std_dev"]
    assert len(rows) == 2 and all(len(row.split(",")) == 2 * n + 3 for row in rows)
    assert main(["report", "--input", str(path), "--pair", "p", "p"]) == 0
    fields = json.loads(capsys.readouterr().out)
    assert list(fields) == [field.name for field in dataclasses.fields(UncertaintyReport)]
    assert all(np.isfinite(list(fields.values())))
    # a Gaussian of width sigma has dp = hbar / (2 sigma)
    assert fields["delta_a"] == fields["delta_b"] == pytest.approx(1 / 2.6, abs=1e-6)


# Bytes per grid point that each command on grid p may allocate, as the
# tracemalloc peak of a warm run: the parsed file's lists of floats, about
# 130 bytes a point, and arrays of n complex numbers (for evolve's 16 steps,
# n x 16).  Measured: 232 for report and distances, about 1370 for evolve, at
# n = 2**10 to 2**16.  An n x n array of p alone is 16 n bytes a point.
P_COMMANDS = {
    "report": (["--pair", "p", "p"], 512),
    "distances": (["--pair", "p", "p"], 512),
    "evolve": (["--generator", "p", "--t-max", "1", "--steps", "16", "--out", os.devnull], 2048),
}


@pytest.mark.parametrize("command, n", [
    *((command, n) for command in P_COMMANDS for n in (2**10, 2**12, 2**14)),
    ("distances", 2**16),
])
def test_p_commands_allocate_order_n(tmp_path, monkeypatch, capsys, command, n):
    # allocation counts, not timings: an n x n array of p would break the
    # bound at every n, and an eigh of it the call count
    g = Grid(n, 40.0)
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"dim": n, "state": as_pairs(gaussian(g, 1.0, -0.5, 1.3).amplitudes),
                                "grid": {"n": n, "length": 40.0}}))
    calls = []
    for name in ("eigh", "eigvalsh"):
        def counted(*args, _solver=getattr(np.linalg, name), _name=name, **kwargs):
            calls.append(_name)
            return _solver(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    options, bytes_per_point = P_COMMANDS[command]
    argv = [command, "--input", str(path), *options]
    assert main(argv) == 0  # builds what the process caches: the parser, the CSV tables
    capsys.readouterr()
    tracemalloc.start()
    try:
        rc = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0 and calls == []
    assert peak <= bytes_per_point * n
    if command == "distances":
        assert json.loads(capsys.readouterr().out)["d_a_b"] == 0


def test_distances_on_an_si_unit_grid_are_the_closed_forms(tmp_path, capsys):
    # hbar k is below 1e-23 for every eigenvalue of p: each is still its own eigenspace
    g = Grid(64, 1e-9, hbar=1.054571817e-34)
    problem = {"dim": 64, "state": as_pairs(gaussian(g, -0.1e-9, 0.0, 0.7e-10).amplitudes),
               "grid": {"n": 64, "length": 1e-9, "hbar": 1.054571817e-34}}
    path = tmp_path / "si.json"
    path.write_text(json.dumps(problem))
    assert main(["distances", "--input", str(path), "--pair", "x", "p"]) == 0
    fields = json.loads(capsys.readouterr().out)
    v = np.array([complex(re, im) for re, im in problem["state"]])
    v /= np.linalg.norm(v)
    exact = {"d_phi_a": np.arccos(np.abs(v).max()),
             "d_phi_b": np.arccos(np.abs(np.fft.fft(v, norm="ortho")).max()),
             "d_a_b": np.arccos(1 / 8)}
    for name, value in exact.items():
        assert abs(fields[name] - value) <= 64 * np.finfo(float).eps, name


def sigma_x_problem(*missing, **fields):
    """A valid dim-2 problem with observable 'a', the given fields replaced or left out."""
    problem = {"dim": 2, "state": as_pairs([1, 0]),
               "observables": {"a": as_matrix([[0, 1], [1, 0]])}, **fields}
    for name in missing:
        del problem[name]
    return problem


REPORT = ["report", "--input", "{input}", "--pair", "a", "a"]
DISTANCES = ["distances", *REPORT[1:]]
EVOLVE = ["evolve", "--input", "{input}", "--generator", "a", "--steps", "4"]
# argv ({input} stands for the problem file), problem file contents (bytes are
# written as they are, anything else as JSON), exit code
EXIT_CODE_TABLE = [
    pytest.param(["report", "--pair", "a", "a"], None, 2, id="report-no-input"),
    pytest.param(["evolve", "--generator", "a", "--t-max", "1", "--steps", "4"], None, 2,
                 id="evolve-no-input"),
    pytest.param(["distances", "--pair", "a", "a"], None, 2, id="distances-no-input"),
    pytest.param(["minimize", "--pair", "a", "a"], None, 2, id="minimize-no-input"),
    pytest.param(["selftest", "--n-random", "-5"], None, 2, id="negative-n-random"),
    pytest.param(REPORT, sigma_x_problem(state=[1, 0]), 1, id="state-not-pairs"),
    pytest.param(REPORT, [sigma_x_problem()], 1, id="top-level-array"),
    pytest.param(REPORT, sigma_x_problem(state=[[1, 0, 0], [0, 0, 0]]), 1, id="pair-of-three"),
    pytest.param(REPORT, sigma_x_problem(state=[["1", 0], [0, 0]]), 1, id="string-entry"),
    pytest.param(REPORT, sigma_x_problem(dim=None), 1, id="dim-null"),
    pytest.param(REPORT, sigma_x_problem(dim="2"), 1, id="dim-string"),
    pytest.param(REPORT, sigma_x_problem(dim=2.7), 1, id="dim-fraction"),
    pytest.param(REPORT, sigma_x_problem(dim=True), 1, id="dim-true"),
    pytest.param(REPORT, sigma_x_problem(state=[[True, 0], [0, 0]]), 1, id="state-boolean-entry"),
    pytest.param(REPORT, sigma_x_problem(observables={"a": [[[0, 0], [True, 0]], [[1, 0], [0, 0]]]}),
                 1, id="observable-boolean-entry"),
    pytest.param(REPORT, sigma_x_problem(observables=[]), 1, id="observables-array"),
    pytest.param(REPORT, sigma_x_problem(observables={"a": as_matrix([[np.nan, 1], [1, 0]])}),
                 2, id="nan-observable"),
    pytest.param(DISTANCES,
                 sigma_x_problem(observables={"a": as_matrix([[np.inf, 1], [1, 0]])}),
                 2, id="infinite-observable"),
    pytest.param([*DISTANCES, "--metric-scale", "nan"], sigma_x_problem(), 2, id="metric-scale-nan"),
    pytest.param([*DISTANCES, "--metric-scale", "inf"], sigma_x_problem(), 2, id="metric-scale-inf"),
    pytest.param([*REPORT, "--tol", "nan"], sigma_x_problem(state=as_pairs([3, 0])), 2, id="tol-nan"),
    pytest.param([*EVOLVE, "--t-max", "nan"], sigma_x_problem(), 2, id="t-max-nan"),
    pytest.param([*EVOLVE, "--t-max", "1"],
                 sigma_x_problem(observables={"a": as_matrix([[5e-324, 0], [0, 0]])}),
                 2, id="evolve-no-finite-step"),
    pytest.param(REPORT, sigma_x_problem("dim"), 1, id="dim-missing"),
    pytest.param(REPORT, sigma_x_problem("state"), 1, id="state-missing"),
    pytest.param(REPORT, sigma_x_problem(grid={"length": 40.0}), 1, id="grid-n-missing"),
    pytest.param(REPORT, sigma_x_problem(grid={"n": 16}), 1, id="grid-length-missing"),
    pytest.param(REPORT, b'{"dim": 1e400, "state": [[1, 0], [0, 0]]}', 1, id="dim-overflows"),
    pytest.param(REPORT, b'{"dim": 2, "state": [[1, 0], [0, 0]], "grid": {"n": 1e400, "length": 40}}',
                 1, id="grid-n-overflows"),
    pytest.param(REPORT, b'{"dim": 2, "state": [[1, 0], [0, 0]], "grid": {"n": 16, "length": 1e400}}',
                 1, id="grid-length-overflows"),
    pytest.param(REPORT, b'{"dim": 2, "state": [[1, 0], [0, 0]], "observables": {"\xe9": []}}',
                 1, id="not-utf-8"),
    pytest.param(REPORT, b'{"dim": 1%s, "state": [[1, 0], [0, 0]]}' % (b"0" * 5000), 1,
                 id="integer-too-long"),
    pytest.param(REPORT, b'{"dim": 2, "state": %s%s}' % (b"[" * 100_000, b"]" * 100_000), 1,
                 id="nested-too-deep"),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv,problem,code", EXIT_CODE_TABLE)
def test_exit_code_table(tmp_path, capsys, argv, problem, code):
    """Each malformed call exits with its documented code, no warning and no traceback.

    Past argument parsing, stderr is the one line `error: <message>`.
    """
    path = tmp_path / "problem.json"
    path.write_bytes(problem if isinstance(problem, bytes) else json.dumps(problem).encode())
    try:
        rc = main([str(path) if arg == "{input}" else arg for arg in argv])
        usage_error = False
    except SystemExit as exc:
        rc, usage_error = exc.code, True
    assert rc == code
    err = capsys.readouterr().err
    assert err
    assert "Traceback" not in err
    if not usage_error:
        assert err.startswith("error: ") and err.count("\n") == 1, err


def magnitude_problem(size: float) -> dict:
    """n = 4: an all-ones a and an i-above, -i-below b, entries of modulus `size`,
    at a state of the largest variance of a."""
    ones = np.ones((4, 4))
    b = np.triu(ones, 1) * 1j
    vecs = np.linalg.eigh(ones)[1]
    return {"dim": 4, "state": as_pairs((vecs[:, 0] + vecs[:, -1]) / np.sqrt(2)),
            "observables": {"a": as_matrix(size * ones), "b": as_matrix(size * (b + b.conj().T))}}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [["report"], ["minimize", "--restarts", "3"]], ids=lambda a: a[0])
def test_magnitude_bound(tmp_path, capsys, argv):
    """At n * scale = MAGNITUDE_BOUND a command runs with finite output; just above, it
    exits 2 naming the observable, its scale and the bound."""
    path = tmp_path / "problem.json"
    at = cli.MAGNITUDE_BOUND / 4
    run = [argv[0], "--input", str(path), "--pair", "a", "b", *argv[1:]]
    path.write_text(json.dumps(magnitude_problem(at)))
    assert main(run) == 0
    json.loads(capsys.readouterr().out)  # a non-finite float prints as inf or nan, not JSON
    above = float(np.nextafter(at, np.inf))
    path.write_text(json.dumps(magnitude_problem(above)))
    assert main(run) == 2
    assert capsys.readouterr().err == (
        f"error: observable 'a' has scale {above!r}, above the bound 1e+76 / n = {at!r} at n = 4\n"
    )


def test_magnitude_bound_reads_only_the_named_observables(tmp_path, capsys):
    """An unused observable above the bound stops only selftest --input, which names it."""
    above = float(np.nextafter(cli.MAGNITUDE_BOUND / 4, np.inf))
    problem = magnitude_problem(1.0)
    problem["observables"]["big"] = as_matrix(np.full((4, 4), above))
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    assert main(["report", "--input", str(path), "--pair", "a", "b"]) == 0
    capsys.readouterr()
    assert main(["selftest", "--input", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: observable 'big' has scale {above!r}, above the bound 1e+76 / n = "
        f"{cli.MAGNITUDE_BOUND / 4!r} at n = 4\n"
    )


def grid16_problem() -> dict:
    g = Grid(16, 40.0)
    return {"dim": 16, "state": as_pairs(gaussian(g, 0.0, 0.0, 2.0).amplitudes),
            "observables": {"a": as_matrix(np.diag(np.arange(16.0)))},
            "grid": {"n": 16, "length": 40.0, "hbar": 1.0}}


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=16,
)
COMMANDS = [
    ["report", "--pair", "x", "p"],
    ["distances", "--pair", "x", "a"],
    ["evolve", "--generator", "p", "--t-max", "1", "--steps", "3"],
]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    field=st.sampled_from(["dim", "state", "observables", "grid", "grid.n", "grid.length",
                           "grid.hbar"]),
    value=JSON_VALUES,
    command=st.sampled_from(COMMANDS),
)
def test_any_field_value_exits_with_a_documented_code(tmp_path, capsys, field, value, command):
    """One field of a valid file replaced by any JSON value: a table exit code, never a raise."""
    problem = grid16_problem()
    if field.startswith("grid."):
        problem["grid"][field[5:]] = value
    else:
        problem[field] = value
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    rc = main([command[0], "--input", str(path), *command[1:]])
    assert rc in (0, 1, 2, 3)
    err = capsys.readouterr().err
    assert (rc == 0) == (err == "")


def test_golden_stdout(tmp_path, capsys):
    """Every command's stdout on a dense n=4 and an n=16 grid file, byte for byte.

    The one exception is evolve's fs_speed column, allowed 1e-12 relative: it
    is a finite difference whose step comes from the spectral range, whose
    last bit can differ between eigensolver routines.
    """
    golden = json.loads(GOLDEN.read_text())
    paths = {}
    for name, doc in golden["problems"].items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        paths["{%s}" % name] = str(path)

    def fill(text):
        for key, path in paths.items():
            text = text.replace(key, path)
        return text

    for case in golden["cases"]:
        assert main([fill(arg) for arg in case["argv"]]) == 0
        out, expected = capsys.readouterr().out, fill(case["stdout"])
        if case["argv"][0] != "evolve":
            assert out == expected, case["argv"]
            continue
        rows, want = out.split("\r\n"), expected.split("\r\n")
        assert len(rows) == len(want), case["argv"]
        col = want[0].split(",").index("fs_speed")
        for row, ref in zip(rows, want):
            if row != ref:
                cells, ref_cells = row.split(","), ref.split(",")
                speed, ref_speed = float(cells.pop(col)), float(ref_cells.pop(col))
                assert cells == ref_cells, case["argv"]
                assert speed == pytest.approx(ref_speed, rel=1e-12, abs=0), case["argv"]
