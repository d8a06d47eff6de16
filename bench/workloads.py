"""Workload definitions: seeded problem files and the CLI argv of each op.

A workload is a fixed cycle of ops.  Every op in a workload runs the same
commands on inputs of the same size, so op times come from one mode and a
run's median does not jump between modes.  The cycle is built from the
workload seed alone; the program receives only the generated files and argv.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

GRID_LENGTH = 40.0
HBAR = 1.0
EVOLVE_STEPS = 64
EVOLVE_T_MAX = 2.0
SELFTEST_INSTANCES = 20


@dataclass
class Problem:
    """One generated problem file and the arrays the checks need."""

    path: str
    phi: np.ndarray
    grid_n: int | None = None
    a: np.ndarray | None = None
    b: np.ndarray | None = None


@dataclass
class Op:
    """One op: CLI commands run back to back on one problem file."""

    problem: int
    commands: list


def _pairs(v) -> list:
    return [[float(z.real), float(z.imag)] for z in v]


def _read_state(path: Path) -> np.ndarray:
    """The state exactly as the program will read and renormalize it."""
    raw = json.loads(path.read_text())
    v = np.array([complex(re, im) for re, im in raw["state"]])
    return v / np.linalg.norm(v)


def two_gaussians(rng, n: int) -> np.ndarray:
    """Superposition of two Gaussian packets, well inside the periodic box.

    Centres sit within |x| <= 8 and widths within [0.9, 1.6], so at least
    7 widths separate each packet from the boundary at |x| = 20.
    """
    x = -GRID_LENGTH / 2 + np.arange(n) * (GRID_LENGTH / n)
    psi = np.zeros(n, dtype=complex)
    for centre in (rng.uniform(-8.0, -2.0), rng.uniform(2.0, 8.0)):
        sigma = rng.uniform(0.9, 1.6)
        k0 = rng.uniform(-1.0, 1.0)
        weight = rng.uniform(0.5, 1.0) * np.exp(2j * np.pi * rng.uniform())
        psi += weight * np.exp(-((x - centre) ** 2) / (4 * sigma**2) + 1j * k0 * x)
    return psi / np.linalg.norm(psi)


def grid_problem(path: Path, rng, n: int) -> Problem:
    path.write_text(json.dumps({
        "dim": n,
        "state": _pairs(two_gaussians(rng, n)),
        "grid": {"n": n, "length": GRID_LENGTH, "hbar": HBAR},
    }))
    return Problem(str(path), _read_state(path), grid_n=n)


def random_hermitian(rng, n: int) -> np.ndarray:
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = 0.5 * (m + m.conj().T)
    return h / np.max(np.abs(h))


def dense_problem(path: Path, rng, n: int) -> Problem:
    a = random_hermitian(rng, n)
    b = random_hermitian(rng, n)
    phi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    path.write_text(json.dumps({
        "dim": n,
        "state": _pairs(phi / np.linalg.norm(phi)),
        "observables": {"a": [_pairs(r) for r in a], "b": [_pairs(r) for r in b]},
    }))
    # The checks use the matrices as the file holds them.
    raw = json.loads(path.read_text())["observables"]
    a, b = (np.array([[complex(re, im) for re, im in r] for r in raw[k]]) for k in "ab")
    return Problem(str(path), _read_state(path), a=a, b=b)


def _grid_files(workdir: Path, seed: int, tag: str, n: int, count: int) -> list:
    rng = np.random.default_rng([seed, n])
    return [grid_problem(workdir / f"{tag}-{i}.json", rng, n) for i in range(count)]


def build_grid_session(workdir: Path, seed: int):
    problems = _grid_files(workdir, seed, "session", 128, 2)
    ops = [
        Op(i, [
            ["report", "--input", p.path, "--pair", "x", "p"],
            ["distances", "--input", p.path, "--pair", "x", "p"],
            ["evolve", "--input", p.path, "--generator", "p",
             "--t-max", repr(EVOLVE_T_MAX), "--steps", str(EVOLVE_STEPS)],
        ])
        for i, p in enumerate(problems)
    ]
    return problems, ops


def build_grid_large(workdir: Path, seed: int):
    problems = _grid_files(workdir, seed, "large", 1024, 2)
    ops = [
        Op(i, [["report", "--input", p.path, "--pair", "x", "p"]])
        for i, p in enumerate(problems)
    ]
    return problems, ops


def build_dense_small(workdir: Path, seed: int):
    rng = np.random.default_rng([seed, 32])
    problems = [dense_problem(workdir / f"dense-{i}.json", rng, 32) for i in range(8)]
    ops = [
        Op(i, [
            ["report", "--input", p.path, "--pair", "a", "b"],
            ["distances", "--input", p.path, "--pair", "a", "b"],
            ["selftest", "--n-random", str(SELFTEST_INSTANCES), "--seed", str(seed * 100 + i)],
        ])
        for i, p in enumerate(problems)
    ]
    return problems, ops


# Restart seeds of the minimize ops.  They are the same for every workload
# seed, so every run times the same random restarts; the workload seed picks
# the starting superposition (restart 0).  Each of their random restarts ends
# at hbar^2/4, which checks.check_minimize relies on.
MINIMIZE_SEEDS = (1, 2, 3, 4)


def build_minimize_xp(workdir: Path, seed: int):
    problems = _grid_files(workdir, seed, "minimize", 64, 1)
    path = problems[0].path
    ops = [
        Op(0, [["minimize", "--input", path, "--pair", "x", "p", "--seed", str(s)]])
        for s in MINIMIZE_SEEDS
    ]
    return problems, ops


# name -> build(workdir, seed) -> (problems, ops); BENCHMARK.json says why.
WORKLOADS = {
    "grid-session": build_grid_session,
    "grid-large": build_grid_large,
    "dense-small": build_dense_small,
    "minimize-xp": build_minimize_xp,
}
