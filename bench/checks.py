"""Independent checks of each op's output.

Every expected value is recomputed here from the problem's arrays with
numpy's FFT, plain matrix-vector products or scipy's eigensolver, never by
calling the program and never against a stored copy of earlier output.
A check raises Mismatch with the first disagreement it finds.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np
import scipy.linalg

from workloads import GRID_LENGTH, HBAR

RTOL = 1e-9


class Mismatch(Exception):
    """An op's output disagrees with the benchmark's own computation."""


def _close(name: str, got, want: float, tol: float) -> None:
    if not isinstance(got, (int, float)) or not abs(got - want) <= tol:
        raise Mismatch(f"{name}: got {got!r}, expected {want!r} within {tol:.1e}")


def _nonneg(name: str, got: float, tol: float) -> None:
    if not got >= -tol:
        raise Mismatch(f"{name} = {got!r} is negative beyond {tol:.1e}")


def _flag(command: list, name: str) -> str:
    return command[command.index(name) + 1]


def wavenumbers(n: int) -> np.ndarray:
    return 2.0 * np.pi * np.fft.fftfreq(n, d=GRID_LENGTH / n)


def grid_matvecs(phi: np.ndarray):
    """x phi and p phi on the periodic grid, p applied through the FFT."""
    n = phi.size
    x = -GRID_LENGTH / 2 + np.arange(n) * (GRID_LENGTH / n)
    return x * phi, np.fft.ifft(HBAR * wavenumbers(n) * np.fft.fft(phi))


def check_report(text: str, phi, aphi, bphi) -> None:
    """Deviations and bracket halves from A phi and B phi; identity; slacks."""
    rep = json.loads(text)
    xa = aphi - np.vdot(phi, aphi).real * phi
    xb = bphi - np.vdot(phi, bphi).real * phi
    da, db = float(np.linalg.norm(xa)), float(np.linalg.norm(xb))
    z = np.vdot(xa, xb)
    prod = da * db
    area = math.sqrt(max(prod * prod - z.real**2, 0.0))
    _close("delta_a", rep["delta_a"], da, RTOL * da)
    _close("delta_b", rep["delta_b"], db, RTOL * db)
    _close("metric_term", rep["metric_term"], z.real, RTOL * prod)
    _close("area", rep["area"], area, RTOL * prod)
    _close("commutator_half", rep["commutator_half"], abs(z.imag), RTOL * prod)
    _close("anticommutator_half", rep["anticommutator_half"], abs(z.real), RTOL * prod)
    _close("theta", rep["theta"], math.atan2(area, z.real), 1e-8)
    _close("identity_residual", rep["identity_residual"], 0.0, 1e-10 * prod * prod)
    for name in ("robertson_slack", "area_bound_slack"):
        _nonneg(name, rep[name], RTOL * prod)
    _nonneg("schrodinger_slack", rep["schrodinger_slack"], RTOL * prod * prod)
    _close("robertson_slack", rep["robertson_slack"], prod - abs(z.imag), RTOL * prod)


def _check_triangle(rep: dict, d_phi_a: float, d_phi_b: float, d_a_b: float) -> None:
    _close("d_phi_a", rep["d_phi_a"], d_phi_a, 1e-9)
    _close("d_phi_b", rep["d_phi_b"], d_phi_b, 1e-9)
    _close("d_a_b", rep["d_a_b"], d_a_b, 1e-9)
    _close("slack", rep["slack"], d_phi_a + d_phi_b - d_a_b, 1e-9)
    _nonneg("slack", rep["slack"], 1e-12)


def check_grid_distances(text: str, phi) -> None:
    """x eigenstates are grid deltas, p eigenstates plane waves (all distinct)."""
    n = phi.size
    fphi = np.fft.fft(phi) / math.sqrt(n)
    _check_triangle(
        json.loads(text),
        math.acos(min(float(np.max(np.abs(phi))), 1.0)),
        math.acos(min(float(np.max(np.abs(fphi))), 1.0)),
        math.acos(1.0 / math.sqrt(n)),
    )


def dense_distances(phi, a, b):
    """(d_phi_a, d_phi_b, d_a_b) from scipy's eigenvectors; spectra are simple."""
    _, va = scipy.linalg.eigh(a)
    _, vb = scipy.linalg.eigh(b)

    def arccos(c):
        return math.acos(min(float(c), 1.0))

    return (
        arccos(np.max(np.abs(va.conj().T @ phi))),
        arccos(np.max(np.abs(vb.conj().T @ phi))),
        arccos(np.max(np.abs(vb.conj().T @ va))),
    )


def check_dense_distances(text: str, expected) -> None:
    _check_triangle(json.loads(text), *expected)


def check_evolve(text: str, phi, t_max: float, steps: int) -> None:
    """States equal ifft(exp(-i hbar k t) fft(phi)); dp is conserved; speed = dp."""
    n = phi.size
    lines = text.splitlines()
    header = ["t"] + [f"{p}_{k}" for k in range(n) for p in ("re", "im")]
    if lines[0].split(",") != header + ["fs_speed", "std_dev"]:
        raise Mismatch("evolve: unexpected CSV header")
    if len(lines) != steps + 1:
        raise Mismatch(f"evolve: {len(lines) - 1} rows, expected {steps}")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    k = HBAR * wavenumbers(n)
    fphi = np.fft.fft(phi)
    prob = np.abs(fphi) ** 2 / np.sum(np.abs(fphi) ** 2)
    dp = math.sqrt(max(float(prob @ k**2 - (prob @ k) ** 2), 0.0))
    times = np.linspace(0.0, t_max, steps)
    for row, t in zip(rows, times):
        _close("t", row[0], t, 1e-12 * max(t_max, 1.0))
        want = np.fft.ifft(np.exp(-1j * k * t) * fphi)
        err = float(np.max(np.abs(row[1:-2:2] + 1j * row[2:-2:2] - want)))
        _close(f"state at t={t:.6g} (max error)", err, 0.0, 1e-9)
        _close("std_dev", row[-1], dp, RTOL * dp)
        _close("fs_speed", row[-2], dp, 1e-6 * dp)


def variance_product(psi) -> float:
    """Var_x * Var_p of a unit state on the grid."""
    xpsi, ppsi = grid_matvecs(psi)
    var_x = np.vdot(xpsi, xpsi).real - np.vdot(psi, xpsi).real ** 2
    var_p = np.vdot(ppsi, ppsi).real - np.vdot(psi, ppsi).real ** 2
    return float(var_x * var_p)


def check_minimize(text: str, seed: int) -> None:
    """A unit state whose recomputed Var_x Var_p equals the value, at most hbar^2/4.

    On a finite grid hbar^2/4 is no lower bound: eigenstates of x or p give
    0, and Gaussians are local minima at hbar^2/4.  Each random restart of
    the minimize ops (workloads.MINIMIZE_SEEDS, the same for every workload
    seed) ends at hbar^2/4 to 1e-13, so the best restart can be no worse.
    """
    res = json.loads(text)
    psi = np.array([complex(re, im) for re, im in res["state"]])
    if not abs(np.linalg.norm(psi) - 1.0) <= 1e-10:
        raise Mismatch(f"minimize: state norm {np.linalg.norm(psi)!r}")
    product = variance_product(psi)
    _close("value", res["value"], product, 1e-8 * product)
    if not res["value"] <= HBAR**2 / 4 * (1 + 1e-6):
        raise Mismatch(f"minimize: value {res['value']!r} above hbar^2/4")
    if res.get("seed") != seed:
        raise Mismatch(f"minimize: seed {res.get('seed')!r}, expected {seed}")


SELFTEST_LINE = re.compile(
    r"selftest: verified (\d+) identities over (\d+) random instances \(seed=(-?\d+)\)"
)


def check_selftest(text: str, instances: int, seed: int) -> None:
    m = SELFTEST_LINE.fullmatch(text.strip())
    if m is None:
        raise Mismatch(f"selftest: unexpected output {text.strip()[:80]!r}")
    count, done, echoed = (int(g) for g in m.groups())
    if (done, echoed) != (instances, seed) or count != 6 * instances:
        raise Mismatch(f"selftest: {count} identities over {done} instances (seed={echoed})")


class Checker:
    """Checks the outputs of one workload's commands against its problems."""

    def __init__(self, problems: list):
        self.problems = problems
        self._dense = {}

    def check(self, problem_index: int, command: list, text: str) -> None:
        prob = self.problems[problem_index]
        kind = command[0]
        if kind == "report":
            if prob.grid_n is not None:
                aphi, bphi = grid_matvecs(prob.phi)
            else:
                aphi, bphi = prob.a @ prob.phi, prob.b @ prob.phi
            check_report(text, prob.phi, aphi, bphi)
        elif kind == "distances":
            if prob.grid_n is not None:
                check_grid_distances(text, prob.phi)
            else:
                if problem_index not in self._dense:
                    self._dense[problem_index] = dense_distances(prob.phi, prob.a, prob.b)
                check_dense_distances(text, self._dense[problem_index])
        elif kind == "evolve":
            t_max = float(_flag(command, "--t-max"))
            check_evolve(text, prob.phi, t_max, int(_flag(command, "--steps")))
        elif kind == "minimize":
            check_minimize(text, int(_flag(command, "--seed")))
        elif kind == "selftest":
            n_random = int(_flag(command, "--n-random"))
            check_selftest(text, n_random, int(_flag(command, "--seed")))
        else:
            raise Mismatch(f"no check for command {kind!r}")
