"""Unitary flow generated by an observable, via exact spectral exponentiation.

In finite dimension e^{-iAt} is computed from the eigendecomposition, so the
flow is exactly unitary up to rounding and needs no step-size tuning.  The
finite-difference Fubini-Study speed of the projected trajectory converges
to the generator's standard deviation at O(dt^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter
from .hilbert import Observable, State, spectral
from .serialize import format_float
from .uncertainty import std_dev


@dataclass(frozen=True)
class FlowTrace:
    """Sampled trajectory with finite-difference speeds and deviations."""

    times: np.ndarray
    states: list
    fs_speeds: np.ndarray
    std_devs: np.ndarray

    def write_csv(self, fileobj) -> None:
        """Columns: t, interleaved re/im of each amplitude, fs_speed, std_dev."""
        n = self.states[0].dim
        amplitude_columns = [f"{part}_{k}" for k in range(n) for part in ("re", "im")]
        fileobj.write(",".join(["t", *amplitude_columns, "fs_speed", "std_dev"]) + "\r\n")
        amplitudes = np.array([st.amplitudes for st in self.states])
        table = np.column_stack(
            [self.times, amplitudes.view(float), self.fs_speeds, self.std_devs]
        )
        fileobj.writelines(",".join(map(format_float, row)) + "\r\n" for row in table.tolist())


def flow(A: Observable, phi: State, t: float) -> State:
    """Evolve phi along the integral curve of the field -i A phi for time t."""
    dec = spectral(A)
    v = dec.eigenvectors
    phases = np.exp(-1j * dec.eigenvalues * t)
    out = v @ (phases * (v.conj().T @ phi.amplitudes))
    return State(out / np.linalg.norm(out))


def default_dt(A: Observable) -> float:
    """Central-difference step, inversely scaled by the spectral range."""
    vals = spectral(A).eigenvalues
    rng = float(vals[-1] - vals[0])
    return 1e-4 / max(rng, 1e-12)


def projected_speed(A: Observable, phi: State, dt: float) -> float:
    """Finite-difference Fubini-Study speed of the projected trajectory at phi.

    The distance is evaluated in the arcsin form (norm of the component of
    one endpoint orthogonal to the other), which agrees with
    arccos of the overlap but stays accurate for the tiny separations a
    central difference produces.
    """
    if dt <= 0:
        raise InvalidParameter(f"dt must be positive, got {dt}")
    back = flow(A, phi, -dt).amplitudes
    fwd = flow(A, phi, dt).amplitudes
    perp = fwd - np.vdot(back, fwd) * back
    dist = float(np.arcsin(min(np.linalg.norm(perp), 1.0)))
    return dist / (2.0 * dt)


def trace_flow(A: Observable, phi: State, t_max: float, steps: int) -> FlowTrace:
    """Sample the flow on a uniform time grid of `steps` points."""
    if steps < 2:
        raise InvalidParameter(f"need steps >= 2, got {steps}")
    if not math.isfinite(t_max):
        raise InvalidParameter(f"t_max must be finite, got {t_max}")
    times = np.linspace(0.0, t_max, steps)
    dt = default_dt(A)
    states = [flow(A, phi, t) for t in times]
    speeds = np.array([projected_speed(A, st, dt) for st in states])
    devs = np.array([std_dev(A, st) for st in states])
    return FlowTrace(times, states, speeds, devs)
