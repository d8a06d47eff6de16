"""Unitary flow generated by an observable, via exact spectral exponentiation.

In finite dimension e^{-iAt} is a phase per eigenvalue, applied in the
eigenbasis: a dense observable's from np.linalg.eigh, grid x's on the grid
and grid p's in Fourier space, in O(n log n).  So the flow is exactly
unitary up to rounding and needs no step-size tuning.  The
finite-difference Fubini-Study speed of the projected trajectory converges
to the generator's standard deviation at O(dt^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import serialize
from .errors import InvalidParameter
from .hilbert import Observable, State
from .uncertainty import std_dev


@dataclass(frozen=True)
class FlowTrace:
    """Sampled trajectory: row k of `amplitudes` is the unit state at times[k]."""

    times: np.ndarray
    amplitudes: np.ndarray
    fs_speeds: np.ndarray
    std_devs: np.ndarray

    def write_csv(self, fileobj) -> None:
        """Columns: t, interleaved re/im of each amplitude, fs_speed, std_dev.

        One CRLF-ended row per sample, every float as serialize.FLOAT_FORMAT
        renders it.  serialize stacks and renders the rows a block at a
        time, so no table of the whole trace is formed.
        """
        amplitudes = [f"{part}_{k}" for k in range(self.amplitudes.shape[1]) for part in ("re", "im")]
        columns = (self.times, self.amplitudes.view(float), self.fs_speeds, self.std_devs)
        serialize._write_table(fileobj, ["t", *amplitudes, "fs_speed", "std_dev"], columns)


def flow(A: Observable, phi: State, t: float) -> State:
    """Evolve phi along the integral curve of the field -i A phi for time t."""
    return State(_unit_columns(A.flows(phi.amplitudes, t)))


def default_dt(A: Observable) -> float:
    """Central-difference step 1e-4 / spectral range, or 1e-4 for a multiple of I (a phase flow)."""
    rng = float(np.ptp(A.eigenvalues))
    dt = 1e-4 / rng if rng else 1e-4
    if not 0 < dt < math.inf:  # false for NaN
        raise InvalidParameter(f"spectral range {rng} gives no finite central-difference step")
    return dt


def _unit_columns(m: np.ndarray) -> np.ndarray:
    """Each column of m divided by its norm."""
    return m / np.linalg.norm(m, axis=0)


def _central_speeds(A: Observable, states: np.ndarray, dt: float) -> np.ndarray:
    """Fubini-Study speed of the flow through each column of states.

    Each column flows by -dt and by +dt, and the distance between the two
    normalised ends, over 2 dt, is the speed.  The distance is evaluated in
    the arcsin form (norm of the component of one end orthogonal to the
    other), which agrees with arccos of the overlap but stays accurate for
    the tiny separations a central difference produces.
    """
    back, fwd = (_unit_columns(A.flows(states, s)) for s in (-dt, dt))
    perp = fwd - np.sum(back.conj() * fwd, axis=0) * back
    return np.arcsin(np.minimum(np.linalg.norm(perp, axis=0), 1.0)) / (2.0 * dt)


def projected_speed(A: Observable, phi: State, dt: float) -> float:
    """Finite-difference Fubini-Study speed of the projected trajectory at phi."""
    if not 0 < dt < math.inf:  # false for NaN
        raise InvalidParameter(f"dt must be positive and finite, got {dt}")
    return float(_central_speeds(A, phi.amplitudes[:, None], dt)[0])


def trace_flow(A: Observable, phi: State, t_max: float, steps: int) -> FlowTrace:
    """Sample the flow on a uniform time grid of `steps` points.

    The states at the sample times come from one transform of phi, with
    their phases applied as one batch; projected_speed's central difference
    takes the speeds at all of them in two more batches.  A step dt from
    the state at t keeps the phase rounding of e^{-i lambda dt} near eps *
    lambda dt, where a flow from phi to t -+ dt would round the phase of
    e^{-i lambda (t -+ dt)} by eps, a difference the central difference
    divides by dt.  The std_dev column is std_dev(A, phi), taken once: A's
    own flow conserves it.  Nothing n x n runs once per time.
    """
    if steps < 2:
        raise InvalidParameter(f"need steps >= 2, got {steps}")
    if not math.isfinite(t_max):
        raise InvalidParameter(f"t_max must be finite, got {t_max}")
    times = np.linspace(0.0, t_max, steps)
    now = _unit_columns(A.flows(phi.amplitudes, times))
    speeds = _central_speeds(A, now, default_dt(A))
    devs = np.full(steps, std_dev(A, phi))
    return FlowTrace(times, np.ascontiguousarray(now.T), speeds, devs)
