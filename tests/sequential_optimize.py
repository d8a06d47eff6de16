"""Reference descent: the restarts of minimize_multistart run one after another.

This is the one-vector-at-a-time form of `statesphere.optimize`, kept for
the tests only.  Every restart evaluates its own matrix-vector products
with `A @ v` and its inner products with `np.vdot` and `np.linalg.norm`,
and the restarts run in sequence.  The package runs all restarts in
lockstep on stacked products; tests/test_optimize.py checks that each of
its results equals the one this module computes, bit for bit.
"""

from __future__ import annotations

import numpy as np

from statesphere import OptimizeResult, State, horizontal, minimal_condition, normalize
from statesphere.optimize import ARMIJO_C, MAX_BACKTRACKS, SHRINK


def _variances(A, B, v):
    n2 = float(np.real(np.vdot(v, v)))
    av = A.matrix @ v
    bv = B.matrix @ v
    ma = float(np.real(np.vdot(v, av))) / n2
    mb = float(np.real(np.vdot(v, bv))) / n2
    va = float(np.real(np.vdot(av, av))) / n2 - ma * ma
    vb = float(np.real(np.vdot(bv, bv))) / n2 - mb * mb
    return max(va, 0.0), max(vb, 0.0), av, bv, ma, mb


def objective(A, B, v) -> float:
    va, vb, *_ = _variances(A, B, np.asarray(v, dtype=complex).ravel())
    return va * vb


def riemannian_grad(A, B, phi: State) -> np.ndarray:
    va, vb, av, bv, ma, mb = _variances(A, B, phi.amplitudes)
    grad_va = 2.0 * (A.matrix @ av) - 4.0 * ma * av
    grad_vb = 2.0 * (B.matrix @ bv) - 4.0 * mb * bv
    return horizontal(vb * grad_va + va * grad_vb, phi)


def minimize_product(A, B, phi0: State, max_iter: int = 500, grad_tol: float = 1e-8):
    scale = max(A.scale, B.scale)
    phi = phi0
    f = objective(A, B, phi.amplitudes)
    trace = [f]
    stop_reason = "iterations"
    step = np.inf
    it = 0
    while it < max_iter:
        g = riemannian_grad(A, B, phi)
        gn = float(np.linalg.norm(g))
        if gn <= grad_tol * scale:
            stop_reason = "gradient"
            break
        it += 1
        cold = 1.0 / gn
        found = _backtrack(A, B, phi.amplitudes, g, f, gn, min(step, cold))
        if found is None and step < cold:
            found = _backtrack(A, B, phi.amplitudes, g, f, gn, cold)
        if found is None:
            stop_reason = "floor"
            break
        accepted, step, halvings = found
        while halvings == 0 and step < cold:
            longer = min(2.0 * step, cold)
            expanded = _armijo_trial(A, B, phi.amplitudes, g, f, gn, longer)
            if expanded is None:
                break
            accepted, step = expanded, longer
        phi, f = State(accepted[0]), accepted[1]
        trace.append(f)
    certificate = minimal_condition(A, B, phi)
    return OptimizeResult(
        state=phi,
        value=f,
        iterations=it,
        converged=stop_reason != "iterations" and certificate.is_minimal,
        stop_reason=stop_reason,
        certificate=certificate,
        objective_trace=trace,
    )


def _backtrack(A, B, v, g, f, gn, step):
    for halvings in range(MAX_BACKTRACKS):
        accepted = _armijo_trial(A, B, v, g, f, gn, step)
        if accepted is not None:
            return accepted, step, halvings
        step *= SHRINK
    return None


def _armijo_trial(A, B, v, g, f, gn, step):
    w = v - step * g
    w = w / np.linalg.norm(w)
    fc = objective(A, B, w)
    if fc < f and fc <= f - ARMIJO_C * step * gn * gn:
        return w, fc
    return None


def starts(n, phi0=None, restarts=8, seed=0) -> list:
    """The starts minimize_multistart draws, in its order."""
    rng = np.random.default_rng(seed)
    out = [] if phi0 is None else [phi0]
    while len(out) < restarts:
        out.append(normalize(rng.standard_normal(n) + 1j * rng.standard_normal(n)))
    return out
