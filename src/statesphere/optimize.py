"""Riemannian search for minimal-uncertainty states.

Minimizes f(phi) = Var_A(phi) * Var_B(phi) over the sphere of states by
projected gradient descent with a normalize-after-step retraction.  Each
Armijo search starts from the previous accepted step rather than from
1/|g| (Nocedal & Wright, Numerical Optimization, sec. 3.5), which keeps
Armijo's guarantee on the sphere (Absil, Mahony & Sepulchre 2008, sec. 4.2).
The squared-product objective is smooth where the product of deviations is
not, with the same minimizers.  The objective is phase and scale invariant,
so the horizontal-projected gradient coincides with the Euclidean gradient
of f(v/|v|).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatch
from .hilbert import Observable, State, normalize
from .projective import horizontal
from .uncertainty import MinimalConditionResult, minimal_condition

ARMIJO_C = 1e-4
SHRINK = 0.5
MAX_BACKTRACKS = 60


@dataclass(frozen=True)
class OptimizeResult:
    """Outcome of one descent run (or the best of several restarts).

    stop_reason is "gradient", "floor" or "iterations"; see minimize_product.
    """

    state: State
    value: float
    iterations: int
    converged: bool
    stop_reason: str
    certificate: MinimalConditionResult
    objective_trace: list
    seed: int | None = None

    def to_dict(self) -> dict:
        out = {
            "state": [[z.real, z.imag] for z in self.state.amplitudes],
            "value": self.value,
            "iterations": self.iterations,
            "converged": self.converged,
            "stop_reason": self.stop_reason,
            "certificate": self.certificate.to_dict(),
            "objective_trace": list(self.objective_trace),
        }
        if self.seed is not None:
            out["seed"] = self.seed
        return out


def _variances(A: Observable, B: Observable, v: np.ndarray):
    """Variances of A and B on v/|v| plus cached matrix-vector products."""
    n2 = float(np.real(np.vdot(v, v)))
    av = A.matrix @ v
    bv = B.matrix @ v
    ma = float(np.real(np.vdot(v, av))) / n2
    mb = float(np.real(np.vdot(v, bv))) / n2
    va = float(np.real(np.vdot(av, av))) / n2 - ma * ma
    vb = float(np.real(np.vdot(bv, bv))) / n2 - mb * mb
    return max(va, 0.0), max(vb, 0.0), av, bv, ma, mb


def objective(A: Observable, B: Observable, v) -> float:
    """Product of variances of A and B on the normalized vector."""
    v = np.asarray(v, dtype=complex).ravel()
    va, vb, *_ = _variances(A, B, v)
    return va * vb


def riemannian_grad(A: Observable, B: Observable, phi: State) -> np.ndarray:
    """Gradient of the variance product in the tangent space of the ray.

    Assembled from the Euclidean gradient with respect to the real and
    imaginary parts of phi, then stripped of its complex component along
    phi (which removes both the radial and the phase-fibre directions).
    """
    if A.dim != B.dim:
        raise DimensionMismatch(f"operator dims {A.dim} != {B.dim}")
    if A.dim != phi.dim:
        raise DimensionMismatch(f"operator dim {A.dim} != state dim {phi.dim}")
    va, vb, av, bv, ma, mb = _variances(A, B, phi.amplitudes)
    grad_va = 2.0 * (A.matrix @ av) - 4.0 * ma * av
    grad_vb = 2.0 * (B.matrix @ bv) - 4.0 * mb * bv
    return horizontal(vb * grad_va + va * grad_vb, phi)


def minimize_product(
    A: Observable,
    B: Observable,
    phi0: State,
    max_iter: int = 500,
    grad_tol: float = 1e-8,
) -> OptimizeResult:
    """Projected gradient descent from phi0 with a warm-started Armijo search.

    Each search starts at the last accepted step, capped at the cold start
    1/|g| (where the first one starts), then halves until a trial passes,
    or doubles while the doubled step still passes, up to 1/|g|.  A trial
    passes when it lowers the objective strictly and by the Armijo margin.
    When no halving of a warm start passes, the search runs once more from
    1/|g|, the start of a cold search.

    stop_reason says why the run ended: "gradient" when the tangent gradient
    norm falls below grad_tol times the matrix scale, "floor" when no halving
    of the cold start lowers the objective any more, "iterations" at
    max_iter.  converged is true when the run stopped on the gradient test or
    on the floor and minimal_condition certifies the final state.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
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
            # A warm start that has shrunk into rounding noise proves no floor.
            found = _backtrack(A, B, phi.amplitudes, g, f, gn, cold)
        if found is None:
            stop_reason = "floor"  # no further decrease representable
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
    """Halve step until a trial passes: (trial, step, halvings), or None after MAX_BACKTRACKS."""
    for halvings in range(MAX_BACKTRACKS):
        accepted = _armijo_trial(A, B, v, g, f, gn, step)
        if accepted is not None:
            return accepted, step, halvings
        step *= SHRINK
    return None


def _armijo_trial(A, B, v, g, f, gn, step):
    """The retracted trial (v - step g)/|v - step g| and its objective if it passes.

    A trial passes when it lowers f strictly and by at least the Armijo
    margin ARMIJO_C * step * |g|^2; otherwise the result is None.
    """
    w = v - step * g
    w = w / np.linalg.norm(w)
    fc = objective(A, B, w)
    if fc < f and fc <= f - ARMIJO_C * step * gn * gn:
        return w, fc
    return None


def minimize_multistart(
    A: Observable,
    B: Observable,
    phi0: State | None = None,
    restarts: int = 8,
    seed: int = 0,
    max_iter: int = 500,
    grad_tol: float = 1e-8,
) -> OptimizeResult:
    """Best of several independent descent runs.

    Restart 0 uses phi0 when given; the remaining starts are normalized
    standard complex Gaussian vectors drawn from the recorded seed.  A run
    with a minimal certificate beats any run without one; among equals the
    lower value wins, and ties are broken toward the earliest start.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    rng = np.random.default_rng(seed)
    n = A.dim
    starts = []
    if phi0 is not None:
        starts.append(phi0)
    while len(starts) < restarts:
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        starts.append(normalize(v))
    best = min(
        (minimize_product(A, B, st, max_iter, grad_tol) for st in starts),
        key=lambda res: (not res.certificate.is_minimal, res.value),
    )
    return replace(best, seed=seed)
