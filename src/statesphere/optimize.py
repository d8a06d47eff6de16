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

The restarts of one minimize_multistart call advance in lockstep: each
round evaluates the next trial of every live restart as one stack, with one
matrix-vector product and one inner product per row, so each restart's
result is bit for bit what it is when that restart runs alone.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatch
from .hilbert import Observable, State, normalize
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


def _pair(A: Observable, B: Observable) -> np.ndarray:
    """A and B stacked, so that one np.matmul applies both."""
    return np.stack([A.matrix, B.matrix])[:, None]


def _apply(pair: np.ndarray, V: np.ndarray) -> np.ndarray:
    """(A v, B v) for each row v of V, or (A v, B w) for rows v of V[0] and w of V[1].

    np.matmul over a stack of vectors makes one matrix-vector product per
    row, each rounded as `A @ v` rounds it alone.  A single matrix product
    V @ A.T would round differently.
    """
    return np.matmul(pair, V[..., None])[..., 0]


def _variances(pair: np.ndarray, V: np.ndarray):
    """Variances of A and B on each row of V read as a ray, with (A v, B v) and the means.

    Inner products are np.vecdot, one per row, each as np.vdot computes it.
    """
    n2 = np.vecdot(V, V).real
    products = _apply(pair, V)
    means = np.vecdot(V, products).real / n2
    variances = np.vecdot(products, products).real / n2 - means * means
    # max(v, 0.0), keeping a NaN or a -0.0 as max does
    return np.where(variances < 0.0, 0.0, variances), products, means


def _norms(V: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each row: the root of the squared real and imaginary parts."""
    return np.sqrt(np.vecdot(V.real, V.real) + np.vecdot(V.imag, V.imag))


def _evaluate(pair: np.ndarray, V: np.ndarray):
    """Objective, tangent gradient and gradient norm at each row of V.

    The gradient is assembled from the Euclidean gradient with respect to
    the real and imaginary parts of the row, then stripped of its complex
    component along the row, as projective.horizontal does.
    """
    (va, vb), products, means = _variances(pair, V)
    grads = 2.0 * _apply(pair, products) - (4.0 * means)[..., None] * products
    xi = vb[:, None] * grads[0] + va[:, None] * grads[1]
    g = xi - np.vecdot(V, xi)[:, None] * V
    return va * vb, g, _norms(g)


def objective(A: Observable, B: Observable, v) -> float:
    """Product of variances of A and B on the normalized vector."""
    v = np.asarray(v, dtype=complex).ravel()
    (va, vb), *_ = _variances(_pair(A, B), v[None])
    return float(va[0] * vb[0])


def riemannian_grad(A: Observable, B: Observable, phi: State) -> np.ndarray:
    """Gradient of the variance product in the tangent space of the ray.

    Assembled from the Euclidean gradient with respect to the real and
    imaginary parts of phi, then stripped of its complex component along
    phi (which removes both the radial and the phase-fibre directions).
    """
    _check_dims(A, B, phi)
    return _evaluate(_pair(A, B), phi.amplitudes[None])[1][0]


def _check_dims(A: Observable, B: Observable, phi: State) -> None:
    if A.dim != B.dim:
        raise DimensionMismatch(f"operator dims {A.dim} != {B.dim}")
    if A.dim != phi.dim:
        raise DimensionMismatch(f"operator dim {A.dim} != state dim {phi.dim}")


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
    return _minimize(A, B, [phi0], max_iter, grad_tol)[0]


def _minimize(A, B, starts, max_iter, grad_tol) -> list:
    """One descent from each start, all run in lockstep; results in start order."""
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    for phi in starts:
        _check_dims(A, B, phi)
    scale = max(A.scale, B.scale)
    pair = _pair(A, B)
    f, g, gn = _evaluate(pair, np.array([phi.amplitudes for phi in starts]))
    runs = [
        _descent(phi, here, scale, max_iter, grad_tol)
        for phi, here in zip(starts, zip(f.tolist(), g, gn.tolist()))
    ]
    results = []
    for phi, f, it, stop_reason, trace in _lockstep(pair, runs):
        certificate = minimal_condition(A, B, phi)
        results.append(OptimizeResult(
            state=phi,
            value=f,
            iterations=it,
            converged=stop_reason != "iterations" and certificate.is_minimal,
            stop_reason=stop_reason,
            certificate=certificate,
            objective_trace=trace,
        ))
    return results


def _lockstep(pair, runs) -> list:
    """Run coroutines that yield trials, one stacked evaluation per round.

    Each round gathers the trial (v, g, step) that every live run waits on,
    retracts all of them as one stack, evaluates the stack with _evaluate
    and sends each run its row (w, f, g, |g|).  Returns what each run returns.
    """
    out = [None] * len(runs)
    waiting = {}

    def resume(i, value):
        try:
            waiting[i] = runs[i].send(value)
        except StopIteration as stop:
            out[i] = stop.value
            waiting.pop(i, None)

    for i in range(len(runs)):
        resume(i, None)
    while waiting:
        order = list(waiting)
        v, g, step = zip(*(waiting[i] for i in order))
        w = np.array(v) - np.array(step)[:, None] * np.array(g)
        w = w / _norms(w)[:, None]
        f, g, gn = _evaluate(pair, w)
        for i, row in zip(order, zip(w, f.tolist(), g, gn.tolist())):
            resume(i, row)
    return out


def _descent(phi, here, scale, max_iter, grad_tol):
    """One run of minimize_product from phi, a coroutine over trials.

    here is (f, g, |g|) at phi.  Each trial yields (v, g, step) and is sent
    the evaluation (w, f, g, |g|) at the retracted point w = (v - step g)/|v
    - step g|.  Returns (final state, value, iterations, stop_reason, trace).
    """
    f, g, gn = here
    trace = [f]
    stop_reason = "iterations"
    step = np.inf
    it = 0
    while it < max_iter:
        if gn <= grad_tol * scale:
            stop_reason = "gradient"
            break
        it += 1
        v, cold = phi.amplitudes, 1.0 / gn
        found = yield from _backtrack(v, g, f, gn, min(step, cold))
        if found is None and step < cold:
            # A warm start that has shrunk into rounding noise proves no floor.
            found = yield from _backtrack(v, g, f, gn, cold)
        if found is None:
            stop_reason = "floor"  # no further decrease representable
            break
        accepted, step, halvings = found
        while halvings == 0 and step < cold:
            longer = min(2.0 * step, cold)
            expanded = yield from _armijo_trial(v, g, f, gn, longer)
            if expanded is None:
                break
            accepted, step = expanded, longer
        w, f, g, gn = accepted
        phi = State(w)
        trace.append(f)
    return phi, f, it, stop_reason, trace


def _backtrack(v, g, f, gn, step):
    """Halve step until a trial passes: (trial, step, halvings), or None after MAX_BACKTRACKS."""
    for halvings in range(MAX_BACKTRACKS):
        accepted = yield from _armijo_trial(v, g, f, gn, step)
        if accepted is not None:
            return accepted, step, halvings
        step *= SHRINK
    return None


def _armijo_trial(v, g, f, gn, step):
    """The evaluation at the retracted trial (v - step g)/|v - step g| if it passes.

    A trial passes when it lowers f strictly and by at least the Armijo
    margin ARMIJO_C * step * |g|^2; otherwise the result is None.
    """
    trial = yield v, g, step
    fc = trial[1]
    if fc < f and fc <= f - ARMIJO_C * step * gn * gn:
        return trial
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
    """Best of several independent descent runs, run in lockstep.

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
        _minimize(A, B, starts, max_iter, grad_tol),
        key=lambda res: (not res.certificate.is_minimal, res.value),
    )
    return replace(best, seed=seed)
