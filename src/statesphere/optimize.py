"""Majorize-minimize search for minimal-uncertainty states.

Minimizes f(phi) = Var_A(phi) * Var_B(phi) over the sphere of states.  At
phi, with means a and b and variances alpha = Var_A and beta = Var_B, a step
takes psi, the eigenvector of the smallest eigenvalue of

    H(phi) = beta (A - a)^2 + alpha (B - b)^2.

Then beta Var_A(psi) + alpha Var_B(psi) <= <psi|H|psi> <= <phi|H|phi> =
2 alpha beta, and by AM-GM Var_A(psi) Var_B(psi) <= alpha beta: the step
never raises f.  This is a majorize-minimize step (Hunter & Lange, Am. Stat.
58, 30, 2004).  A minimal-uncertainty state, (B - b - lambda (A - a)) phi = 0
with lambda imaginary, is a ground state of its own H(phi).  At a fixed
point H(phi) phi = 2 f phi, and the horizontal part of H(phi) phi is half the
Riemannian gradient, so fixed points are critical points.

Each step is over-relaxed.  With psi phase-aligned to phi, it tries
normalize(phi + t (psi - phi)) for t = 1, 2, 4, ... while f strictly falls and
keeps the last trial that lowered f.  On slopes where the plain step (t = 1)
lowers f by rounding-level amounts, the doubling carries it down in a few
steps.

The restarts of one minimize_multistart call advance in lockstep: one
np.linalg.eigh over the stack of their H, then one stacked evaluation per
round of trials, with one matrix-vector product and one inner product per
row.  Each restart's result is bit for bit what it is when that restart
runs alone.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatch
from .hilbert import Observable, State, normalize
from .uncertainty import MinimalConditionResult, minimal_condition

# Over-relaxation doublings tried after the plain step, t = 2 ... 2**40.
MAX_DOUBLINGS = 40


@dataclass(frozen=True)
class OptimizeResult:
    """Outcome of one search (or the best of several restarts).

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


def _apply(M: np.ndarray, V: np.ndarray) -> np.ndarray:
    """M v for each row v of V.

    np.matmul over a stack of vectors makes one matrix-vector product per
    row, each rounded as `M @ v` rounds it alone.  A single matrix product
    V @ M.T would round differently.
    """
    return np.matmul(M, V[..., None])[..., 0]


def _variances(A: Observable, B: Observable, V: np.ndarray):
    """Variances of A and B on each row of V read as a ray, with (A v, B v) and the means.

    Inner products are np.vecdot, one per row, each as np.vdot computes it.
    """
    n2 = np.vecdot(V, V).real
    products = np.stack([_apply(A.matrix, V), _apply(B.matrix, V)])
    means = np.vecdot(V, products).real / n2
    variances = np.vecdot(products, products).real / n2 - means * means
    # max(v, 0.0), keeping a NaN or a -0.0 as max does
    return np.where(variances < 0.0, 0.0, variances), products, means


def _norms(V: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, taken after dividing by its largest modulus.

    The gradient is of degree 4 in the operators, so its squared entries can
    overflow where the entries themselves do not.
    """
    peak = np.abs(V).max(axis=-1)
    scaled = V / np.where(peak > 0.0, peak, 1.0)[:, None]
    return peak * np.sqrt(np.vecdot(scaled, scaled).real)


def _evaluate(A: Observable, B: Observable, V: np.ndarray):
    """Objective, tangent gradient, gradient norm, variances and means at each row of V.

    The gradient is assembled from the Euclidean gradient with respect to
    the real and imaginary parts of the row, then stripped of its complex
    component along the row, as projective.horizontal does.
    """
    variances, products, means = _variances(A, B, V)
    va, vb = variances
    grads = 2.0 * np.stack([_apply(A.matrix, products[0]), _apply(B.matrix, products[1])])
    grads -= (4.0 * means)[..., None] * products
    xi = vb[:, None] * grads[0] + va[:, None] * grads[1]
    g = xi - np.vecdot(V, xi)[:, None] * V
    return va * vb, g, _norms(g), variances, means


def objective(A: Observable, B: Observable, v) -> float:
    """Product of variances of A and B on the normalized vector."""
    v = np.asarray(v, dtype=complex).ravel()
    (va, vb), *_ = _variances(A, B, v[None])
    return float(va[0] * vb[0])


def riemannian_grad(A: Observable, B: Observable, phi: State) -> np.ndarray:
    """Gradient of the variance product in the tangent space of the ray.

    Assembled from the Euclidean gradient with respect to the real and
    imaginary parts of phi, then stripped of its complex component along
    phi (which removes both the radial and the phase-fibre directions).
    """
    _check_dims(A, B, phi)
    return _evaluate(A, B, phi.amplitudes[None])[1][0]


def _check_dims(A: Observable, B: Observable, phi: State) -> None:
    if A.dim != B.dim:
        raise DimensionMismatch(f"operator dims {A.dim} != {B.dim}")
    if A.dim != phi.dim:
        raise DimensionMismatch(f"operator dim {A.dim} != state dim {phi.dim}")


def _eigenstep(A, B, squares, V, variances, means) -> np.ndarray:
    """For each row phi of V, the lowest eigenvector psi of H(phi), phase-aligned to phi.

    H(phi) = beta A^2 - 2 beta a A + alpha B^2 - 2 alpha b B + (beta a^2 +
    alpha b^2) I, with squares = (A^2, B^2); np.linalg.eigh reads one
    triangle of each H.  psi is turned so that <psi|phi> is real and
    positive, or left as it is where <psi|phi> = 0.
    """
    (alpha, beta), (a, b) = variances, means
    rows, n = V.shape
    H = np.zeros((rows, n, n), dtype=complex)
    for weight, mean, M, M2 in ((beta, a, A.matrix, squares[0]), (alpha, b, B.matrix, squares[1])):
        H += weight[:, None, None] * M2
        H -= (2.0 * weight * mean)[:, None, None] * M
    H.reshape(rows, n * n)[:, :: n + 1] += (beta * a * a + alpha * b * b)[:, None]
    psi = np.linalg.eigh(H)[1][:, :, 0]
    overlap = np.vecdot(psi, V)
    modulus = np.abs(overlap)
    phase = np.divide(overlap, modulus, out=np.ones_like(overlap), where=modulus > 0.0)
    return psi * phase[:, None]


def minimize_product(
    A: Observable,
    B: Observable,
    phi0: State,
    max_iter: int = 500,
    grad_tol: float = 1e-8,
) -> OptimizeResult:
    """Over-relaxed majorize-minimize eigen-steps from phi0 (see the module docstring).

    stop_reason says why the run ended, tested in this order before each
    step: "gradient" when the tangent gradient norm is at most grad_tol
    times the matrix scale; "floor" when the eigen-step does not strictly
    lower the objective, so phi is kept (this covers f at rounding level);
    "iterations" after max_iter eigen-steps.  converged is true when the run
    stopped on the gradient test or on the floor and minimal_condition
    certifies the final state.
    """
    return _minimize(A, B, [phi0], max_iter, grad_tol)[0]


def _minimize(A, B, starts, max_iter, grad_tol) -> list:
    """One search from each start, all run in lockstep; results in start order."""
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    for phi in starts:
        _check_dims(A, B, phi)
    tol = grad_tol * max(A.scale, B.scale)
    squares = (A.matrix @ A.matrix, B.matrix @ B.matrix)
    V = np.array([phi.amplitudes for phi in starts])
    f, _, gn, variances, means = _evaluate(A, B, V)
    traces = [[value] for value in f.tolist()]
    stops = ["iterations"] * len(starts)
    steps = [max_iter] * len(starts)
    live = np.arange(len(starts))
    for it in range(max_iter):
        done = gn[live] <= tol
        for i in live[done]:
            stops[i], steps[i] = "gradient", it
        live = live[~done]
        if live.size == 0:
            break
        base = V[live]
        step = _eigenstep(A, B, squares, base, variances[:, live], means[:, live]) - base
        # Row k of base and step belongs to restart rows[k].
        rows, t = live, 1.0
        for _ in range(MAX_DOUBLINGS + 1):
            w = base + t * step
            w = w / _norms(w)[:, None]
            fw, _, gnw, var_w, mean_w = _evaluate(A, B, w)
            lower = fw < f[rows]
            if t == 1.0:
                for i in rows[~lower]:
                    stops[i], steps[i] = "floor", it + 1
                live = rows[lower]
            rows, base, step = rows[lower], base[lower], step[lower]
            V[rows], f[rows], gn[rows] = w[lower], fw[lower], gnw[lower]
            variances[:, rows], means[:, rows] = var_w[:, lower], mean_w[:, lower]
            if rows.size == 0:
                break
            t *= 2.0
        for i in live:
            traces[i].append(float(f[i]))
    results = []
    for i, phi in enumerate(starts):
        if len(traces[i]) > 1:
            phi = State(V[i])
        certificate = minimal_condition(A, B, phi)
        results.append(OptimizeResult(
            state=phi,
            value=traces[i][-1],
            iterations=steps[i],
            converged=stops[i] != "iterations" and certificate.is_minimal,
            stop_reason=stops[i],
            certificate=certificate,
            objective_trace=traces[i],
        ))
    return results


def minimize_multistart(
    A: Observable,
    B: Observable,
    phi0: State | None = None,
    restarts: int = 8,
    seed: int = 0,
    max_iter: int = 500,
    grad_tol: float = 1e-8,
) -> OptimizeResult:
    """Best of several independent searches, run in lockstep.

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
