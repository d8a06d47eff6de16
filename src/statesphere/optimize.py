"""Majorize-minimize search for minimal-uncertainty states.

Minimizes f(phi) = Var_A(phi) * Var_B(phi) over the sphere of states.  At
phi, with means a and b and variances alpha = Var_A and beta = Var_B, a step
takes psi, the eigenvector of the smallest eigenvalue of

    H(phi) = beta (A - a)^2 + alpha (B - b)^2,

by one step of inverse iteration from phi with a shift below the spectrum
of H.  Such a step never raises the Rayleigh quotient, so beta Var_A(psi) +
alpha Var_B(psi) <= <psi|H|psi> <= <phi|H|phi> = 2 alpha beta however far
it converges, and by AM-GM Var_A(psi) Var_B(psi) <= alpha beta: the step
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
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatch
from .hilbert import Observable, State, normalize
from .uncertainty import MinimalConditionResult, minimal_condition

# Over-relaxation doublings tried after the plain step, t = 2 ... 2**40.
MAX_DOUBLINGS = 40
# The gradient stop: the tangent gradient norm at most GRAD_TOL times the
# larger matrix scale.
GRAD_TOL = 1e-8


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


def _dense(A: Observable, B: Observable):
    """A's and B's matrices as C-contiguous arrays, for BLAS.

    A grid p's matrix is a strided view, which numpy's matmul multiplies by
    a slower loop that also sums in another order; a dense observable's
    matrix is returned as it is, with no copy.
    """
    return np.ascontiguousarray(A.matrix), np.ascontiguousarray(B.matrix)


def _variances(a: np.ndarray, b: np.ndarray, v: np.ndarray):
    """Variances of the matrices a and b on v read as a ray, with (a v, b v) and the means."""
    n2 = np.vdot(v, v).real
    products = (a @ v, b @ v)
    means = tuple(np.vdot(v, w).real / n2 for w in products)
    # max(x, 0.0) clamps rounding below zero and keeps a NaN or a -0.0
    variances = tuple(max(np.vdot(w, w).real / n2 - m * m, 0.0) for w, m in zip(products, means))
    return variances, products, means


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of v, taken after dividing by its largest modulus.

    The gradient is of degree 4 in the operators, so its squared entries can
    overflow where the entries themselves do not.  A subnormal peak is first
    raised by an exact power of two: complex division takes the reciprocal of
    the divisor, which overflows there.
    """
    peak = np.abs(v).max()
    if 0.0 < peak < np.finfo(float).tiny:
        return _norm(v * 2.0**600) / 2.0**600
    scaled = v / (peak if peak > 0.0 else 1.0)
    return peak * np.sqrt(np.vdot(scaled, scaled).real)


def _gradient(a: np.ndarray, b: np.ndarray, v: np.ndarray, variances, products, means):
    """riemannian_grad at v, from what _variances(a, b, v) returns."""
    (va, vb), (av, bv), (ma, mb) = variances, products, means
    grad_a = 2.0 * (a @ av) - 4.0 * ma * av
    grad_b = 2.0 * (b @ bv) - 4.0 * mb * bv
    xi = vb * grad_a + va * grad_b
    return xi - np.vdot(v, xi) * v


def objective(A: Observable, B: Observable, v) -> float:
    """Product of variances of A and B on the normalized vector."""
    (va, vb), *_ = _variances(*_dense(A, B), np.asarray(v, dtype=complex).ravel())
    return float(va * vb)


def riemannian_grad(A: Observable, B: Observable, phi: State) -> np.ndarray:
    """Gradient of the variance product in the tangent space of the ray.

    Assembled from the Euclidean gradient with respect to the real and
    imaginary parts of phi, then stripped of its complex component along
    phi (which removes both the radial and the phase-fibre directions).
    """
    _check_dims(A, B, phi)
    a, b = _dense(A, B)
    return _gradient(a, b, phi.amplitudes, *_variances(a, b, phi.amplitudes))


def _check_dims(A: Observable, B: Observable, phi: State) -> None:
    if A.dim != B.dim:
        raise DimensionMismatch(f"operator dims {A.dim} != {B.dim}")
    if A.dim != phi.dim:
        raise DimensionMismatch(f"operator dim {A.dim} != state dim {phi.dim}")


def _eigenstep(A, B, squares, v, variances, means) -> np.ndarray:
    """The lowest eigenvector psi of H(v) by one inverse-iteration solve, phase-aligned to v.

    H(v) = beta A^2 - 2 beta a A + alpha B^2 - 2 alpha b B + (beta a^2 +
    alpha b^2) I, with A and B as matrices and squares = (A^2, B^2).
    np.linalg.eigvalsh gives its lowest eigenvalue lambda_0 and its largest
    magnitude lambda_max, and psi solves (H - sigma I) psi = v with sigma =
    lambda_0 - 2 n eps lambda_max, just below the spectrum; the solve is on
    H / lambda_max, so psi's size does not depend on the entries' scale.
    Inverse iteration with sigma below the spectrum only shifts weight to
    lower eigenvalues, so <psi|H|psi> <= <v|H|v> however far it converges,
    and the other eigenvectors keep a share of about 2 n eps lambda_max /
    gap times the tangent of v's angle to the ground state.  Where H = 0
    every state is a ground state, and v is returned.  psi is turned so
    that <psi|v> is real and positive, or left as it is where <psi|v> = 0.
    """
    (alpha, beta), (a, b) = variances, means
    n = v.size
    H = np.zeros((n, n), dtype=complex)
    for weight, mean, M, M2 in ((beta, a, A, squares[0]), (alpha, b, B, squares[1])):
        H += weight * M2
        H -= (2.0 * weight * mean) * M
    H.reshape(n * n)[:: n + 1] += beta * a * a + alpha * b * b
    values = np.linalg.eigvalsh(H)
    lowest, top = values[0], max(-values[0], values[-1])
    if top == 0.0:
        return v
    H /= top
    H.reshape(n * n)[:: n + 1] -= lowest / top - 2 * n * np.finfo(float).eps
    psi = np.linalg.solve(H, v)
    psi /= np.linalg.norm(psi)
    overlap = np.vdot(psi, v)
    # np.abs, not abs(): the builtin rounds a NumPy complex scalar differently
    modulus = np.abs(overlap)
    return psi * (overlap / modulus) if modulus > 0.0 else psi


def minimize_product(
    A: Observable,
    B: Observable,
    phi0: State,
    max_iter: int = 500,
) -> OptimizeResult:
    """Over-relaxed majorize-minimize eigen-steps from phi0 (see the module docstring).

    stop_reason says why the run ended, tested in this order before each
    step: "gradient" when the tangent gradient norm is at most GRAD_TOL
    times the matrix scale; "floor" when the eigen-step does not strictly
    lower the objective, so phi is kept (this covers f at rounding level);
    "iterations" after max_iter eigen-steps.  converged is true when the run
    stopped on the gradient test or on the floor and minimal_condition
    certifies the final state.
    """
    return _minimize(A, B, [phi0], max_iter)[0]


def _minimize(A, B, starts, max_iter) -> list:
    """One search from each start, in start order; A^2 and B^2 are formed once, by A's and B's matvecs."""
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    for phi in starts:
        _check_dims(A, B, phi)
    tol = GRAD_TOL * max(A.scale, B.scale)
    a, b = _dense(A, B)
    squares = (A.apply(a), B.apply(b))
    return [_search(A, B, (a, b), squares, phi, max_iter, tol) for phi in starts]


def _search(A, B, matrices, squares, phi, max_iter, tol) -> OptimizeResult:
    """minimize_product from phi, given _dense(A, B), their squares and the gradient tolerance."""
    a, b = matrices
    v = phi.amplitudes
    variances, products, means = _variances(a, b, v)
    f = variances[0] * variances[1]
    trace = [float(f)]
    stop, steps = "iterations", max_iter
    for it in range(max_iter):
        if _norm(_gradient(a, b, v, variances, products, means)) <= tol:
            stop, steps = "gradient", it
            break
        base, t = v, 1.0
        step = _eigenstep(a, b, squares, base, variances, means) - base
        for _ in range(MAX_DOUBLINGS + 1):
            w = base + t * step
            w = w / _norm(w)
            var_w, prod_w, mean_w = _variances(a, b, w)
            fw = var_w[0] * var_w[1]
            if not fw < f:
                break
            v, f, variances, products, means = w, fw, var_w, prod_w, mean_w
            t *= 2.0
        if v is base:
            stop, steps = "floor", it + 1
            break
        trace.append(float(f))
    if len(trace) > 1:
        phi = State(v)
    certificate = minimal_condition(A, B, phi)
    return OptimizeResult(
        state=phi,
        value=trace[-1],
        iterations=steps,
        converged=stop != "iterations" and certificate.is_minimal,
        stop_reason=stop,
        certificate=certificate,
        objective_trace=trace,
    )


def minimize_multistart(
    A: Observable,
    B: Observable,
    phi0: State | None = None,
    restarts: int = 8,
    seed: int = 0,
    max_iter: int = 500,
) -> OptimizeResult:
    """Best of several independent searches, run one after another.

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
        _minimize(A, B, starts, max_iter),
        key=lambda res: (not res.certificate.is_minimal, res.value),
    )
    return replace(best, seed=seed)
