"""Riemannian search for minimal-uncertainty states.

Minimizes f(phi) = Var_A(phi) * Var_B(phi) over the sphere of states by
projected gradient descent with Armijo backtracking and a normalize-after-
step retraction.  The squared-product objective is smooth where the product
of deviations is not, with the same minimizers.  The objective is phase and
scale invariant, so the horizontal-projected gradient coincides with the
Euclidean gradient of f(v/|v|).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateX, DimensionMismatch
from .hilbert import Observable, State, inner, normalize
from .uncertainty import MinimalConditionResult, minimal_condition, std_dev

ARMIJO_C = 1e-4
CERT_TOL = 1e-5
SHRINK = 0.5
MAX_BACKTRACKS = 60


@dataclass(frozen=True)
class OptimizeResult:
    """Outcome of one descent run (or the best of several restarts)."""

    state: State
    value: float
    iterations: int
    converged: bool
    certificate: MinimalConditionResult
    objective_trace: list
    seed: int | None = None

    def to_dict(self) -> dict:
        out = {
            "state": [[z.real, z.imag] for z in self.state.amplitudes],
            "value": self.value,
            "iterations": self.iterations,
            "converged": self.converged,
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
    v = phi.amplitudes
    va, vb, av, bv, ma, mb = _variances(A, B, v)
    grad_va = 2.0 * (A.matrix @ av) - 4.0 * ma * av
    grad_vb = 2.0 * (B.matrix @ bv) - 4.0 * mb * bv
    g = vb * grad_va + va * grad_vb
    return g - inner(g, v) * v


def minimize_product(
    A: Observable,
    B: Observable,
    phi0: State,
    max_iter: int = 500,
    grad_tol: float = 1e-8,
) -> OptimizeResult:
    """Projected gradient descent from phi0 with monotone backtracking.

    Stops when the tangent gradient norm falls below grad_tol times the
    matrix scale, when the line search can no longer decrease the objective
    (floating-point floor), or at max_iter.  Only the gradient criterion
    sets converged=True.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    scale = max(A.scale, B.scale)
    phi = phi0
    f = objective(A, B, phi.amplitudes)
    trace = [f]
    converged = False
    it = 0
    while it < max_iter:
        g = riemannian_grad(A, B, phi)
        gn = float(np.linalg.norm(g))
        if gn <= grad_tol * scale:
            converged = True
            break
        it += 1
        step = 1.0 / gn
        accepted = False
        for _ in range(MAX_BACKTRACKS):
            cand = normalize(phi.amplitudes - step * g)
            fc = objective(A, B, cand.amplitudes)
            if fc <= f - ARMIJO_C * step * gn * gn:
                phi, f = cand, fc
                trace.append(f)
                accepted = True
                break
            step *= SHRINK
        if not accepted:
            break  # no further decrease representable
    return OptimizeResult(
        state=phi,
        value=f,
        iterations=it,
        converged=converged,
        certificate=_certificate(A, B, phi),
        objective_trace=trace,
    )


def _certificate(A, B, phi) -> MinimalConditionResult:
    """Minimality certificate, with the eigenstate edge case handled.

    When either centered tangent field vanishes (phi is an eigenstate), the
    product of deviations is exactly zero and the ratio fit is undefined;
    that is a global minimum, reported as a trivially minimal certificate.
    """
    try:
        return minimal_condition(A, B, phi, CERT_TOL)
    except DegenerateX:
        if min(std_dev(A, phi), std_dev(B, phi)) <= CERT_TOL * max(A.scale, B.scale):
            return MinimalConditionResult(0j, 0.0, True)
        return MinimalConditionResult(0j, np.inf, False)


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
