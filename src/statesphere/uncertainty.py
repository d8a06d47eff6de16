"""Uncertainty geometry on the sphere of states.

The centered tangent fields X = -i(A - <A>)phi and Y = -i(B - <B>)phi carry
the whole story: their norms are the standard deviations, the symplectic
form gives the commutator term, the metric the anticommutator term, and the
parallelogram area closes the identity

    dA^2 dB^2 = area^2 + G(X, Y)^2.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DimensionMismatch, GeometryError
from .hilbert import Observable, State, centered, inner
from .realify import metric_g, parallelogram_area, symplectic

# Relative tolerance of the minimality certificate, and the deviation, in
# units of the matrix scale, below which a state counts as an eigenstate.
CERT_TOL = 1e-5


@dataclass(frozen=True)
class UncertaintyReport:
    """Every scalar of the Robertson / strengthened / area relations for one triple."""

    delta_a: float
    delta_b: float
    area: float
    metric_term: float
    commutator_half: float
    anticommutator_half: float
    identity_residual: float
    theta: float
    robertson_slack: float
    schrodinger_slack: float
    area_bound_slack: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class MinimalConditionResult:
    """Least-squares fit Y ~ lambda * X and the purely-imaginary test."""

    lam: complex
    residual: float
    is_minimal: bool

    @property
    def re_lambda(self) -> float:
        return self.lam.real

    def to_dict(self) -> dict:
        return {
            "lambda": [self.lam.real, self.lam.imag],
            "residual": self.residual,
            "re_lambda": self.re_lambda,
            "is_minimal": self.is_minimal,
        }


def centered_field(A: Observable, phi: State) -> np.ndarray:
    """The centered tangent field -i(A - <A>)phi.

    It is horizontal: orthogonal to the whole phase fibre through phi, i.e.
    inner(field, phi) = 0 in both parts.
    """
    return -1j * centered(A, phi)(phi.amplitudes)


def std_dev(A: Observable, phi: State) -> float:
    """Standard deviation of A in phi: the norm of the centered tangent field.

    Equals sqrt(<A^2> - <A>^2) and the projective-space speed of the flow
    generated by A; vanishes exactly at eigenstates.
    """
    return float(np.linalg.norm(centered_field(A, phi)))


def relations_report(A: Observable, B: Observable, phi: State) -> UncertaintyReport:
    """All uncertainty relations for the triple (A, B, phi) in one report.

    theta = atan2(area, metric_term) in [0, pi] splits the product of
    deviations into the area (sin) and metric (cos) parts; when the product
    degenerates to zero, theta is reported as 0.
    """
    if A.dim != B.dim:
        raise DimensionMismatch(f"operator dims {A.dim} != {B.dim}")
    a_c = centered(A, phi)
    b_c = centered(B, phi)
    v = a_c(phi.amplitudes)
    w = b_c(phi.amplitudes)
    X = -1j * v
    Y = -1j * w
    da = float(np.linalg.norm(X))
    db = float(np.linalg.norm(Y))
    g = metric_g(X, Y)
    area = parallelogram_area(X, Y)

    # <[A,B]> and <{A,B}> of the centred pair from the second products
    # A_c(B_c phi) and B_c(A_c phi): no n x n product is formed.
    ab = a_c(w)
    ba = b_c(v)
    scale = max(A.scale, B.scale)
    comm_half = 0.5 * abs(inner(ab - ba, phi.amplitudes))
    comm_half_symp = abs(symplectic(X, Y))
    if abs(comm_half - comm_half_symp) > 1e-10 * scale**2:
        raise GeometryError(
            "commutator term disagrees between the second products "
            "A_c(B_c phi), B_c(A_c phi) and the symplectic form of X, Y"
        )
    anti_half = 0.5 * abs(inner(ab + ba, phi.amplitudes))

    theta = 0.0 if da * db <= 1e-300 else math.atan2(area, g)
    return UncertaintyReport(
        delta_a=da,
        delta_b=db,
        area=area,
        metric_term=g,
        commutator_half=comm_half,
        anticommutator_half=anti_half,
        identity_residual=da * da * db * db - area * area - g * g,
        theta=theta,
        robertson_slack=da * db - comm_half,
        schrodinger_slack=da * da * db * db - comm_half**2 - anti_half**2,
        area_bound_slack=area - comm_half,
    )


def minimal_condition(A: Observable, B: Observable, phi: State) -> MinimalConditionResult:
    """Certify the minimal-uncertainty condition Y = lambda X with imaginary lambda.

    X and Y are the centered tangent fields of A and B, each built once.
    When either norm (a standard deviation) is at most CERT_TOL times the
    larger matrix scale, phi is an eigenstate of A or of B: the product of
    deviations vanishes, a global minimum, and the certificate is trivially
    minimal.  Otherwise lambda is the least-squares coefficient of Y on X,
    the residual |Y - lambda X| is relative to |Y|, and phi is minimal when
    both the residual and the real part of lambda (relative to |lambda|)
    are within CERT_TOL.
    """
    X = centered_field(A, phi)
    Y = centered_field(B, phi)
    nx = float(np.linalg.norm(X))
    ny = float(np.linalg.norm(Y))
    if min(nx, ny) <= CERT_TOL * max(A.scale, B.scale):
        return MinimalConditionResult(0j, 0.0, True)
    lam = inner(Y, X) / (nx * nx)
    residual = float(np.linalg.norm(Y - lam * X)) / ny
    is_minimal = residual <= CERT_TOL and abs(lam.real) <= CERT_TOL * abs(lam)
    return MinimalConditionResult(complex(lam), residual, bool(is_minimal))
