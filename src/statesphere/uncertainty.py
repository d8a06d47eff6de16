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

from .errors import DegenerateX, DimensionMismatch, GeometryError
from .hilbert import Observable, State, brackets, centered, inner
from .realify import metric_g, parallelogram_area, symplectic

@dataclass(frozen=True)
class TangentVector:
    """Complex vector attached at a state.

    Centered fields are horizontal: orthogonal to the whole phase fibre
    through the state, i.e. inner(vec, phi) = 0 in both parts.
    """

    at: State
    vec: np.ndarray


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
    degenerate: bool = False

    def to_dict(self) -> dict:
        """The printed fields in declaration order; `degenerate` is not printed."""
        fields = asdict(self)
        del fields["degenerate"]
        return fields


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


def tangent_field(A: Observable, phi: State, center: bool) -> TangentVector:
    """The field -i A phi, optionally with the mean of A subtracted first."""
    if A.dim != phi.dim:
        raise DimensionMismatch(f"operator dim {A.dim} != state dim {phi.dim}")
    op = centered(A, phi) if center else A
    return TangentVector(phi, -1j * (op.matrix @ phi.amplitudes))


def std_dev(A: Observable, phi: State) -> float:
    """Standard deviation of A in phi: the norm of the centered tangent field.

    Equals sqrt(<A^2> - <A>^2) and the projective-space speed of the flow
    generated by A; vanishes exactly at eigenstates.
    """
    return float(np.linalg.norm(tangent_field(A, phi, True).vec))


def relations_report(A: Observable, B: Observable, phi: State) -> UncertaintyReport:
    """All uncertainty relations for the triple (A, B, phi) in one report.

    theta = atan2(area, metric_term) in [0, pi] splits the product of
    deviations into the area (sin) and metric (cos) parts; when the product
    degenerates to zero, theta is reported as 0 and the report is flagged.
    """
    if A.dim != B.dim:
        raise DimensionMismatch(f"operator dims {A.dim} != {B.dim}")
    a_c = centered(A, phi)
    b_c = centered(B, phi)
    X = -1j * (a_c.matrix @ phi.amplitudes)
    Y = -1j * (b_c.matrix @ phi.amplitudes)
    da = float(np.linalg.norm(X))
    db = float(np.linalg.norm(Y))
    g = metric_g(X, Y)
    area = parallelogram_area(X, Y)

    comm, anti = brackets(a_c, b_c)
    scale = max(A.scale, B.scale)
    comm_half = 0.5 * abs(inner(comm @ phi.amplitudes, phi.amplitudes))
    comm_half_symp = abs(symplectic(X, Y))
    if abs(comm_half - comm_half_symp) > 1e-10 * scale**2:
        raise GeometryError(
            "commutator term disagrees between spectral and symplectic routes"
        )
    anti_half = 0.5 * abs(inner(anti @ phi.amplitudes, phi.amplitudes))

    degenerate = da * db <= 1e-300
    theta = 0.0 if degenerate else math.atan2(area, g)
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
        degenerate=degenerate,
    )


def minimal_condition(
    A: Observable, B: Observable, phi: State, tol: float = 1e-6
) -> MinimalConditionResult:
    """Test the minimal-uncertainty condition Y = lambda X with imaginary lambda.

    lambda is the least-squares coefficient of Y on X (both centered tangent
    fields); the residual is relative to |Y|.  A state is flagged minimal
    when the fit is tight and lambda is purely imaginary within tolerance.
    """
    X = tangent_field(A, phi, True).vec
    Y = tangent_field(B, phi, True).vec
    nx = float(np.linalg.norm(X))
    scale = max(A.scale, B.scale)
    if nx <= tol * scale:
        raise DegenerateX(f"|X| = {nx:.3e} too small to fit Y = lambda X")
    lam = inner(Y, X) / (nx * nx)
    ny = float(np.linalg.norm(Y))
    residual = float(np.linalg.norm(Y - lam * X)) / max(ny, tol)
    is_minimal = residual <= tol and (
        lam == 0 or abs(lam.real) <= tol * abs(lam)
    )
    return MinimalConditionResult(
        lam=complex(lam),
        residual=residual,
        is_minimal=bool(is_minimal),
    )
