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
# A centred field whose norm is below this is lifted by a power of two
# before its squares are taken, which could underflow.
LIFT_BELOW = 2.0**-200


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


def _lifted(u: np.ndarray) -> tuple:
    """(u * 2**k, its norm, k), with k = 0 unless |u| < LIFT_BELOW.

    Such a u is lifted until its largest modulus lies in [1/2, 1), so no
    square of its entries underflows.  A power of two scales exactly: the
    norm of u is that of the lifted u times 2**-k.
    """
    norm = float(np.linalg.norm(u))
    peak = float(np.max(np.abs(u))) if norm < LIFT_BELOW else 0.0
    if peak == 0.0:
        return u, norm, 0
    k = -math.frexp(peak)[1]
    u = _ldexp(u, k)
    return u, float(np.linalg.norm(u)), k


def _ldexp(u: np.ndarray, k: int) -> np.ndarray:
    """The complex array u times 2**k, part by part."""
    return np.ldexp(np.ascontiguousarray(u).view(np.float64), k).view(np.complex128)


def std_dev(A: Observable, phi: State) -> float:
    """Standard deviation of A in phi: the norm of the centered tangent field.

    Equals sqrt(<A^2> - <A>^2) and the projective-space speed of the flow
    generated by A; vanishes exactly at eigenstates.  A field of norm below
    LIFT_BELOW is lifted by a power of two before its squares are taken, so
    a deviation as small as 1e-300 is not lost to underflow.
    """
    _, norm, k = _lifted(centered_field(A, phi))
    return math.ldexp(norm, -k)


def relations_report(A: Observable, B: Observable, phi: State) -> UncertaintyReport:
    """All uncertainty relations for the triple (A, B, phi) in one report.

    theta = atan2(area, metric_term) in [0, pi] splits the product of
    deviations into the area (sin) and metric (cos) parts; when the product
    degenerates to zero, theta is reported as 0.

    The centred fields are lifted by powers of two 2**kx and 2**ky where
    their norms are below LIFT_BELOW (see _lifted), every term is computed
    from the lifted fields, and each is scaled back by its own power of two,
    exactly.  So no square underflows on the way, and a printed field loses
    digits to underflow only where its own value is below the smallest
    normal double.  theta's degeneracy test reads the lifted norms.
    """
    if A.dim != B.dim:
        raise DimensionMismatch(f"operator dims {A.dim} != {B.dim}")
    a_c = centered(A, phi)
    b_c = centered(B, phi)
    v, da, kx = _lifted(a_c(phi.amplitudes))
    w, db, ky = _lifted(b_c(phi.amplitudes))
    X = -1j * v
    Y = -1j * w
    g = metric_g(X, Y)
    area = parallelogram_area(X, Y)

    # <[A,B]> and <{A,B}> of the centred pair from the second products
    # A_c(B_c phi) and B_c(A_c phi), lifted by 2**ky and 2**kx: no n x n
    # product is formed.  Both are brought down to 2**min(kx, ky) before
    # they are combined, and the halves lifted by 2**max(kx, ky) as scalars,
    # so a product's component orthogonal to phi, of size scale * 2**k,
    # does not overflow.
    m = max(kx, ky)
    ab = a_c(w)
    ba = b_c(v)
    if m:
        ab, ba = _ldexp(ab, kx - m), _ldexp(ba, ky - m)
    comm_half = math.ldexp(0.5 * abs(inner(ab - ba, phi.amplitudes)), m)
    anti_half = math.ldexp(0.5 * abs(inner(ab + ba, phi.amplitudes)), m)
    k = kx + ky
    scale = max(A.scale, B.scale)
    if abs(math.ldexp(comm_half - abs(symplectic(X, Y)), -k)) > 1e-10 * scale**2:
        raise GeometryError(
            "commutator term disagrees between the second products "
            "A_c(B_c phi), B_c(A_c phi) and the symplectic form of X, Y"
        )

    theta = 0.0 if da * db <= 1e-300 else math.atan2(area, g)
    return UncertaintyReport(
        delta_a=math.ldexp(da, -kx),
        delta_b=math.ldexp(db, -ky),
        area=math.ldexp(area, -k),
        metric_term=math.ldexp(g, -k),
        commutator_half=math.ldexp(comm_half, -k),
        anticommutator_half=math.ldexp(anti_half, -k),
        identity_residual=math.ldexp(da * da * db * db - area * area - g * g, -2 * k),
        theta=theta,
        robertson_slack=math.ldexp(da * db - comm_half, -k),
        schrodinger_slack=math.ldexp(da * da * db * db - comm_half**2 - anti_half**2, -2 * k),
        area_bound_slack=math.ldexp(area - comm_half, -k),
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
