"""Realification of the complex space.

A complex n-vector becomes a 2n real vector with interleaved layout
(Re z_1, Im z_1, Re z_2, Im z_2, ...).  The real part of the complex inner
product becomes the Riemannian metric G, the imaginary part the symplectic
form.  Parallelogram areas are computed by the Gram formula; the coordinate
pair-sum survives only as a test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, ZeroVector
from .hilbert import inner

@dataclass(frozen=True)
class RealizedVector:
    """Interleaved Re/Im coordinates; the map is an isometry."""

    coords: np.ndarray


@dataclass(frozen=True)
class AdaptedCoordinates:
    """Coordinates of X, Y in the adapted orthonormal basis.

    The basis is chosen so that e_1 points along X and the complex span of
    {e_1, e_2} contains Y; in the realified basis (e_1, i e_1, e_2, i e_2)
    the first vector has coordinates (|X|, 0, 0, 0).  Only magnitude-level
    statements about the y-coordinates are convention-free.
    """

    x: np.ndarray
    y: np.ndarray


def realize(xi) -> RealizedVector:
    xi = np.asarray(xi, dtype=complex).ravel()
    out = np.empty(2 * xi.size)
    out[0::2] = xi.real
    out[1::2] = xi.imag
    return RealizedVector(out)


def metric_g(xi, eta) -> float:
    """Riemannian metric: Re of the inner product (Euclidean dot of realizations)."""
    return inner(xi, eta).real


def symplectic(xi, eta) -> float:
    """Anti-symmetric 2-form: Im of the inner product."""
    return inner(xi, eta).imag


def parallelogram_area(xi, eta) -> float:
    """Area of the parallelogram spanned by the realizations of xi, eta.

    Gram formula sqrt(|xi|^2 |eta|^2 - G(xi,eta)^2); a slightly negative
    radicand from floating-point Cauchy-Schwarz violation is clamped to 0.
    """
    xi = np.asarray(xi, dtype=complex).ravel()
    eta = np.asarray(eta, dtype=complex).ravel()
    if xi.size != eta.size:
        raise DimensionMismatch(f"lengths {xi.size} != {eta.size}")
    n2x = float(np.real(np.vdot(xi, xi)))
    n2y = float(np.real(np.vdot(eta, eta)))
    g = metric_g(xi, eta)
    rad = n2x * n2y - g * g
    if rad < 0.0:
        rad = 0.0
    return float(np.sqrt(rad))


def adapted_basis(X, Y) -> AdaptedCoordinates:
    """Coordinates of X and Y in the basis adapted to their complex span.

    e_1 = X/|X|; e_2 completes the span of {X, Y} by Gram-Schmidt.  The
    coordinates are the realified complex components, so the symplectic
    form of (X, Y) equals -x_1 * y_2 and the product of squared norms
    equals x_1^2 * (y_1^2 + y_2^2 + y_3^2 + y_4^2).
    """
    X = np.asarray(X, dtype=complex).ravel()
    Y = np.asarray(Y, dtype=complex).ravel()
    if X.size != Y.size:
        raise DimensionMismatch(f"lengths {X.size} != {Y.size}")
    nx = float(np.linalg.norm(X))
    if nx <= 1e-12:
        raise ZeroVector("adapted basis needs a nonzero first vector")
    e1 = X / nx
    c1 = inner(Y, e1)
    resid = Y - c1 * e1
    nr = float(np.linalg.norm(resid))
    ny = float(np.linalg.norm(Y))
    if nr < 1e-12 * max(ny, 1.0):
        # Y lies in the complex line of X; e_2 is arbitrary.
        y = np.array([c1.real, c1.imag, 0.0, 0.0])
    else:
        e2 = resid / nr
        c2 = inner(Y, e2)
        y = np.array([c1.real, c1.imag, c2.real, c2.imag])
    x = np.array([nx, 0.0, 0.0, 0.0])
    return AdaptedCoordinates(x, y)
