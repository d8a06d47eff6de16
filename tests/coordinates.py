"""Coordinate oracles for the realified space.

The package computes areas and the metric from complex inner products; the
tests check them against explicit real coordinates built here.
"""

from dataclasses import dataclass

import numpy as np

from statesphere import DimensionMismatch, ZeroVector, inner


def realize(xi) -> np.ndarray:
    """Interleaved coordinates (Re z_1, Im z_1, Re z_2, Im z_2, ...); an isometry."""
    return np.asarray(xi, dtype=complex).ravel().view(float)


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
