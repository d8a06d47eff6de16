"""Realification of the complex space.

Read as a 2n real vector, a complex n-vector carries the real part of the
complex inner product as the Riemannian metric G and the imaginary part as
the symplectic form.  Parallelogram areas are computed by the Gram formula.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch
from .hilbert import inner


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
