"""Realification of the complex space.

Read as a 2n real vector, a complex n-vector carries the real part of the
complex inner product as the Riemannian metric G and the imaginary part as
the symplectic form.  Parallelogram areas are computed by the Gram formula.
"""

from __future__ import annotations

import math

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
    g = metric_g(xi, eta)
    rad = metric_g(xi, xi) * metric_g(eta, eta) - g * g
    return math.sqrt(max(rad, 0.0))
