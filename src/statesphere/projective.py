"""Fubini-Study geometry of the projective space of rays.

Distances carry an explicit `scale` multiplier: the geodesic distance
arccos|<phi, psi>| at scale 1 ranges over [0, pi/2]; the spin-1/2 bound
quoted as pi/2 in the literature corresponds to scale 2.  Every distance is
one distance between sets of rays: a state is the one-ray set of its
projector's eigenspace, and a degenerate observable's eigenstate set is
measured through its eigenspaces, never through a particular eigenbasis.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidParameter
from .hilbert import EigenSet, Observable, SpectralDecomposition, State, spectral


@dataclass(frozen=True)
class TriangleReport:
    """Distances phi-to-S_A, phi-to-S_B and S_A-to-S_B with the triangle slack."""

    d_phi_a: float
    d_phi_b: float
    d_a_b: float
    slack: float

    def to_dict(self) -> dict:
        return asdict(self)


def _ray(phi: State) -> EigenSet:
    """The ray of phi, the one eigenspace of |phi><phi| with eigenvalue 1."""
    return EigenSet(SpectralDecomposition(np.ones(1), phi.amplitudes[:, None]))


def _set_distance(rows: EigenSet, cols: EigenSet, scale: float) -> float:
    """scale * arccos of the largest cosine of a principal angle between the sets.

    For each eigenspace pair (P, Q) the closest rays are separated by the
    smallest principal angle, arccos of the largest singular value of the
    block P^H Q of the one overlap matrix rows.coefficients(cols.basis)
    (Bjorck & Golub, Math. Comp. 27, 1973).  Blocks of one shape are
    gathered into a stack and reduced together, so Python iterates over the
    distinct (width, width) shapes, never over eigenspace pairs.
    """
    if not (math.isfinite(scale) and scale > 0):
        raise InvalidParameter(f"scale must be positive and finite, got {scale}")
    overlap = rows.coefficients(cols.basis)
    if rows.rays and cols.rays:
        # each block is one entry, whose modulus is its singular value: no gather
        best = math.sqrt((overlap.real**2 + overlap.imag**2).max())
        return scale * float(np.arccos(min(best, 1.0)))
    best = 0.0
    for wr, r in rows.groups:
        for wc, c in cols.groups:
            blocks = overlap[r[:, None, :, None], c[None, :, None, :]]
            if wr == 1 or wc == 1:
                # a single row or column has its length as singular value
                smax = np.sqrt((blocks.real**2 + blocks.imag**2).sum(axis=(-2, -1)).max())
            else:
                smax = np.linalg.svd(blocks, compute_uv=False)[..., 0].max()
            best = max(best, float(smax))
    return scale * float(np.arccos(min(best, 1.0)))


def fs_distance(phi: State, psi: State, scale: float = 1.0) -> float:
    """Geodesic distance between the rays of phi and psi."""
    if phi.dim != psi.dim:
        raise DimensionMismatch(f"state dims {phi.dim} != {psi.dim}")
    return _set_distance(_ray(psi), _ray(phi), scale)


def eigenset(A: Observable) -> EigenSet:
    """Eigenspaces of A with near-degenerate eigenvalues clustered, built once."""
    return spectral(A).eigenset


def dist_to_eigenset(A: Observable, phi: State, scale: float = 1.0) -> float:
    """Distance from the ray of phi to the set of eigenstates of A.

    Minimum over eigenspaces P of scale * arccos(|P^H phi|); zero exactly
    when phi lies in some eigenspace.
    """
    if A.dim != phi.dim:
        raise DimensionMismatch(f"operator dim {A.dim} != state dim {phi.dim}")
    return _set_distance(eigenset(A), _ray(phi), scale)


def eigenset_distance(A: Observable, B: Observable, scale: float = 1.0) -> float:
    """Distance between the eigenstate sets of A and B.

    The minimum over eigenspace pairs of their smallest principal angle;
    zero exactly when A and B share an eigenvector.
    """
    if A.dim != B.dim:
        raise DimensionMismatch(f"operator dims {A.dim} != {B.dim}")
    return _set_distance(eigenset(B), eigenset(A), scale)


def triangle_report(
    A: Observable, B: Observable, phi: State, scale: float = 1.0
) -> TriangleReport:
    """Triangle-inequality uncertainty relation between phi, S_A and S_B."""
    d_phi_a = dist_to_eigenset(A, phi, scale)
    d_phi_b = dist_to_eigenset(B, phi, scale)
    d_a_b = eigenset_distance(A, B, scale)
    slack = d_phi_a + d_phi_b - d_a_b
    if not math.isfinite(slack):  # as it is when any distance overflowed
        raise InvalidParameter(f"scale {scale} overflows a distance or the triangle slack")
    return TriangleReport(d_phi_a, d_phi_b, d_a_b, slack)
