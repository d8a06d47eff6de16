"""Fubini-Study geometry of the projective space of rays.

Distances carry an explicit `scale` multiplier: the geodesic distance
arccos|<phi, psi>| at scale 1 ranges over [0, pi/2]; the spin-1/2 bound
quoted as pi/2 in the literature corresponds to scale 2.  Distances to a
degenerate observable's eigenstate set are measured against eigenspaces
(projection norms), never against a particular eigenbasis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidParameter
from .hilbert import Observable, State, inner, spectral


@dataclass(frozen=True)
class EigenSet:
    """Mutually orthogonal eigenspaces of an observable, as (value, basis) pairs."""

    eigenspaces: list


@dataclass(frozen=True)
class TriangleReport:
    """Distances phi-to-S_A, phi-to-S_B and S_A-to-S_B with the triangle slack."""

    d_phi_a: float
    d_phi_b: float
    d_a_b: float
    slack: float

    def to_dict(self) -> dict:
        return {
            "d_phi_a": self.d_phi_a,
            "d_phi_b": self.d_phi_b,
            "d_a_b": self.d_a_b,
            "slack": self.slack,
        }


def fs_distance(phi: State, psi: State, scale: float = 1.0) -> float:
    """Geodesic distance between the rays of phi and psi."""
    if phi.dim != psi.dim:
        raise DimensionMismatch(f"state dims {phi.dim} != {psi.dim}")
    if scale <= 0:
        raise InvalidParameter(f"scale must be positive, got {scale}")
    overlap = min(abs(inner(phi.amplitudes, psi.amplitudes)), 1.0)
    return scale * float(np.arccos(overlap))


def horizontal(xi, phi: State) -> np.ndarray:
    """Component of xi orthogonal to the phase fibre through phi.

    Applied to -i A phi this returns the centered tangent field -i(A - <A>)phi.
    """
    xi = np.asarray(xi, dtype=complex).ravel()
    if xi.size != phi.dim:
        raise DimensionMismatch(f"vector dim {xi.size} != state dim {phi.dim}")
    return xi - inner(xi, phi.amplitudes) * phi.amplitudes


def eigenset(A: Observable) -> EigenSet:
    """Eigenspaces of A with near-degenerate eigenvalues clustered."""
    return EigenSet(spectral(A).eigenspaces())


def _as_eigenset(A) -> EigenSet:
    return A if isinstance(A, EigenSet) else eigenset(A)


def dist_to_eigenset(A, phi: State, scale: float = 1.0) -> float:
    """Distance from the ray of phi to the set of eigenstates of A.

    Minimum over eigenspaces P of scale * arccos(|P phi|); zero exactly when
    phi lies in some eigenspace.
    """
    if scale <= 0:
        raise InvalidParameter(f"scale must be positive, got {scale}")
    es = _as_eigenset(A)
    overlaps = []
    for _val, basis in es.eigenspaces:
        if basis.shape[0] != phi.dim:
            raise DimensionMismatch("eigenspace and state dims differ")
        overlaps.append(min(float(np.linalg.norm(basis.conj().T @ phi.amplitudes)), 1.0))
    best = max(overlaps)
    return scale * float(np.arccos(best))


def eigenset_distance(A: Observable, B: Observable, scale: float = 1.0) -> float:
    """Distance between the eigenstate sets of A and B.

    For each eigenspace pair the closest rays are separated by the smallest
    principal angle, arccos of the largest singular value of the basis
    overlap matrix; the set distance is the minimum over all pairs.  Zero
    exactly when A and B share an eigenvector.
    """
    if A.dim != B.dim:
        raise DimensionMismatch(f"operator dims {A.dim} != {B.dim}")
    if scale <= 0:
        raise InvalidParameter(f"scale must be positive, got {scale}")
    spaces_a = eigenset(A).eigenspaces
    spaces_b = eigenset(B).eigenspaces
    overlaps = []
    for _va, pa in spaces_a:
        for _vb, pb in spaces_b:
            smax = float(np.linalg.norm(pb.conj().T @ pa, ord=2))
            overlaps.append(min(smax, 1.0))
    best = max(overlaps)
    return scale * float(np.arccos(best))


def triangle_report(
    A: Observable, B: Observable, phi: State, scale: float = 1.0
) -> TriangleReport:
    """Triangle-inequality uncertainty relation between phi, S_A and S_B."""
    d_phi_a = dist_to_eigenset(A, phi, scale)
    d_phi_b = dist_to_eigenset(B, phi, scale)
    d_a_b = eigenset_distance(A, B, scale)
    return TriangleReport(d_phi_a, d_phi_b, d_a_b, d_phi_a + d_phi_b - d_a_b)
