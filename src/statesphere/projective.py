"""Fubini-Study geometry of the projective space of rays.

Distances are plain angles: arccos|<phi, psi>| ranges over [0, pi/2].
triangle_report alone multiplies them by a metric `scale`; the spin-1/2
bound quoted as pi/2 in the literature corresponds to scale 2.  A degenerate
observable's eigenstate set is measured through its eigenspaces, never
through a particular eigenbasis.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidParameter
from .hilbert import DiagonalForm, EigenSet, Observable, State, spectral


@dataclass(frozen=True)
class TriangleReport:
    """Distances phi-to-S_A, phi-to-S_B and S_A-to-S_B with the triangle slack."""

    d_phi_a: float
    d_phi_b: float
    d_a_b: float
    slack: float

    def to_dict(self) -> dict:
        return asdict(self)


def _scaled(angle: float, scale: float) -> float:
    if not (math.isfinite(scale) and scale > 0):
        raise InvalidParameter(f"scale must be positive and finite, got {scale}")
    return scale * float(angle)


def _nearest_angle(coefficients: np.ndarray, starts: np.ndarray) -> float:
    """Smallest angle from a unit vector u to an eigenspace, over the columns U^dagger u given.

    U is a whole eigenbasis whose eigenspaces begin at `starts`, as in
    EigenSet.  u's mass |U^dagger u|^2 is summed per eigenspace, and its
    angle to the nearest is atan2(sqrt(outside), sqrt(inside)), inside the
    largest mass and outside the sum of the rest: neither is a difference,
    so it keeps its digits near 0, where arccos near 1 loses half of them.
    """
    mass = np.add.reduceat(coefficients.real**2 + coefficients.imag**2, starts)
    inside = mass.max(axis=0)
    mass[mass.argmax(axis=0), np.arange(mass.shape[1])] = 0.0
    return np.arctan2(np.sqrt(mass.sum(axis=0)), np.sqrt(inside)).min(initial=np.pi / 2)


def fs_distance(phi: State, psi: State) -> float:
    """Geodesic distance between the rays of phi and psi.

    atan2(|u - v <u, v>|, |<u, v>|) is accurate near 0 too.  It is taken both
    ways round and the smaller kept, so that it is exactly symmetric.
    """
    if phi.dim != psi.dim:
        raise DimensionMismatch(f"state dims {phi.dim} != {psi.dim}")
    angles = []
    for u, v in ((phi.amplitudes, psi.amplitudes), (psi.amplitudes, phi.amplitudes)):
        c = np.vdot(v, u)  # <u, v>
        angles.append(math.atan2(np.linalg.norm(u - c * v), abs(c)))
    return min(angles)


def eigenset(A: Observable) -> EigenSet:
    """Eigenspaces of A with near-degenerate eigenvalues clustered, built once."""
    return spectral(A).eigenset


def dist_to_eigenset(A: Observable, phi: State) -> float:
    """Distance from the ray of phi to the set of eigenstates of A.

    Minimum over eigenspaces P of the angle between phi and P; zero exactly
    when phi lies in some eigenspace.
    """
    if A.dim != phi.dim:
        raise DimensionMismatch(f"operator dim {A.dim} != state dim {phi.dim}")
    s = eigenset(A)
    coefficients = s.spectrum.coefficients(phi.amplitudes[:, None])
    return _nearest_angle(coefficients, s.starts)


def eigenset_distance(A: Observable, B: Observable) -> float:
    """Distance between the eigenstate sets of A and B.

    The minimum over eigenspace pairs of their smallest principal angle;
    zero exactly when A and B share an eigenvector.  Two closed forms take
    no basis: in the same basis (grid x with x, or p with p) they share
    every basis vector, so the distance is 0; where one eigenbasis is the
    unit vectors and the other the plane waves, as for grid x and p, every
    overlap has modulus 1/sqrt(n), so with rays on both sides the distance
    is arccos(1/sqrt(n)) = atan(sqrt(n - 1)).  Otherwise a pair with a ray
    takes _nearest_angle, and pairs of wider eigenspaces take
    _smallest_angle, with the blocks of the overlap matrix stacked by shape,
    so Python iterates over the distinct (width, width) shapes, not
    eigenspace pairs.
    """
    if A.dim != B.dim:
        raise DimensionMismatch(f"operator dims {A.dim} != {B.dim}")
    a, b = eigenset(A), eigenset(B)
    forms = (a.spectrum, b.spectrum)
    if all(isinstance(s, DiagonalForm) for s in forms):
        if forms[0].fourier == forms[1].fourier:
            return 0.0
        if a.widths.max() == b.widths.max() == 1:
            return math.atan(math.sqrt(A.dim - 1))
    overlap = b.spectrum.coefficients(a.spectrum.eigenvectors)
    if a.widths.max() == 1:  # every eigenspace of A is a ray
        return _nearest_angle(overlap, b.starts)
    angle = min(_nearest_angle(overlap[:, a.starts[a.widths == 1]], b.starts),
                _nearest_angle(overlap[b.starts[b.widths == 1]].T, a.starts))
    for wb, r in b.groups:
        for wa, c in a.groups:
            if wa > 1 and wb > 1:
                angle = min(angle, _smallest_angle(overlap, r, c))
    return angle


def _smallest_angle(overlap: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> float:
    """Smallest principal angle over the eigenspace pairs (Q_k, P_l) of one shape.

    Row k of `rows` indexes Q_k's rows of the overlap matrix, row l of
    `cols` P_l's columns.  The cosines are the singular values of the block
    Q_k^H P_l (Bjorck & Golub, Math. Comp. 27, 1973); the sines are those of
    the other rows of the same columns, the part of P_l outside Q_k.  Below
    pi/4, where the largest cosine exceeds 1/sqrt(2), the angle is
    atan2(smallest sine, largest cosine), which keeps its digits near 0,
    where arccos of a cosine next to 1 loses half of them.
    """
    cos = np.linalg.svd(overlap[rows[:, None, :, None], cols[None, :, None, :]], compute_uv=False)[..., 0]
    angles = np.arccos(np.minimum(cos, 1.0))
    k, l = np.nonzero(cos * cos > 0.5)
    if k.size:
        outside = overlap[:, cols[l]].transpose(1, 0, 2)
        outside[np.arange(k.size)[:, None], rows[k]] = 0.0
        sin = np.linalg.svd(outside, compute_uv=False)[..., -1]
        angles[k, l] = np.arctan2(sin, cos[k, l])
    return angles.min()


def triangle_report(
    A: Observable, B: Observable, phi: State, scale: float = 1.0
) -> TriangleReport:
    """Triangle-inequality relation between phi, S_A and S_B, each distance times `scale`."""
    d_phi_a = _scaled(dist_to_eigenset(A, phi), scale)
    d_phi_b = _scaled(dist_to_eigenset(B, phi), scale)
    d_a_b = _scaled(eigenset_distance(A, B), scale)
    slack = d_phi_a + d_phi_b - d_a_b
    if not math.isfinite(slack):  # as it is when any distance overflowed
        raise InvalidParameter(f"scale {scale} overflows a distance or the triangle slack")
    return TriangleReport(d_phi_a, d_phi_b, d_a_b, slack)
