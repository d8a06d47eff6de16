"""Fubini-Study geometry of the projective space of rays.

Distances carry an explicit `scale` multiplier: the geodesic distance
arccos|<phi, psi>| at scale 1 ranges over [0, pi/2]; the spin-1/2 bound
quoted as pi/2 in the literature corresponds to scale 2.  Distances to a
degenerate observable's eigenstate set are measured against eigenspaces
(projection norms), never against a particular eigenbasis.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidParameter
from .hilbert import Observable, State, inner, spectral


@dataclass(frozen=True)
class EigenSet:
    """Mutually orthogonal eigenspaces of an observable.

    The orthonormal bases of the eigenspaces sit side by side in the columns
    of `basis`: eigenspace k spans the columns from starts[k] up to the next
    start and has eigenvalue values[k].
    """

    values: np.ndarray
    starts: np.ndarray
    basis: np.ndarray

    @property
    def widths(self) -> np.ndarray:
        """Dimension of each eigenspace."""
        return np.diff(self.starts, append=self.basis.shape[1])

    @property
    def eigenspaces(self) -> list:
        """(value, basis) pairs, one per eigenspace."""
        return list(zip(self.values.tolist(), np.split(self.basis, self.starts[1:], axis=1)))


@dataclass(frozen=True)
class TriangleReport:
    """Distances phi-to-S_A, phi-to-S_B and S_A-to-S_B with the triangle slack."""

    d_phi_a: float
    d_phi_b: float
    d_a_b: float
    slack: float

    def to_dict(self) -> dict:
        return asdict(self)


def _require_scale(scale: float) -> None:
    if not (math.isfinite(scale) and scale > 0):
        raise InvalidParameter(f"scale must be positive and finite, got {scale}")


def fs_distance(phi: State, psi: State, scale: float = 1.0) -> float:
    """Geodesic distance between the rays of phi and psi."""
    if phi.dim != psi.dim:
        raise DimensionMismatch(f"state dims {phi.dim} != {psi.dim}")
    _require_scale(scale)
    overlap = min(abs(inner(phi.amplitudes, psi.amplitudes)), 1.0)
    return scale * float(np.arccos(overlap))


def eigenset(A: Observable) -> EigenSet:
    """Eigenspaces of A with near-degenerate eigenvalues clustered."""
    dec = spectral(A)
    return EigenSet(*dec.clusters(), dec.eigenvectors)


def dist_to_eigenset(A: Observable, phi: State, scale: float = 1.0) -> float:
    """Distance from the ray of phi to the set of eigenstates of A.

    Minimum over eigenspaces P of scale * arccos(|P phi|); zero exactly when
    phi lies in some eigenspace.  One projection onto the whole eigenbasis
    gives every |P phi|^2 as a sum over the eigenspace's columns.
    """
    _require_scale(scale)
    es = eigenset(A)
    if es.basis.shape[0] != phi.dim:
        raise DimensionMismatch("eigenspace and state dims differ")
    coeffs = es.basis.conj().T @ phi.amplitudes
    weights = np.add.reduceat(coeffs.real**2 + coeffs.imag**2, es.starts)
    best = min(float(np.sqrt(weights.max())), 1.0)
    return scale * float(np.arccos(best))


def _largest_block_singular_value(overlap: np.ndarray, rows: EigenSet, cols: EigenSet) -> float:
    """Largest singular value among the eigenspace blocks of an overlap matrix.

    The block of overlap = V_rows^H V_cols at eigenspaces (P, Q) is P^H Q.
    Blocks of one shape are gathered into a stack and reduced together, so
    Python iterates over the distinct (width, width) shapes, never over
    eigenspace pairs.
    """
    row_widths, col_widths = rows.widths, cols.widths
    best = 0.0
    for wr in np.flatnonzero(np.bincount(row_widths)):
        r = rows.starts[row_widths == wr, None] + np.arange(wr)
        for wc in np.flatnonzero(np.bincount(col_widths)):
            c = cols.starts[col_widths == wc, None] + np.arange(wc)
            blocks = overlap[r[:, None, :, None], c[None, :, None, :]]
            if wr == 1 or wc == 1:
                # a single row or column has its length as singular value
                smax = np.sqrt((blocks.real**2 + blocks.imag**2).sum(axis=(-2, -1)).max())
            else:
                smax = np.linalg.svd(blocks, compute_uv=False)[..., 0].max()
            best = max(best, float(smax))
    return best


def eigenset_distance(A: Observable, B: Observable, scale: float = 1.0) -> float:
    """Distance between the eigenstate sets of A and B.

    For each eigenspace pair the closest rays are separated by the smallest
    principal angle, arccos of the largest singular value of the basis
    overlap matrix; the set distance is the minimum over all pairs.  Zero
    exactly when A and B share an eigenvector.  Every pair's overlap is a
    block of the one matrix V_B^H V_A (Bjorck & Golub, Math. Comp. 27, 1973).
    """
    if A.dim != B.dim:
        raise DimensionMismatch(f"operator dims {A.dim} != {B.dim}")
    _require_scale(scale)
    es_a = eigenset(A)
    es_b = eigenset(B)
    overlap = es_b.basis.conj().T @ es_a.basis
    best = min(_largest_block_singular_value(overlap, es_b, es_a), 1.0)
    return scale * float(np.arccos(best))


def triangle_report(
    A: Observable, B: Observable, phi: State, scale: float = 1.0
) -> TriangleReport:
    """Triangle-inequality uncertainty relation between phi, S_A and S_B."""
    d_phi_a = dist_to_eigenset(A, phi, scale)
    d_phi_b = dist_to_eigenset(B, phi, scale)
    d_a_b = eigenset_distance(A, B, scale)
    return TriangleReport(d_phi_a, d_phi_b, d_a_b, d_phi_a + d_phi_b - d_a_b)
