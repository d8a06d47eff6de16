"""Finite-dimensional complex Hilbert space core.

States are unit vectors on the sphere of normalized states; observables are
Hermitian matrices.  The inner product is conjugate-linear in the SECOND
argument, i.e. inner(xi, eta) = sum_k xi_k * conj(eta_k).  The opposite
convention flips the sign of the symplectic form downstream, so everything
in this package assumes this one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    DimensionTooSmall,
    InvalidParameter,
    NonFinite,
    NotHermitian,
    NotNormalized,
    ZeroVector,
)

HERMITIAN_TOL = 1e-10
NORM_TOL = 1e-12
DEGENERACY_GAP = 1e-8


@dataclass(frozen=True)
class State:
    """Unit-norm complex coordinate vector on the sphere of states."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).ravel()
        object.__setattr__(self, "amplitudes", amps)
        if amps.size < 2:
            raise DimensionTooSmall(f"need n >= 2, got n={amps.size}")
        nrm = np.linalg.norm(amps)
        _require_finite(nrm, "state")
        if abs(nrm - 1.0) > 1e-10:
            raise NotNormalized(f"state norm {nrm} not within tolerance of 1")

    @property
    def dim(self) -> int:
        return self.amplitudes.size


@dataclass(frozen=True)
class Observable:
    """Hermitian matrix, identified with the tangent field phi -> -i A phi.

    The scale and the spectrum are computed once, on first use, and cached;
    the matrix must not be mutated in place after construction.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"expected square matrix, got shape {m.shape}")
        _require_finite(self.scale, "observable")
        resid = np.max(np.abs(m - m.conj().T)) if m.size else 0.0
        if resid > HERMITIAN_TOL * self.scale:
            raise NotHermitian(
                f"matrix is not hermitian: residual {resid:.3e} exceeds tolerance"
            )

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def scale(self) -> float:
        """Scale-free tolerance reference: max(1, largest entry magnitude)."""
        return float(np.abs(self.matrix).max(initial=1.0))

    @cached_property
    def spectrum(self) -> SpectralDecomposition:
        """Eigendecomposition with ascending eigenvalues, orthonormal columns."""
        vals, vecs = np.linalg.eigh(self.matrix)
        return SpectralDecomposition(vals, vecs)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Ascending eigenvalues with orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def clusters(self) -> tuple[np.ndarray, np.ndarray]:
        """Near-degenerate eigenvalues grouped into eigenspaces, as (values, starts).

        Neighbouring eigenvalues closer than DEGENERACY_GAP relative to the
        largest magnitude share an eigenspace.  Eigenspace k spans the
        eigenvector columns from starts[k] up to the next start, and
        values[k] is the mean of its eigenvalues.
        """
        vals = self.eigenvalues
        gap = DEGENERACY_GAP * max(1.0, float(np.max(np.abs(vals))))
        starts = np.flatnonzero(np.diff(vals, prepend=-np.inf) >= gap)
        values = np.add.reduceat(vals, starts) / np.diff(starts, append=vals.size)
        return values, starts

    def eigenspaces(self):
        """Group near-degenerate eigenvalues into eigenspaces.

        Returns a list of (eigenvalue, basis) pairs where basis columns span
        the clustered eigenspace.  Consumers that need basis-independent
        quantities (distances to eigenstate sets) must use these clusters,
        never the raw eigenvector columns.
        """
        values, starts = self.clusters()
        return list(zip(values.tolist(), np.split(self.eigenvectors, starts[1:], axis=1)))


def _require_finite(magnitude: float, what: str) -> None:
    """Reject a NaN or infinite entry through a norm or largest magnitude.

    Any such entry makes the aggregate non-finite, so one scalar test
    covers the whole array.
    """
    if not math.isfinite(magnitude):
        raise NonFinite(f"{what} has a NaN or infinite entry (or its magnitude overflows)")


def validate_state(v, tol: float = NORM_TOL) -> State:
    """Normalize v onto the sphere of states.

    The input must be within `tol` of unit norm (pass tol=inf to accept any
    nonzero vector); the output is renormalized to exact unit norm either way.
    """
    if math.isnan(tol):
        raise InvalidParameter("tol must be a number, got nan")
    v = np.asarray(v, dtype=complex).ravel()
    if v.size < 2:
        raise DimensionTooSmall(f"need n >= 2, got n={v.size}")
    nrm = np.linalg.norm(v)
    _require_finite(nrm, "vector")
    if nrm < 1e-14:
        raise ZeroVector("cannot normalize a (numerically) zero vector")
    if abs(nrm - 1.0) > tol:
        raise NotNormalized(f"norm {nrm} deviates from 1 by more than tol={tol}")
    return State(v / nrm)


def normalize(v) -> State:
    """Project any nonzero vector onto the sphere of states."""
    return validate_state(v, tol=np.inf)


def inner(xi, eta) -> complex:
    """L2 inner product, conjugate-linear in the second argument."""
    xi = np.asarray(xi, dtype=complex).ravel()
    eta = np.asarray(eta, dtype=complex).ravel()
    if xi.size != eta.size:
        raise DimensionMismatch(f"lengths {xi.size} != {eta.size}")
    return complex(np.vdot(eta, xi))


def expectation(A: Observable, phi: State) -> float:
    """Mean value of A in state phi.

    Geometrically this is the metric projection of the tangent vector
    -i A phi onto -i phi.  The imaginary part of the raw pairing is a
    Hermiticity witness and must vanish within tolerance.
    """
    if A.dim != phi.dim:
        raise DimensionMismatch(f"operator dim {A.dim} != state dim {phi.dim}")
    raw = inner(A.matrix @ phi.amplitudes, phi.amplitudes)
    if abs(raw.imag) > HERMITIAN_TOL * A.scale:
        raise NotHermitian(f"expectation has imaginary part {raw.imag:.3e}")
    return float(raw.real)


def centered(A: Observable, phi: State) -> Observable:
    """A minus its mean in phi times the identity; zero mean by construction."""
    mean = expectation(A, phi)
    return Observable(A.matrix - mean * np.eye(A.dim))


def brackets(A: Observable, B: Observable):
    """Commutator and anticommutator (AB - BA, AB + BA) as raw matrices.

    The commutator is anti-Hermitian, the anticommutator Hermitian.  The
    commutator is unchanged by centering either operator.
    """
    if A.dim != B.dim:
        raise DimensionMismatch(f"operator dims {A.dim} != {B.dim}")
    ab = A.matrix @ B.matrix
    ba = B.matrix @ A.matrix
    return ab - ba, ab + ba


def spectral(A: Observable) -> SpectralDecomposition:
    """Eigendecomposition with ascending eigenvalues, orthonormal columns."""
    return A.spectrum
