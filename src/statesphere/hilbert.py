"""Finite-dimensional complex Hilbert space core.

States are unit vectors on the sphere of normalized states; observables are
Hermitian operators, each with its own matvec and spectrum: a dense matrix
product and np.linalg.eigh, or for grid x and p a diagonal in the grid or
the Fourier basis, whose spectrum is known in closed form.
The inner product is conjugate-linear in the SECOND argument, i.e.
inner(xi, eta) = sum_k xi_k * conj(eta_k).  The opposite
convention flips the sign of the symplectic form downstream, so everything
in this package assumes this one.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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


class Spectrum:
    """Ascending `eigenvalues`, `eigenvectors` U, `coefficients(m)` = U^dagger m and `flows`."""

    @cached_property
    def eigenset(self) -> EigenSet:
        """The eigenspaces, clustered once."""
        return EigenSet(self)

    def eigenspaces(self) -> list:
        """(eigenvalue, basis) pairs of the clustered eigenspaces."""
        return self.eigenset.eigenspaces


@dataclass(frozen=True)
class DiagonalForm(Spectrum):
    """The operator F^-1 diag(values) F, where F is the identity or the DFT.

    `values` are the eigenvalues in F's order.  F is np.fft.fft along the
    first axis, unnormalised, and F^-1 is np.fft.ifft: no sqrt(n) enters a
    matvec or a flow, so both cost O(n log n) per vector.  The operator is
    Hermitian by construction, and its matrix and its scale follow in closed
    form.  For the DFT the matrix is the circulant whose first column is
    c = ifft(values) with c_d set to (c_d + conj(c_-d)) / 2, which makes it
    exactly Hermitian.  It is its own spectrum, whose eigenvectors U, the
    unit vectors or the plane waves exp(2 pi i m j / n) / sqrt(n), are built
    only when read: U^dagger m is a gather of m or of fft(m, norm="ortho").
    """

    values: np.ndarray
    fourier: bool = False

    def _forward(self, v: np.ndarray) -> np.ndarray:
        return np.fft.fft(v, axis=0) if self.fourier else v

    def _inverse(self, c: np.ndarray) -> np.ndarray:
        return np.fft.ifft(c, axis=0) if self.fourier else c

    def apply(self, v: np.ndarray) -> np.ndarray:
        """F^-1 (values * F v), along the first axis of v."""
        return self._inverse(_rowwise(self.values, self._forward(v)))

    def flows(self, v: np.ndarray, t) -> np.ndarray:
        """e^{-iAt} v: one column per time for an array t, or per column of v."""
        return self._inverse(_phased(self.values, t, self._forward(v)))

    @cached_property
    def _column(self) -> np.ndarray:
        """The first column of the matrix."""
        if not self.fourier:
            return self.values
        c = np.fft.ifft(self.values)
        return 0.5 * (c + np.conj(c[-np.arange(c.size)]))

    @cached_property
    def scale(self) -> float:
        """max(1, largest entry magnitude) of the matrix, from its first column.

        Every entry of a circulant appears in its first column, and the
        other entries of a diagonal are zero.
        """
        return float(np.abs(self._column).max(initial=1.0))

    def matrix(self) -> np.ndarray:
        """The n x n matrix: np.diag of the values, or for the DFT a read-only circulant view.

        Row a of the circulant is the window r[n - a : 2n - a] of its first
        row r, doubled, so the matrix is a strided view of 2n entries, built
        in O(n) with no n x n fill.  numpy's matmul cannot hand that view to
        BLAS, so a caller that multiplies by it often takes
        np.ascontiguousarray of it first.
        """
        n = self.values.size
        if not self.fourier:
            return np.diag(self.values.astype(complex))
        row = self._column[-np.arange(n)]  # p_0b = c_-b
        return sliding_window_view(np.concatenate([row, row]), n)[n:0:-1]

    @cached_property
    def _ascending(self) -> np.ndarray:
        """The permutation that sorts `values`."""
        return np.argsort(self.values, kind="stable")

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """The eigenvalues, ascending."""
        return self.values[self._ascending]

    def coefficients(self, m: np.ndarray) -> np.ndarray:
        """U^dagger m: the rows of m, or of fft(m, norm="ortho"), in ascending eigenvalue order."""
        return (np.fft.fft(m, axis=0, norm="ortho") if self.fourier else m)[self._ascending]

    @cached_property
    def eigenvectors(self) -> np.ndarray:
        """U, the eigenvectors in ascending eigenvalue order, built as (U^dagger I)^dagger."""
        return self.coefficients(np.eye(self.values.size, dtype=complex)).conj().T


def _rowwise(d: np.ndarray, v: np.ndarray) -> np.ndarray:
    """d * v with the first axes aligned: diag(d) v for a vector or an n x m array."""
    return d.reshape(d.shape + (1,) * (v.ndim - d.ndim)) * v


def _phased(values: np.ndarray, t, coefficients: np.ndarray) -> np.ndarray:
    """exp(-i values t) * coefficients, along the first axis.

    For a vector of coefficients and an array of times, one column per
    time; for an n x m array and one time, one column per column.
    """
    phases = np.exp(-1j * np.multiply.outer(values, t))
    return _rowwise(phases, coefficients.reshape(coefficients.shape + (1,) * np.ndim(t)))


@dataclass(frozen=True)
class Observable:
    """Hermitian operator, identified with the tangent field phi -> -i A phi.

    A dense observable is its matrix.  The input must lie within 1e-10 *
    scale of its conjugate transpose, entry by entry, and is stored as its
    Hermitian part (M + M^dagger)/2, which is exactly Hermitian; an exactly
    Hermitian input is stored as given, without a copy.  This is the one
    Hermiticity check: what is derived from the matrix is not checked again.

    `eigen`, where given (grid x and p), is the operator's closed-form
    eigendecomposition, and `matrix` the matrix it builds (for p a
    read-only view).  Such an observable is Hermitian by construction and
    is not scanned; its matvec, flows and scale come from `eigen` in
    O(n log n), and `eigen` is its spectrum, so np.linalg.eigh is never
    called.  The scale and the spectrum are computed once, on first use,
    and cached; the matrix must not be mutated in place.
    """

    matrix: np.ndarray
    eigen: DiagonalForm | None = None

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"expected square matrix, got shape {m.shape}")
        _require_finite(self.scale, "observable")
        if self.eigen is not None:
            return
        resid = float(np.abs(m - m.conj().T).max())
        if resid > HERMITIAN_TOL * self.scale:
            raise NotHermitian(
                f"matrix is not hermitian: residual {resid:.3e} exceeds tolerance"
            )
        if resid > 0.0:
            # the scale stays the one cached from the input above
            object.__setattr__(self, "matrix", 0.5 * (m + m.conj().T))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def scale(self) -> float:
        """Scale-free tolerance reference: max(1, largest entry magnitude)."""
        if self.eigen is not None:
            return self.eigen.scale
        return float(np.abs(self.matrix).max(initial=1.0))

    @cached_property
    def spectrum(self) -> Spectrum:
        """Eigendecomposition with ascending eigenvalues: `eigen`, or else eigh's."""
        if self.eigen is None:
            return SpectralDecomposition(*np.linalg.eigh(self.matrix))
        return self.eigen

    @property
    def eigenvalues(self) -> np.ndarray:
        """The eigenvalues, ascending."""
        return self.spectrum.eigenvalues

    def apply(self, v: np.ndarray) -> np.ndarray:
        """A v, for a vector or for each column of an n x m array."""
        self._require_dim(v)
        return self.matrix @ v if self.eigen is None else self.eigen.apply(v)

    def flows(self, v: np.ndarray, t) -> np.ndarray:
        """e^{-iAt} v, exactly unitary up to rounding.

        v is a vector, or an n x m array whose columns all flow for the one
        time t; a vector may instead flow for each time of an array t, one
        column per time.  The spectrum applies the phases in its eigenbasis.
        """
        self._require_dim(v)
        return self.spectrum.flows(v, t)

    def _require_dim(self, v: np.ndarray) -> None:
        if v.shape[0] != self.dim:
            raise DimensionMismatch(f"operator dim {self.dim} != vector length {v.shape[0]}")


@dataclass(frozen=True)
class EigenSet:
    """The eigenspaces of a spectrum: an observable's, or the one ray of a state.

    Neighbouring eigenvalues no more than DEGENERACY_GAP times the largest
    magnitude apart share an eigenspace, valued at their mean; the zero
    operator has one.  Eigenspace k is spanned by the columns of U =
    spectrum.eigenvectors from starts[k] up to the next start.  Distances
    read U through spectrum.coefficients, m -> U^dagger m, which a closed
    form applies without building U, and never through single eigenvectors.
    """

    spectrum: Spectrum

    @cached_property
    def starts(self) -> np.ndarray:
        """The first column of each eigenspace."""
        vals = self.spectrum.eigenvalues
        gap = DEGENERACY_GAP * float(np.max(np.abs(vals)))
        return np.flatnonzero(np.diff(vals, prepend=-np.inf) > gap)

    @cached_property
    def values(self) -> np.ndarray:
        """The eigenvalue of each eigenspace."""
        return np.add.reduceat(self.spectrum.eigenvalues, self.starts) / self.widths

    @cached_property
    def widths(self) -> np.ndarray:
        """Dimension of each eigenspace."""
        return np.diff(self.starts, append=self.spectrum.eigenvalues.size)

    @cached_property
    def groups(self) -> list:
        """(width, columns) per distinct width: row k of columns spans its k-th eigenspace."""
        w = self.widths
        return [(k, self.starts[w == k, None] + np.arange(k)) for k in np.unique(w)]

    @property
    def eigenspaces(self) -> list:
        """(value, basis) pairs, one per eigenspace."""
        spaces = np.split(self.spectrum.eigenvectors, self.starts[1:], axis=1)
        return list(zip(self.values.tolist(), spaces))


@dataclass(frozen=True)
class SpectralDecomposition(Spectrum):
    """Ascending eigenvalues with orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @cached_property
    def adjoint(self) -> np.ndarray:
        """V^dagger, the conjugate transpose of the eigenvector columns V."""
        return self.eigenvectors.conj().T

    def coefficients(self, m: np.ndarray) -> np.ndarray:
        """V^dagger m."""
        return self.adjoint @ m

    def flows(self, v: np.ndarray, t) -> np.ndarray:
        """e^{-iAt} v as V (P * V^dagger v), where P holds the phases."""
        return self.eigenvectors @ _phased(self.eigenvalues, t, self.adjoint @ v)


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
    """Mean value of A in state phi, the real part of <phi|A|phi>.

    Geometrically this is the metric projection of the tangent vector
    -i A phi onto -i phi.
    """
    return float(inner(A.apply(phi.amplitudes), phi.amplitudes).real)


def centered(A: Observable, phi: State) -> Callable[[np.ndarray], np.ndarray]:
    """The centred operator u -> A u - <A> u, with <A> the mean of A in phi.

    It has zero mean in phi.  It is applied through A's matvec, to a vector
    or to each column of an n x m array, and forms no matrix.
    """
    mean = expectation(A, phi)
    return lambda u: A.apply(u) - mean * u


def spectral(A: Observable) -> Spectrum:
    """Eigendecomposition with ascending eigenvalues, orthonormal columns."""
    return A.spectrum
