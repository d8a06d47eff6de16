"""Finite-dimensional complex Hilbert space core.

States are unit vectors on the sphere of normalized states; observables are
Hermitian operators, each applied by its own matvec: a dense matrix
product, or for grid x and p a diagonal in the grid or the Fourier basis.
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
# Rows per block of the Hermiticity check: a block and the transposed
# columns it is compared with stay in cache together.
HERMITIAN_BLOCK_ROWS = 64


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
class DiagonalForm:
    """The operator F^-1 diag(values) F, where F is the identity or the DFT.

    `values` are the eigenvalues in F's order.  F is np.fft.fft along the
    first axis, unnormalised, and F^-1 is np.fft.ifft: no sqrt(n) enters a
    matvec or a flow, so both cost O(n log n) per vector.  The operator is
    Hermitian by construction, and its matrix, its scale and its spectrum
    follow in closed form.  For the DFT the matrix is the circulant whose
    first column is c = ifft(values) with c_d set to (c_d + conj(c_-d)) / 2,
    which makes it exactly Hermitian.
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
        """The n x n matrix, in O(n^2).

        Row a of the circulant is the window r[n - a : 2n - a] of its first
        row r, doubled, so the fill is one copy of a strided view.
        """
        n = self.values.size
        if not self.fourier:
            return np.diag(self.values.astype(complex))
        row = self._column[-np.arange(n)]  # p_0b = c_-b
        return sliding_window_view(np.concatenate([row, row]), n)[n:0:-1].copy()

    def spectrum(self) -> SpectralDecomposition:
        """The eigenvalues ascending, with the columns of F^-1 (unitary) as eigenvectors.

        Those columns are the unit vectors, whose order the decomposition
        records, or for the DFT the plane waves exp(2 pi i m j / n) / sqrt(n),
        one inverse FFT of the identity.
        """
        order = np.argsort(self.values, kind="stable")
        vecs = np.eye(self.values.size, dtype=complex)[:, order]
        if self.fourier:
            return SpectralDecomposition(self.values[order], np.fft.ifft(vecs, axis=0, norm="ortho"))
        return SpectralDecomposition(self.values[order], vecs, order)


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
    eigendecomposition, and `matrix` the matrix it builds.  Such an
    observable is Hermitian by construction and is not scanned; its matvec,
    flows and scale come from `eigen` in O(n log n), and its spectrum never
    calls np.linalg.eigh.  The scale and the spectrum are computed once, on
    first use, and cached; the matrix must not be mutated in place.
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
        resid = _hermitian_residual(m)
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
    def spectrum(self) -> SpectralDecomposition:
        """Eigendecomposition with ascending eigenvalues, orthonormal columns."""
        if self.eigen is None:
            return SpectralDecomposition(*np.linalg.eigh(self.matrix))
        return self.eigen.spectrum()

    @property
    def eigenvalues(self) -> np.ndarray:
        """The eigenvalues: ascending, or for `eigen` in closed form, in its order."""
        return self.spectrum.eigenvalues if self.eigen is None else self.eigen.values

    def apply(self, v: np.ndarray) -> np.ndarray:
        """A v, for a vector or for each column of an n x m array."""
        self._require_dim(v)
        return self.matrix @ v if self.eigen is None else self.eigen.apply(v)

    def flows(self, v: np.ndarray, t) -> np.ndarray:
        """e^{-iAt} v, exactly unitary up to rounding.

        v is a vector, or an n x m array whose columns all flow for the one
        time t; a vector may instead flow for each time of an array t, one
        column per time.

        The phases are applied in the eigenbasis: a dense observable's as
        V (P * V^dagger v), where P holds the phases, and x's and p's through
        `eigen`.
        """
        self._require_dim(v)
        if self.eigen is not None:
            return self.eigen.flows(v, t)
        dec = self.spectrum
        return dec.eigenvectors @ _phased(dec.eigenvalues, t, dec.adjoint @ v)

    def _require_dim(self, v: np.ndarray) -> None:
        if v.shape[0] != self.dim:
            raise DimensionMismatch(f"operator dim {self.dim} != vector length {v.shape[0]}")


@dataclass(frozen=True)
class EigenSet:
    """Mutually orthogonal eigenspaces: an observable's, or the one ray of a state.

    The orthonormal bases of the eigenspaces sit side by side in the columns
    of `basis`: eigenspace k spans the columns from starts[k] up to the next
    start and has eigenvalue values[k].  `order`, where given, says that
    `basis` is the identity's columns in that order: column j is the unit
    vector e_order[j].
    """

    values: np.ndarray
    starts: np.ndarray
    basis: np.ndarray
    order: np.ndarray | None = None

    @property
    def rays(self) -> bool:
        """Whether every eigenspace is one ray."""
        return self.values.size == self.basis.shape[1]

    @cached_property
    def widths(self) -> np.ndarray:
        """Dimension of each eigenspace."""
        return np.diff(self.starts, append=self.basis.shape[1])

    @cached_property
    def groups(self) -> list:
        """(width, columns) per distinct width: row k of columns spans its k-th eigenspace."""
        if self.rays:
            return [(1, self.starts[:, None])]
        w = self.widths
        return [(k, self.starts[w == k, None] + np.arange(k)) for k in np.unique(w)]

    @property
    def eigenspaces(self) -> list:
        """(value, basis) pairs, one per eigenspace."""
        return list(zip(self.values.tolist(), np.split(self.basis, self.starts[1:], axis=1)))


@dataclass(frozen=True)
class SpectralDecomposition:
    """Ascending eigenvalues with orthonormal eigenvector columns.

    `order`, where given, says the columns are the identity's, in that order.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    order: np.ndarray | None = None

    @cached_property
    def adjoint(self) -> np.ndarray:
        """V^dagger, the conjugate transpose of the eigenvector columns V."""
        return self.eigenvectors.conj().T

    @cached_property
    def eigenset(self) -> EigenSet:
        """Near-degenerate eigenvalues grouped into eigenspaces, once.

        Neighbouring eigenvalues closer than DEGENERACY_GAP relative to the
        largest magnitude share an eigenspace, whose value is the mean of
        its eigenvalues.  Consumers that need basis-independent quantities
        (distances to eigenstate sets) must use these eigenspaces, never
        the raw eigenvector columns.
        """
        vals = self.eigenvalues
        gap = DEGENERACY_GAP * max(1.0, float(np.max(np.abs(vals))))
        starts = np.flatnonzero(np.diff(vals, prepend=-np.inf) >= gap)
        values = np.add.reduceat(vals, starts) / np.diff(starts, append=vals.size)
        return EigenSet(values, starts, self.eigenvectors, self.order)

    def eigenspaces(self) -> list:
        """(eigenvalue, basis) pairs of the clustered eigenspaces."""
        return self.eigenset.eigenspaces


def _hermitian_residual(m: np.ndarray) -> float:
    """max |m - m^dagger| over all entries, one block of rows at a time.

    Each block is compared from its diagonal block rightwards: the entry
    below the diagonal, m_lj - conj(m_jl), is minus the conjugate of the
    one above it in exact arithmetic and in floating point, so it has the
    same modulus and the maximum is that of the full comparison.
    """
    resid = 0.0
    for i in range(0, m.shape[0], HERMITIAN_BLOCK_ROWS):
        rows = slice(i, i + HERMITIAN_BLOCK_ROWS)
        upper = m[rows, i:] - m[i:, rows].conj().T
        resid = max(resid, float(np.abs(upper).max()))
    return resid


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


def spectral(A: Observable) -> SpectralDecomposition:
    """Eigendecomposition with ascending eigenvalues, orthonormal columns."""
    return A.spectrum
