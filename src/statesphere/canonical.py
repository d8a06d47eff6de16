"""Discretized canonical pair on a periodic 1-D grid.

Position is diagonal; momentum is diagonalized by the unitary discrete
Fourier transform with the signed frequency layout m in {-n/2, ..., n/2-1},
exact for band-limited states (the Fourier grid method of Kosloff & Kosloff,
J. Comput. Phys. 52, 35, 1983).  Exact [x, p] = i hbar I is impossible in
finite dimension (the commutator is traceless, i hbar n I is not), but for
states concentrated away from the box boundary the residual is tiny, and
discretized Gaussians reproduce dx dp = hbar/2 to 1e-6 at n = 512.

Both operators carry their closed-form eigendecomposition, a DiagonalForm,
which is also their spectrum: x is the grid points with the unit vectors,
p is hbar k with the plane waves of the DFT.  Their matvecs, flows, scales
and distances from a state to their eigenstate sets cost O(n log n), and
none calls np.linalg.eigh.  Each also carries its n x n matrix, which only
the optimizer reads: x's is filled eagerly, p's is the exactly Hermitian
circulant of one inverse FFT, a read-only view of 2n entries built in O(n).
Observables read from a problem file take the dense routes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, SupportViolation
from .hilbert import DiagonalForm, Observable, State, normalize


@dataclass(frozen=True)
class Grid:
    """Periodic spatial lattice x_j = -L/2 + j L/n, j = 0..n-1."""

    n: int
    length: float
    hbar: float = 1.0

    def __post_init__(self):
        if self.n < 16 or (self.n & (self.n - 1)) != 0:
            raise InvalidParameter(f"n must be a power of two >= 16, got {self.n}")
        if not 0 < self.length < math.inf:  # false for NaN
            raise InvalidParameter(f"length must be positive and finite, got {self.length}")
        if not 0 < self.hbar < math.inf:
            raise InvalidParameter(f"hbar must be positive and finite, got {self.hbar}")

    @property
    def points(self) -> np.ndarray:
        return -self.length / 2 + np.arange(self.n) * (self.length / self.n)


def _wavenumbers(g: Grid) -> np.ndarray:
    """k_m = 2 pi m / L in the FFT layout m = 0, ..., n/2 - 1, -n/2, ..., -1."""
    return 2.0 * np.pi * np.fft.fftfreq(g.n, d=g.length / g.n)


def _position(g: Grid) -> DiagonalForm:
    """x, diagonal on the grid points."""
    return DiagonalForm(g.points)


def _momentum(g: Grid) -> DiagonalForm:
    """p = F^dagger diag(hbar k) F, applied as ifft(hbar k * fft(v))."""
    return DiagonalForm(g.hbar * _wavenumbers(g), fourier=True)


def position_op(g: Grid) -> Observable:
    """Diagonal multiplication by the grid points."""
    form = _position(g)
    return Observable(form.matrix(), form)


def momentum_op(g: Grid) -> Observable:
    """Spectral momentum F^dagger diag(hbar k) F, with its circulant matrix built in O(n).

    p_ab = c[(a - b) mod n], where c = ifft(hbar k) is one inverse FFT,
    symmetrised so that p is exactly Hermitian.  The matrix is a read-only
    strided view of c's entries, so no n x n array is filled.
    """
    form = _momentum(g)
    return Observable(form.matrix(), form)


def gaussian(g: Grid, x0: float, p0: float, sigma: float) -> State:
    """Normalized Gaussian wavepacket exp(-(x-x0)^2/(4 sigma^2) + i p0 x / hbar).

    In the continuum limit dx = sigma and dp = hbar/(2 sigma).  Margins
    L >= 10 sigma and |x0| <= L/2 - 5 sigma keep the periodic wrap-around
    from corrupting the second moments.
    """
    if not (math.isfinite(x0) and math.isfinite(p0)):
        raise InvalidParameter(f"x0 and p0 must be finite, got x0={x0}, p0={p0}")
    if not 0 < sigma < math.inf:  # false for NaN
        raise InvalidParameter(f"sigma must be positive and finite, got {sigma}")
    if g.length < 10 * sigma or abs(x0) > g.length / 2 - 5 * sigma:
        raise SupportViolation(
            f"need L >= 10 sigma and |x0| <= L/2 - 5 sigma "
            f"(L={g.length}, x0={x0}, sigma={sigma})"
        )
    x = g.points
    psi = np.exp(-((x - x0) ** 2) / (4.0 * sigma**2) + 1j * p0 * x / g.hbar)
    return normalize(psi)


def commutator_residual(g: Grid, phi: State) -> float:
    """Norm of ([x, p] - i hbar I) phi, from x(p phi) - p(x phi) - i hbar phi.

    x and p are applied as position_op's and momentum_op's observables apply
    them, with no matrix: p by one FFT pair.
    Small only for states concentrated away from the boundary in both
    position and momentum; order hbar n / L for boundary-supported states.
    """
    x, p = _position(g).apply, _momentum(g).apply
    v = phi.amplitudes
    c = x(p(v)) - p(x(v)) - 1j * g.hbar * v
    return float(np.linalg.norm(c))
