"""Discretized canonical pair on a periodic 1-D grid.

Position is diagonal; momentum is diagonalized by the unitary discrete
Fourier transform with the signed frequency layout m in {-n/2, ..., n/2-1},
exact for band-limited states (the Fourier grid method of Kosloff & Kosloff,
J. Comput. Phys. 52, 35, 1983).  Exact [x, p] = i hbar I is impossible in
finite dimension (the commutator is traceless, i hbar n I is not), but for
states concentrated away from the box boundary the residual is tiny, and
discretized Gaussians reproduce dx dp = hbar/2 to 1e-6 at n = 512.

p's matrix is the circulant whose first column is one inverse FFT of
hbar k, filled in O(n^2) and exactly Hermitian, so it is stored as built.
Both operators are given their spectra in closed form, so their `spectrum`
never calls np.linalg.eigh: x has the grid points with the identity basis,
and p has hbar k in ascending order with the plane-wave columns of F^dagger.
Observables read from a problem file take the eigh route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidParameter, SupportViolation
from .hilbert import Observable, State, normalize


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


def _position_eigen(g: Grid) -> tuple:
    """The grid points, with the unit vectors as eigenvectors."""
    return g.points, np.eye(g.n, dtype=complex)


def _momentum_eigen(g: Grid) -> tuple:
    """hbar k ascending, with the plane waves exp(2 pi i m j / n) / sqrt(n) as columns.

    The columns are those of F^dagger, one inverse FFT of the identity,
    reordered from the FFT layout to m = -n/2, ..., n/2 - 1.
    """
    order = np.fft.fftshift(np.arange(g.n))
    waves = np.fft.ifft(np.eye(g.n)[:, order], axis=0, norm="ortho")
    return g.hbar * _wavenumbers(g)[order], waves


def position_op(g: Grid) -> Observable:
    """Diagonal multiplication by the grid points."""
    return Observable(np.diag(g.points.astype(complex)), partial(_position_eigen, g))


def momentum_op(g: Grid) -> Observable:
    """Spectral momentum F^dagger diag(hbar k) F as a circulant, built in O(n^2).

    p_ab = c[(a - b) mod n], where c = ifft(hbar k) is one inverse FFT.
    Setting c_d to (c_d + conj(c_-d)) / 2 first makes p exactly Hermitian.
    Row a is the window r[n - a : 2n - a] of the first row r, doubled, so
    the fill is one copy of a strided view: no n x n exp, no matrix product.
    """
    back = -np.arange(g.n)  # index -d mod n
    c = np.fft.ifft(g.hbar * _wavenumbers(g))
    c = 0.5 * (c + np.conj(c[back]))
    row = c[back]  # p_0b = c_-b
    matrix = sliding_window_view(np.concatenate([row, row]), g.n)[g.n:0:-1].copy()
    return Observable(matrix, partial(_momentum_eigen, g))


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

    p is applied as F^dagger diag(hbar k) F by one FFT pair, with no matrix.
    Small only for states concentrated away from the boundary in both
    position and momentum; order hbar n / L for boundary-supported states.
    """
    x = g.points
    hbar_k = g.hbar * _wavenumbers(g)

    def p(v):
        return np.fft.ifft(hbar_k * np.fft.fft(v))

    v = phi.amplitudes
    c = x * p(v) - p(x * v) - 1j * g.hbar * v
    return float(np.linalg.norm(c))
