import numpy as np
import pytest

from statesphere import Observable, normalize


@pytest.fixture
def sx():
    return Observable([[0, 1], [1, 0]])


@pytest.fixture
def sy():
    return Observable([[0, -1j], [1j, 0]])


@pytest.fixture
def sz():
    return Observable([[1, 0], [0, -1]])


def random_hermitian(rng, n, unit_entries=True):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = 0.5 * (m + m.conj().T)
    if unit_entries:
        h = h / np.max(np.abs(h))
    return Observable(h)


def hermitian(parts: np.ndarray, size: float) -> Observable:
    """The Hermitian part of (re, im) entries, scaled to largest entry `size` unless zero."""
    m = parts[..., 0] + 1j * parts[..., 1]
    h = m + m.conj().T
    peak = np.abs(h).max()
    return Observable(h / peak * size if peak > 0 else h)


def random_state(rng, n):
    return normalize(rng.standard_normal(n) + 1j * rng.standard_normal(n))


def random_unitary(rng, n):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))
