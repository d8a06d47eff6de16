import tracemalloc

import numpy as np
import pytest
from mpmath import mp

from statesphere import (
    DimensionMismatch,
    Grid,
    InvalidParameter,
    Observable,
    SupportViolation,
    commutator_residual,
    dist_to_eigenset,
    eigenset,
    eigenset_distance,
    expectation,
    gaussian,
    minimal_condition,
    momentum_op,
    normalize,
    position_op,
    relations_report,
    std_dev,
    trace_flow,
    triangle_report,
)
from statesphere.canonical import _position, _wavenumbers

from oracle import DIGITS, _grid_operators, entry_error

EPS = np.finfo(float).eps
SPECTRUM_GRIDS = [Grid(16, 8.0), Grid(64, 40.0, hbar=0.7), Grid(256, 40.0)]


@pytest.fixture(scope="module")
def grid():
    return Grid(512, 40.0)


class TestGrid:
    def test_points_layout(self):
        g = Grid(16, 16.0)
        assert np.allclose(g.points, np.arange(-8, 8, dtype=float))

    def test_rejects_bad_n(self):
        with pytest.raises(InvalidParameter):
            Grid(12, 10.0)
        with pytest.raises(InvalidParameter):
            Grid(100, 10.0)

    def test_rejects_bad_scalars(self):
        with pytest.raises(InvalidParameter):
            Grid(16, -1.0)
        with pytest.raises(InvalidParameter):
            Grid(16, 10.0, hbar=0.0)

    @pytest.mark.parametrize("length,hbar", [
        (float("nan"), 1.0), (float("inf"), 1.0), (10.0, float("nan")), (10.0, float("inf")),
    ])
    def test_rejects_non_finite_scalars(self, length, hbar):
        with pytest.raises(InvalidParameter):
            Grid(16, length, hbar)


class TestPositionOp:
    def test_diagonal_entries(self):
        x = position_op(Grid(16, 16.0)).matrix
        assert np.allclose(np.diag(x), np.arange(-8, 8))
        assert np.max(np.abs(x - np.diag(np.diag(x)))) == 0.0

    def test_exact_hermiticity(self, grid):
        x = position_op(grid).matrix
        assert np.max(np.abs(x - x.conj().T)) == 0.0

    def test_delta_like_expectation(self):
        g = Grid(16, 16.0)
        j = 5
        amps = np.zeros(16)
        amps[j] = 1.0
        assert expectation(position_op(g), normalize(amps)) == pytest.approx(g.points[j])


class TestMomentumOp:
    def test_plane_wave_eigenvector(self, grid):
        m = 3
        wave = normalize(np.exp(1j * 2 * np.pi * m * grid.points / grid.length))
        p = momentum_op(grid)
        expected = grid.hbar * 2 * np.pi * m / grid.length
        out = p.matrix @ wave.amplitudes
        assert np.allclose(out, expected * wave.amplitudes, atol=1e-10)

    def test_real_wavefunction_zero_mean(self, grid):
        psi = gaussian(grid, 1.0, 0.0, 1.2)
        assert expectation(momentum_op(grid), psi) == pytest.approx(0.0, abs=1e-10)

    def test_hermiticity_residual(self, grid):
        # exact, so Observable stores p as built, with no Hermitian-part copy
        p = momentum_op(grid)
        assert np.array_equal(p.matrix, p.matrix.conj().T)

    def test_matrix_is_read_only(self, grid):
        # a strided view of one doubled row, shared by every row; writing
        # to one entry would change a whole diagonal
        assert momentum_op(grid).matrix.flags.writeable is False

    def test_circulant(self, grid):
        p = momentum_op(grid).matrix
        j = np.arange(grid.n)
        assert np.array_equal(p, p[(j[:, None] - j) % grid.n, 0])

    @pytest.mark.parametrize("n", [16, 32, 64])
    @pytest.mark.parametrize("length", [8.0, 40.0])
    @pytest.mark.parametrize("hbar", [1.0, 0.7])
    def test_entries_within_eps_of_exact(self, n, length, hbar):
        # against the circulant (hbar / n) sum_m k_m exp(2 pi i m (a - b) / n) at 50 digits
        p = momentum_op(Grid(n, length, hbar))
        with mp.workdps(DIGITS):
            exact = _grid_operators({"n": n, "length": length, "hbar": hbar})["p"]
        assert entry_error(exact, p.matrix) <= EPS * p.scale

    @pytest.mark.parametrize("g", SPECTRUM_GRIDS + [Grid(256, 8.0, hbar=0.7)], ids=str)
    def test_matches_dense_dft_product(self, g):
        # F^dagger diag(hbar k) F carries the rounding of an n-term sum of
        # terms up to |p|_2 = max |hbar k| (Higham, 2nd ed., sec. 3.5), more
        # than n eps scale at n = 16, L = 8; so the bound is n eps |p|_2
        j = np.arange(g.n)
        f = np.exp(-2j * np.pi * np.outer(j, j) / g.n) / np.sqrt(g.n)
        hbar_k = g.hbar * _wavenumbers(g)
        product = f.conj().T @ (hbar_k[:, None] * f)
        p = momentum_op(g).matrix
        assert np.abs(p - product).max() <= g.n * EPS * np.abs(hbar_k).max()

    def test_matvec_is_one_fft_pair(self):
        g = Grid(1024, 40.0)
        p = momentum_op(g)
        rng = np.random.default_rng(0)
        v = normalize(rng.normal(size=g.n) + 1j * rng.normal(size=g.n)).amplitudes
        fft_pair = np.fft.ifft(g.hbar * _wavenumbers(g) * np.fft.fft(v))
        assert np.abs(p.matrix @ v - fft_pair).max() <= g.n * EPS * p.scale


@pytest.mark.parametrize("n", [16, 32, 64, 128, 256, 512, 1024])
@pytest.mark.parametrize("length", [1.0, 40.0])
@pytest.mark.parametrize("hbar", [1.0, 1e-3])
def test_square_through_the_matvec(n, length, hbar):
    # the optimizer forms A^2 as A.apply(A's matrix): for x the same floats
    # as the matrix product, for p an FFT pair per column within n eps
    # scale^2 of it (the largest measured was 0.17 of that)
    g = Grid(n, length, hbar)
    x, p = position_op(g), momentum_op(g)
    assert np.array_equal(x.apply(x.matrix), x.matrix @ x.matrix)
    m = np.ascontiguousarray(p.matrix)
    assert np.abs(p.apply(m) - m @ m).max() <= n * EPS * p.scale**2


class TestGaussian:
    def test_position_width(self, grid):
        st = gaussian(grid, 0.0, 0.0, 1 / np.sqrt(2))
        assert std_dev(position_op(grid), st) == pytest.approx(1 / np.sqrt(2), abs=1e-6)

    def test_momentum_width_and_product(self, grid):
        st = gaussian(grid, 0.0, 0.0, 1 / np.sqrt(2))
        dp = std_dev(momentum_op(grid), st)
        dx = std_dev(position_op(grid), st)
        assert dp == pytest.approx(1 / np.sqrt(2), abs=1e-6)
        assert dx * dp == pytest.approx(grid.hbar / 2, abs=1e-6)

    def test_momentum_boost(self, grid):
        st = gaussian(grid, 0.0, 2.0, 1.0)
        assert expectation(momentum_op(grid), st) == pytest.approx(2.0, abs=1e-6)

    def test_analytic_moments_across_sigma(self, grid):
        for sigma in (0.5, 0.8, 1.3, 2.0):
            st = gaussian(grid, 0.0, 0.0, sigma)
            assert std_dev(position_op(grid), st) == pytest.approx(sigma, abs=1e-6)
            assert std_dev(momentum_op(grid), st) == pytest.approx(
                grid.hbar / (2 * sigma), abs=1e-6
            )

    def test_support_violation(self, grid):
        with pytest.raises(SupportViolation):
            gaussian(grid, 0.0, 0.0, 5.0)
        with pytest.raises(SupportViolation):
            gaussian(grid, 18.0, 0.0, 1.0)

    def test_invalid_sigma(self, grid):
        # sigma outside (0, inf), or a non-finite centre or boost
        for x0, p0, sigma in [
            (0.0, 0.0, -1.0), (0.0, 0.0, 0.0), (0.0, 0.0, np.nan), (0.0, 0.0, np.inf),
            (np.nan, 0.0, 1.0), (np.inf, 0.0, 1.0), (0.0, np.nan, 1.0), (0.0, np.inf, 1.0),
            (0.0, -np.inf, 1.0),
        ]:
            with pytest.raises(InvalidParameter):
                gaussian(grid, x0, p0, sigma)


@pytest.mark.parametrize("g", SPECTRUM_GRIDS, ids=lambda g: f"n={g.n}")
class TestExactSpectra:
    """The closed-form eigensets of x and p against np.linalg.eigh of their matrices."""

    def test_position_is_bit_for_bit_eigh(self, g):
        x = position_op(g)
        vals, vecs = np.linalg.eigh(x.matrix)
        assert np.array_equal(x.eigenvalues, vals)
        assert np.array_equal(x.spectrum.eigenvectors, vecs)

    def test_momentum_is_an_orthonormal_eigenbasis(self, g):
        # eigvalsh's backward error is relative to |p|_2, the largest |hbar k|;
        # the residual, which carries the rounding of p's entries, to p's scale
        p = momentum_op(g)
        vals, vecs = p.eigenvalues, p.spectrum.eigenvectors
        norm = float(np.abs(vals).max())
        assert np.all(np.diff(vals) > 0)
        assert np.abs(vals - np.linalg.eigvalsh(p.matrix)).max() <= g.n * EPS * norm
        assert np.linalg.norm(p.matrix @ vecs - vecs * vals, 2) <= g.n * EPS * p.scale
        assert np.linalg.norm(vecs.conj().T @ vecs - np.eye(g.n), 2) <= g.n * EPS

    def test_eigenset_distance_is_exact(self, g):
        # every overlap of a grid delta with a plane wave has modulus 1/sqrt(n)
        exact = np.arccos(1 / np.sqrt(g.n))
        assert abs(eigenset_distance(position_op(g), momentum_op(g)) - exact) <= 4 * EPS

    def test_spectra_are_built_on_first_use(self, g):
        # until then the matrix is the only array an operator holds; the
        # closed form rides on a plain Observable, not a subclass, and is
        # its spectrum
        for op in (position_op(g), momentum_op(g)):
            assert type(op) is Observable and op.eigen is not None
            arrays = [v for v in vars(op).values() if isinstance(v, np.ndarray)]
            assert len(arrays) == 1 and arrays[0] is op.matrix
            assert op.spectrum is op.eigen


def closed_form_only(form) -> Observable:
    """An Observable of a closed form whose matrix is a zero-strided stand-in.

    The closed form never reads its matrix, and the real one would take
    16 n^2 bytes: 4 GiB at n = 2**14.
    """
    return Observable(np.broadcast_to(np.complex128(0), (form.values.size,) * 2), form)


# Bytes per grid point that a distance from a state to x's or p's eigenset,
# or the build of p, may allocate: the eigenvalues sorted and clustered, and
# one FFT of the state or of the values, each a few arrays of n floats.
DISTANCE_BYTES_PER_POINT = 128


@pytest.mark.parametrize("n", [2**12, 2**14])
@pytest.mark.parametrize(
    "build", [lambda g: closed_form_only(_position(g)), momentum_op], ids=["x", "p"]
)
def test_state_to_eigenset_distance_allocates_order_n(n, build):
    # the first call clusters the eigenvalues; neither it nor the distance
    # builds an n x n eigenbasis
    g = Grid(n, 40.0)
    op = build(g)
    phi = gaussian(g, 1.0, 0.5, 2.0)
    tracemalloc.start()
    try:
        d = dist_to_eigenset(op, phi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < d < np.pi / 2
    assert peak <= DISTANCE_BYTES_PER_POINT * n
    assert "eigenvectors" not in vars(op.spectrum)


@pytest.mark.parametrize("n", [2**12, 2**14])
def test_set_to_set_distance_allocates_order_n(n):
    # x's unit vectors and p's plane waves are mutually unbiased, so the
    # distance follows from n, and p with p or x with x share every basis
    # vector, so theirs is 0: neither eigenbasis nor any overlap is built
    g = Grid(n, 40.0)
    x, p = closed_form_only(_position(g)), momentum_op(g)
    tracemalloc.start()
    try:
        d = eigenset_distance(x, p), eigenset_distance(p, x)
        same = eigenset_distance(p, p), eigenset_distance(x, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.abs(np.subtract(d, np.arccos(1 / np.sqrt(n)))).max() <= 4 * EPS
    assert same == (0.0, 0.0)
    assert peak <= DISTANCE_BYTES_PER_POINT * n
    assert all("eigenvectors" not in vars(op.spectrum) for op in (x, p))


@pytest.mark.parametrize("n", [2**12, 2**14])
def test_momentum_op_allocates_order_n(n):
    # p's matrix is a view of its first row, doubled: no n x n array is filled
    g = Grid(n, 40.0)
    tracemalloc.start()
    try:
        p = momentum_op(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert p.matrix.shape == (n, n)
    assert peak <= DISTANCE_BYTES_PER_POINT * n


def test_si_unit_grid_distances_are_the_closed_forms():
    # every p eigenvalue is below 1e-23 in magnitude; the eigenspaces must
    # still be one per eigenvalue, whatever the units
    g = Grid(64, 1e-9, hbar=1.054571817e-34)
    x, p = position_op(g), momentum_op(g)
    assert eigenset(x).values.size == eigenset(p).values.size == g.n
    phi = gaussian(g, 0.1e-9, 0.0, 0.6e-10)
    v = phi.amplitudes
    rep = triangle_report(x, p, phi)
    exact = [np.arccos(np.abs(v).max()), np.arccos(np.abs(np.fft.fft(v, norm="ortho")).max()),
             np.arccos(1 / np.sqrt(g.n))]
    assert np.abs(np.subtract([rep.d_phi_a, rep.d_phi_b, rep.d_a_b], exact)).max() <= g.n * EPS
    # the distances do not depend on the units
    unit = Grid(64, 1.0)
    assert rep == triangle_report(position_op(unit), momentum_op(unit), phi)


def matrix_scale(m: np.ndarray) -> float:
    """np.abs(m).max(initial=1.0), taken over blocks of rows to bound the scratch array."""
    return max(float(np.abs(m[i:i + 256]).max(initial=1.0)) for i in range(0, m.shape[0], 256))


class TestClosedForm:
    """Grid x and p apply, and scale, from their closed forms, not their matrices."""

    @pytest.mark.parametrize(
        "g",
        [Grid(n, length, hbar) for n in (16, 32, 256, 1024) for length in (0.5, 8.0, 40.0)
         for hbar in (0.3, 1.0)] + [Grid(4096, 40.0), Grid(4096, 3.0, hbar=2.5)],
        ids=str,
    )
    def test_scale_is_the_largest_entry_bit_for_bit(self, g):
        for op in (position_op(g), momentum_op(g)):
            assert op.scale == matrix_scale(op.matrix)

    @pytest.mark.parametrize("g", SPECTRUM_GRIDS + [Grid(1024, 40.0)], ids=str)
    def test_grid_matvecs_match_the_matrices(self, g):
        rng = np.random.default_rng(g.n)
        vecs = rng.standard_normal((g.n, 3)) + 1j * rng.standard_normal((g.n, 3))
        vecs /= np.linalg.norm(vecs, axis=0)
        for op in (position_op(g), momentum_op(g)):
            tol = g.n * EPS * op.scale
            assert np.abs(op.apply(vecs) - op.matrix @ vecs).max() <= tol
            assert np.abs(op.apply(vecs[:, 0]) - op.matrix @ vecs[:, 0]).max() <= tol
            # a column of a batch is the vector applied alone
            assert np.array_equal(op.apply(vecs)[:, 1], op.apply(vecs[:, 1]))

    def test_dense_matvec_is_the_matrix_product(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24))
        a = Observable(7.0 * (m + m.conj().T))
        vecs = rng.standard_normal((24, 4)) + 1j * rng.standard_normal((24, 4))
        assert np.abs(a.apply(vecs) - a.matrix @ vecs).max() <= 24 * EPS * a.scale * np.abs(vecs).max()
        assert np.array_equal(a.apply(vecs[:, 0]), a.matrix @ vecs[:, 0])

    @pytest.mark.parametrize("g", SPECTRUM_GRIDS, ids=str)
    def test_p_matvec_is_the_fft_pair(self, g):
        v = gaussian(g, 0.5, 0.3, g.length / 20).amplitudes
        fft_pair = np.fft.ifft(g.hbar * _wavenumbers(g) * np.fft.fft(v))
        assert np.array_equal(momentum_op(g).apply(v), fft_pair)
        assert np.array_equal(position_op(g).apply(v), g.points * v)

    def test_commutator_residual_applies_the_operators_matvecs(self, grid):
        phi = gaussian(grid, 1.0, 0.5, 1.2)
        x, p = position_op(grid), momentum_op(grid)
        v = phi.amplitudes
        c = x.apply(p.apply(v)) - p.apply(x.apply(v)) - 1j * grid.hbar * v
        assert commutator_residual(grid, phi) == float(np.linalg.norm(c))

    def test_wrong_length_state_is_a_dimension_mismatch(self):
        g = Grid(32, 20.0)
        x, p = position_op(g), momentum_op(g)
        short = gaussian(Grid(16, 20.0), 0.0, 0.0, 1.0)
        for call in (
            lambda: relations_report(x, p, short),
            lambda: std_dev(x, short),
            lambda: std_dev(p, short),
            lambda: minimal_condition(x, p, short),
            lambda: trace_flow(p, short, 1.0, 4),
            lambda: trace_flow(x, short, 1.0, 4),
        ):
            with pytest.raises(DimensionMismatch):
                call()


class TestCommutatorResidual:
    def test_small_for_interior_gaussian(self, grid):
        st = gaussian(grid, 0.0, 0.0, 1.0)
        assert commutator_residual(grid, st) <= 1e-6

    def test_large_for_boundary_state(self, grid):
        amps = np.zeros(grid.n)
        amps[0] = 1.0  # delta spike at the box edge
        resid = commutator_residual(grid, normalize(amps))
        assert resid > 1.0

    def test_never_exactly_canonical(self):
        # trace([x,p]) = 0 while trace(i hbar I) = i hbar n: the defect
        # matrix can never vanish in finite dimension
        g = Grid(32, 20.0)
        x = position_op(g).matrix
        p = momentum_op(g).matrix
        defect = x @ p - p @ x - 1j * g.hbar * np.eye(g.n)
        assert abs(np.trace(defect)) == pytest.approx(g.hbar * g.n, rel=1e-10)
        assert np.max(np.abs(defect)) > 0.0


class TestCanonicalUncertainty:
    def test_near_equality_across_sigma(self, grid):
        p = momentum_op(grid)
        x = position_op(grid)
        for sigma in (0.5, 1.0, 1.5, 2.0):
            st = gaussian(grid, 0.0, 0.0, sigma)
            rep = relations_report(p, x, st)
            product = rep.delta_a * rep.delta_b
            assert grid.hbar / 2 - 1e-10 <= product <= grid.hbar / 2 + 1e-5
            assert rep.robertson_slack <= 1e-5

    def test_minimal_condition_purely_imaginary(self, grid):
        p = momentum_op(grid)
        x = position_op(grid)
        st = gaussian(grid, 0.0, 0.0, 1.0)
        res = minimal_condition(p, x, st)
        assert res.residual <= 1e-5
        assert abs(res.re_lambda) <= 1e-6
        assert res.is_minimal
