import numpy as np
import pytest
from mpmath import mp

from statesphere import (
    DimensionMismatch,
    Grid,
    Observable,
    State,
    centered_field,
    dist_to_eigenset,
    eigenset,
    eigenset_distance,
    fs_distance,
    inner,
    momentum_op,
    normalize,
    position_op,
    spectral,
    std_dev,
    triangle_report,
    validate_state,
)

from conftest import random_hermitian, random_state, random_unitary
from oracle import DIGITS

EPS = np.finfo(float).eps


def with_widths(rng, widths):
    """Random unitary conjugate of a spectrum whose eigenspaces have these widths."""
    values = np.repeat(np.arange(len(widths), dtype=float), widths)
    u = random_unitary(rng, values.size)
    return Observable((u * values) @ u.conj().T)


MIXED_WIDTHS = [1, 2, 3, 3, 1, 2, 2, 1, 3]
# An eigenspace of width >= 9: numpy sums its squared overlaps pairwise, not
# one after another.
WIDE_WIDTHS = [2, 1, 11, 3, 1]


def pairwise_set_distance(a, b):
    """The definition, pair by pair: arccos of max over pairs of ||P_B^H P_A||_2."""
    best = max(
        np.linalg.norm(pb.conj().T @ pa, ord=2)
        for _, pa in spectral(a).eigenspaces()
        for _, pb in spectral(b).eigenspaces()
    )
    return float(np.arccos(min(best, 1.0)))


def per_space_distance(a, phi):
    """The definition, space by space: arccos of max over eigenspaces of |P phi|."""
    best = max(np.linalg.norm(p.conj().T @ phi.amplitudes) for _, p in spectral(a).eigenspaces())
    return float(np.arccos(min(best, 1.0)))


def two_packets(rng, g: Grid):
    """Two Gaussian packets with random widths, boosts and relative phase, inside the box."""
    psi = np.zeros(g.n, dtype=complex)
    for centre in (rng.uniform(-8.0, -2.0), rng.uniform(2.0, 8.0)):
        sigma, k0 = rng.uniform(0.9, 1.6), rng.uniform(-1.0, 1.0)
        weight = rng.uniform(0.5, 1.0) * np.exp(2j * np.pi * rng.uniform())
        psi += weight * np.exp(-((g.points - centre) ** 2) / (4 * sigma**2) + 1j * k0 * g.points)
    return normalize(psi)


def plane_wave_product_distance(p, phi) -> float:
    """arccos max |<w, phi>| over p's plane waves w, as one product with their matrix."""
    order = np.argsort(p.eigen.values, kind="stable")
    waves = np.fft.ifft(np.eye(p.dim, dtype=complex)[:, order], axis=0, norm="ortho")
    overlap = waves.conj().T @ phi.amplitudes
    return float(np.arccos(min(np.sqrt((overlap.real**2 + overlap.imag**2).max()), 1.0)))


def exact_momentum_distance(phi):
    """arccos max_m |<phi, w_m>| at DIGITS, w_m = exp(2 pi i m j / n) / sqrt(n).

    Only the plane waves whose float64 overlap is within 1e-8 of the
    largest are evaluated: the float64 overlaps are good to about 1e-15,
    so no other one can be the largest.
    """
    n, v = phi.dim, phi.amplitudes
    magnitudes = np.abs(np.fft.fft(v, norm="ortho"))
    frequencies = np.fft.fftfreq(n, 1 / n).astype(int)
    with mp.workdps(DIGITS):
        exact = [mp.mpc(complex(z)) for z in v]
        best = max(
            abs(mp.fsum(z * mp.expjpi(mp.mpf(-2 * int(m) * j) / n) for j, z in enumerate(exact)))
            for m in frequencies[magnitudes >= magnitudes.max() - 1e-8]
        )
        return mp.acos(best / mp.sqrt(n))


class TestFsDistance:
    def test_orthogonal_states(self):
        d = fs_distance(validate_state([1, 0]), validate_state([0, 1]))
        assert d == pytest.approx(np.pi / 2)

    def test_phase_insensitive(self):
        rng = np.random.default_rng(0)
        phi = random_state(rng, 3)
        shifted = normalize(np.exp(0.7j) * phi.amplitudes)
        assert fs_distance(phi, shifted) <= 4 * 3 * EPS

    def test_diagonal_overlap(self):
        d = fs_distance(validate_state([1, 0]), normalize([1, 1]))
        assert d == pytest.approx(np.pi / 4)

    def test_scale_multiplier(self):
        d1 = fs_distance(validate_state([1, 0]), validate_state([0, 1]), 1.0)
        d2 = fs_distance(validate_state([1, 0]), validate_state([0, 1]), 2.0)
        assert d2 == pytest.approx(2 * d1)

    def test_metric_axioms(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a, b, c = (random_state(rng, 3) for _ in range(3))
            assert fs_distance(a, b) == fs_distance(b, a)
            assert 0 <= fs_distance(a, b) <= np.pi / 2 + 1e-15
            assert fs_distance(a, b) + fs_distance(b, c) - fs_distance(a, c) >= -1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            fs_distance(validate_state([1, 0]), validate_state([1, 0, 0]))


def horizontal(xi, phi):
    """Component of xi orthogonal to the phase fibre through phi."""
    xi = np.asarray(xi, dtype=complex).ravel()
    return xi - inner(xi, phi.amplitudes) * phi.amplitudes


class TestHorizontal:
    def test_fibre_direction_projects_to_zero(self, sz):
        phi = validate_state([1, 0])
        out = horizontal(-1j * (sz.matrix @ phi.amplitudes), phi)
        assert np.allclose(out, 0)

    def test_already_horizontal(self):
        assert np.allclose(horizontal([0, 1], validate_state([1, 0])), [0, 1])

    def test_matches_centered_tangent_field(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = random_hermitian(rng, 4)
            phi = random_state(rng, 4)
            via_proj = horizontal(-1j * (a.matrix @ phi.amplitudes), phi)
            via_center = centered_field(a, phi)
            assert np.allclose(via_proj, via_center, atol=1e-12)

    def test_result_orthogonal_to_state(self):
        rng = np.random.default_rng(3)
        phi = random_state(rng, 5)
        out = horizontal(rng.standard_normal(5) + 1j * rng.standard_normal(5), phi)
        assert abs(inner(out, phi.amplitudes)) <= 1e-12


class TestDistToEigenset:
    def test_eigenstate(self, sz):
        assert dist_to_eigenset(sz, validate_state([1, 0])) == pytest.approx(0.0)

    def test_equal_superposition(self, sz):
        assert dist_to_eigenset(sz, normalize([1, 1])) == pytest.approx(np.pi / 4)

    def test_identity_everything_is_eigenstate(self):
        rng = np.random.default_rng(4)
        phi = random_state(rng, 3)
        assert dist_to_eigenset(Observable(np.eye(3)), phi) <= 4 * 3 * EPS

    def test_degenerate_distance_is_basis_independent(self):
        # distance to a 2-dim eigenspace uses the projection, not a basis pick
        a = Observable(np.diag([1.0, 1.0, 3.0]))
        phi = normalize([1, 1, 0])
        assert dist_to_eigenset(a, phi) <= 4 * 3 * EPS

    def test_degenerate_spectra_match_definition(self):
        rng = np.random.default_rng(8)
        for widths in (MIXED_WIDTHS, WIDE_WIDTHS):
            for _ in range(5):
                a = with_widths(rng, widths)
                assert eigenset(a).widths.tolist() == widths
                for _ in range(4):
                    phi = random_state(rng, a.dim)
                    assert abs(dist_to_eigenset(a, phi) - per_space_distance(a, phi)) <= 1e-12
                inside = normalize(eigenset(a).eigenspaces[2][1] @ rng.standard_normal(widths[2]))
                assert dist_to_eigenset(a, inside) <= 4 * a.dim * EPS

    def test_dimension_mismatch(self, sz, monkeypatch):
        # checked before any eigensolve
        monkeypatch.setattr(np.linalg, "eigh", None)
        with pytest.raises(DimensionMismatch):
            dist_to_eigenset(Observable(sz.matrix), validate_state([1, 0, 0]))

    def test_zero_iff_vanishing_deviation(self):
        rng = np.random.default_rng(5)
        a = random_hermitian(rng, 4)
        for _ in range(20):
            phi = random_state(rng, 4)
            near_zero_d = dist_to_eigenset(a, phi) <= 1e-8
            near_zero_s = std_dev(a, phi) <= 1e-7
            assert near_zero_d == near_zero_s


class TestEigensetDistance:
    def test_pauli_xy(self, sx, sy):
        assert eigenset_distance(sx, sy) == pytest.approx(np.pi / 4)

    def test_identical_sets(self, sz):
        assert eigenset_distance(sz, sz) <= 4 * 2 * EPS

    def test_common_product_eigenvectors(self, sz, sx):
        a = Observable(np.kron(sz.matrix, np.eye(2)))
        b = Observable(np.kron(np.eye(2), sx.matrix))
        assert eigenset_distance(a, b) == pytest.approx(0.0, abs=1e-7)

    def test_ray_inside_a_degenerate_eigenspace(self, sx):
        # both of sigma_x's rays lie in the zero matrix's one eigenspace; and
        # with both sets degenerate, b's ray u_0 lies in a's plane (u_0, u_1)
        z = Observable(np.zeros((2, 2)))
        assert eigenset_distance(z, sx) == eigenset_distance(sx, z) == 0.0
        u = random_unitary(np.random.default_rng(12), 3)
        a = Observable((u * [1.0, 1.0, 3.0]) @ u.conj().T)
        b = Observable((u * [5.0, 6.0, 6.0]) @ u.conj().T)
        assert max(eigenset_distance(a, b), eigenset_distance(b, a)) <= 4 * 3 * EPS

    def test_shared_degenerate_planes_stay_at_rounding_level(self):
        # A and B share both eigenplanes exactly.  arccos of the largest
        # cosine printed up to 2.6e-8 here; the sine of the part of one
        # plane outside the other keeps it within a few n eps.
        n = 4
        for seed in range(200):
            u = random_unitary(np.random.default_rng(seed), n)
            a = Observable((u * [1.0, 1.0, 2.0, 2.0]) @ u.conj().T)
            b = Observable((u * [3.0, 3.0, 4.0, 4.0]) @ u.conj().T)
            assert max(eigenset_distance(a, b), eigenset_distance(b, a)) <= 4 * n * EPS

    def test_unitary_invariance(self, sx, sy):
        rng = np.random.default_rng(6)
        u = random_unitary(rng, 2)
        d = eigenset_distance(
            Observable(u @ sx.matrix @ u.conj().T),
            Observable(u @ sy.matrix @ u.conj().T),
        )
        assert d == pytest.approx(np.pi / 4, abs=1e-10)

    def test_degenerate_spectra_match_definition(self):
        rng = np.random.default_rng(9)
        for widths in (MIXED_WIDTHS, WIDE_WIDTHS):
            for _ in range(5):
                a = with_widths(rng, widths)
                b = with_widths(rng, widths[::-1])
                assert abs(eigenset_distance(a, b) - pairwise_set_distance(a, b)) <= 1e-12
                assert abs(eigenset_distance(b, a) - pairwise_set_distance(b, a)) <= 1e-12

    def test_grid_pair_matches_definition(self):
        g = Grid(32, 40.0)
        x, p = position_op(g), momentum_op(g)
        assert abs(eigenset_distance(x, p) - pairwise_set_distance(x, p)) <= 1e-12

    @pytest.mark.parametrize("n", [16, 32, 64, 128, 256])
    def test_grid_distances_match_dense_route(self, n):
        # x's and p's closed forms (a gather, an FFT) against eigh of their matrices
        g = Grid(n, 40.0)
        x, p = position_op(g), momentum_op(g)
        dense_x, dense_p = Observable(x.matrix), Observable(p.matrix)
        phi = random_state(np.random.default_rng(n), n)
        pairs = [
            (dist_to_eigenset(x, phi), dist_to_eigenset(dense_x, phi)),
            (dist_to_eigenset(p, phi), dist_to_eigenset(dense_p, phi)),
            (eigenset_distance(x, p), eigenset_distance(dense_x, dense_p)),
            (eigenset_distance(p, x), eigenset_distance(dense_p, dense_x)),
            (eigenset_distance(x, dense_p), eigenset_distance(dense_x, dense_p)),
            (eigenset_distance(dense_p, x), eigenset_distance(dense_p, dense_x)),
        ]
        for closed, dense in pairs:
            assert abs(closed - dense) <= n * EPS

    def test_fft_route_is_no_less_accurate(self):
        # p's state-to-set distance reads fft(phi, norm="ortho"); the product
        # with its plane-wave matrix, which it replaced, is the reference.
        # Against the 50-digit distance, the FFT route's error never exceeds
        # the product route's by more than one rounding of the result.
        rng = np.random.default_rng(21)
        for n in (16, 64, 128):
            g = Grid(n, 40.0)
            p = momentum_op(g)
            for _ in range(15):
                phi = two_packets(rng, g)
                exact = exact_momentum_distance(phi)
                d, reference = dist_to_eigenset(p, phi), plane_wave_product_distance(p, phi)
                with mp.workdps(DIGITS):
                    fft_error = float(abs(mp.mpf(d) - exact))
                    product_error = float(abs(mp.mpf(reference) - exact))
                assert fft_error <= product_error + np.spacing(d)
                assert fft_error <= n * EPS

    def test_svd_calls_grow_with_width_groups_not_pairs(self, monkeypatch):
        rng = np.random.default_rng(10)
        a = with_widths(rng, [1, 2, 3] * 4)
        b = with_widths(rng, [3, 2, 1] * 4)
        expected = pairwise_set_distance(a, b)
        calls = []
        for name in ("svd", "norm"):
            fn = getattr(np.linalg, name)

            def counted(*args, fn=fn, **kwargs):
                calls.append(fn)
                return fn(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        assert abs(eigenset_distance(a, b) - expected) <= 1e-12
        # 12 x 12 eigenspace pairs fall into 3 x 3 (width_B, width_A) groups
        assert len(calls) <= 9


@pytest.mark.parametrize("n", [2, 3, 16, 128, 1024])
def test_exact_zero_distances_stay_at_rounding_level(n):
    # Each distance here is exactly 0.  As arccos of a cosine rounded near 1
    # it came out as large as sqrt(eps); atan2 of the parts outside and
    # inside keeps it within a few n eps.
    rng = np.random.default_rng(n)
    a = random_hermitian(rng, n)
    vecs = a.spectrum.eigenvectors
    for _ in range(10):
        phi = random_state(rng, n)
        assert fs_distance(phi, phi) <= 4 * n * EPS
    for k in rng.choice(n, size=min(n, 10), replace=False):
        assert dist_to_eigenset(a, State(vecs[:, k])) <= 4 * n * EPS
    assert eigenset_distance(a, a) <= 4 * n * EPS


class TestEigenSet:
    def test_built_once_per_observable(self):
        a = with_widths(np.random.default_rng(11), MIXED_WIDTHS)
        assert eigenset(a) is eigenset(a)


class TestTriangleReport:
    def test_pauli_xy_on_up(self, sx, sy):
        rep = triangle_report(sx, sy, validate_state([1, 0]))
        assert rep.d_phi_a == pytest.approx(np.pi / 4)
        assert rep.d_phi_b == pytest.approx(np.pi / 4)
        assert rep.d_a_b == pytest.approx(np.pi / 4)
        assert rep.slack == pytest.approx(np.pi / 4)

    def test_state_in_first_set(self, sz, sx):
        rep = triangle_report(sz, sx, validate_state([1, 0]))
        assert rep.d_phi_a == pytest.approx(0.0)
        assert rep.slack >= 0

    def test_spin_bound_at_scale_two(self, sx, sy):
        rng = np.random.default_rng(7)
        for _ in range(100):
            phi = random_state(rng, 2)
            rep = triangle_report(sx, sy, phi, scale=2.0)
            assert rep.d_phi_a + rep.d_phi_b >= np.pi / 2 - 1e-9
            assert rep.slack >= -1e-10


class TestSpeedDistanceLink:
    def test_bloch_angle_relation(self, sz):
        # on the Bloch sphere the deviation of sigma_z is sin of twice the
        # ray distance to its eigenstate set
        for theta in np.linspace(0.0, np.pi / 2, 25):
            phi = validate_state([np.cos(theta / 2), np.sin(theta / 2)])
            d = dist_to_eigenset(sz, phi, 1.0)
            assert std_dev(sz, phi) == pytest.approx(np.sin(2 * d), abs=1e-10)
