import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from statesphere import (
    GeometryError,
    Grid,
    Observable,
    centered,
    centered_field,
    expectation,
    gaussian,
    inner,
    metric_g,
    minimal_condition,
    momentum_op,
    normalize,
    parallelogram_area,
    position_op,
    relations_report,
    spectral,
    std_dev,
    symplectic,
    uncertainty,
    validate_state,
)

from conftest import random_hermitian, random_state, random_unitary
from coordinates import realize
from oracle import brackets


class TestTangentField:
    def test_eigenstate_centered_field_vanishes(self, sz):
        assert np.allclose(centered_field(sz, validate_state([1, 0])), 0)

    def test_sigma_x_centered(self, sx):
        assert np.allclose(centered_field(sx, validate_state([1, 0])), [0, -1j])

    def test_horizontality(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            a = random_hermitian(rng, 4)
            phi = random_state(rng, 4)
            pairing = inner(centered_field(a, phi), phi.amplitudes)
            assert abs(pairing.real) <= 1e-10
            assert abs(pairing.imag) <= 1e-10


class TestStdDev:
    def test_eigenstate(self, sz):
        assert std_dev(sz, validate_state([1, 0])) == pytest.approx(0.0, abs=1e-14)

    def test_sigma_x_on_up(self, sx):
        assert std_dev(sx, validate_state([1, 0])) == pytest.approx(1.0)

    def test_sigma_z_on_plus(self, sz):
        assert std_dev(sz, normalize([1, 1])) == pytest.approx(1.0)

    def test_matches_moment_formula(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            a = random_hermitian(rng, n)
            phi = random_state(rng, n)
            v = phi.amplitudes
            m1 = np.real(np.vdot(v, a.matrix @ v))
            m2 = np.real(np.vdot(a.matrix @ v, a.matrix @ v))
            assert std_dev(a, phi) == pytest.approx(np.sqrt(max(m2 - m1**2, 0.0)), abs=1e-10)


class TestRelationsReport:
    def test_pauli_xy_on_up(self, sx, sy):
        rep = relations_report(sx, sy, validate_state([1, 0]))
        assert rep.delta_a == pytest.approx(1.0)
        assert rep.delta_b == pytest.approx(1.0)
        assert rep.area == pytest.approx(1.0)
        assert rep.metric_term == pytest.approx(0.0, abs=1e-12)
        assert rep.commutator_half == pytest.approx(1.0)
        assert rep.theta == pytest.approx(np.pi / 2)
        assert rep.identity_residual == pytest.approx(0.0, abs=1e-12)

    def test_eigenstate_of_b_degenerates(self, sz, sx):
        rep = relations_report(sz, sx, normalize([1, 1]))
        assert rep.delta_b == pytest.approx(0.0, abs=1e-12)
        assert rep.delta_a * rep.delta_b == pytest.approx(0.0, abs=1e-12)
        assert rep.commutator_half == pytest.approx(0.0, abs=1e-12)
        assert rep.robertson_slack >= -1e-10
        assert rep.schrodinger_slack >= -1e-10
        assert rep.area_bound_slack >= -1e-10

    def test_self_pair(self):
        rng = np.random.default_rng(2)
        a = random_hermitian(rng, 4)
        phi = random_state(rng, 4)
        rep = relations_report(a, a, phi)
        assert rep.area == pytest.approx(0.0, abs=1e-10)
        assert rep.metric_term == pytest.approx(rep.delta_a**2, rel=1e-10)
        assert rep.theta == pytest.approx(0.0, abs=1e-7)

    def test_serialization_field_names(self, sx, sy):
        rep = relations_report(sx, sy, validate_state([1, 0]))
        assert list(rep.to_dict()) == [
            "delta_a",
            "delta_b",
            "area",
            "metric_term",
            "commutator_half",
            "anticommutator_half",
            "identity_residual",
            "theta",
            "robertson_slack",
            "schrodinger_slack",
            "area_bound_slack",
        ]


class TestBracketTerms:
    """relations_report takes the brackets from matrix-vector products."""

    def test_matches_dense_brackets(self):
        rng = np.random.default_rng(12)
        for i in range(100):
            n = (2, 3, 4, 8, 16)[i % 5]
            a = Observable(10.0 ** rng.uniform(-2, 2) * random_hermitian(rng, n).matrix)
            b = Observable(10.0 ** rng.uniform(-2, 2) * random_hermitian(rng, n).matrix)
            phi = random_state(rng, n)
            rep = relations_report(a, b, phi)
            # A - <A> I and B - <B> I as matrices, formed here
            a_c, b_c = (obs.matrix - expectation(obs, phi) * np.eye(n) for obs in (a, b))
            v = phi.amplitudes
            for obs, oracle_c in ((a, a_c), (b, b_c)):
                action = centered(obs, phi)(v)
                assert np.abs(action - oracle_c @ v).max() <= 1e-12 * obs.scale
            comm, anti = brackets(Observable(a_c), Observable(b_c))
            tol = 1e-12 * max(a.scale, b.scale) ** 2
            assert rep.commutator_half == pytest.approx(0.5 * abs(inner(comm @ v, v)), abs=tol)
            assert rep.anticommutator_half == pytest.approx(0.5 * abs(inner(anti @ v, v)), abs=tol)

    def test_memory_stays_near_two_matrices(self):
        # The centred copies of x and p are the only n x n arrays the report
        # holds; forming A_c B_c and B_c A_c would double that.
        n = 512
        g = Grid(n, 40.0)
        x, p = position_op(g), momentum_op(g)
        phi = gaussian(g, 0.0, 0.0, 1.0)
        tracemalloc.start()
        try:
            relations_report(x, p, phi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * n * n * 16

    def test_grid_report_allocates_no_matrix(self):
        # x and p act by their matvecs: the report holds a few vectors, far
        # below one n x n array
        n = 1024
        g = Grid(n, 40.0)
        x, p = position_op(g), momentum_op(g)
        phi = gaussian(g, 0.0, 0.0, 1.0)
        tracemalloc.start()
        try:
            relations_report(x, p, phi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 16 / 16

    def test_commutator_cross_check_fires(self, monkeypatch, sx, sy):
        phi = normalize([1, 0.3 + 0.2j])
        relations_report(sx, sy, phi)
        monkeypatch.setattr(
            uncertainty, "symplectic", lambda xi, eta: symplectic(xi, eta) + 1e-6
        )
        with pytest.raises(GeometryError) as err:
            relations_report(sx, sy, phi)
        # the message names the two routes the report computes
        assert str(err.value) == (
            "commutator term disagrees between the second products "
            "A_c(B_c phi), B_c(A_c phi) and the symplectic form of X, Y"
        )


def anti_hermitian(m: np.ndarray, residual: float) -> np.ndarray:
    """The anti-Hermitian part K of m, scaled so that max |K - K^dagger| = residual.

    K is left as it is where that maximum is zero or subnormal.
    """
    k = 0.5 * (m - m.conj().T)
    peak = np.abs(k - k.conj().T).max()
    return k * (residual / peak) if peak >= np.finfo(float).tiny else k


def test_cross_check_reads_the_hermitian_parts():
    # A = h_A + K and B = h_B - K pass the Hermiticity check with residual
    # 0.9e-10.  The symplectic and second-product routes to the commutator
    # term agree only for Hermitian matrices: on the raw entries they
    # differed by more than 1e-10 at this seed.
    rng = np.random.default_rng(98)
    n = 32
    k = anti_hermitian(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), 0.9e-10)
    a = Observable(random_hermitian(rng, n).matrix + k)
    b = Observable(random_hermitian(rng, n).matrix - k)
    for obs in (a, b):
        assert np.array_equal(obs.matrix, obs.matrix.conj().T)
    rep = relations_report(a, b, random_state(rng, n))
    assert abs(rep.identity_residual) <= 1e-10


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(2, 16), log_size=st.floats(-3, 3),
       defect=st.floats(0, 0.9))
def test_accepted_defect_leaves_the_relations_intact(data, n, log_size, defect):
    # Any input within the Hermiticity tolerance is stored exactly Hermitian,
    # an exactly Hermitian one as given, and every relation then holds.
    unit = st.floats(-1, 1, allow_subnormal=False)

    def draw(*shape):
        return data.draw(arrays(float, (*shape, 2), elements=unit)) @ [1, 1j]

    hs = []
    for _ in range(2):
        m = draw(n, n)
        h = m + m.conj().T
        peak = np.abs(h).max()
        hs.append(h / peak * 10.0**log_size if peak >= np.finfo(float).tiny else h)
    scales = [max(1.0, float(np.abs(h).max())) for h in hs]
    k = anti_hermitian(draw(n, n), defect * 1e-10 * min(scales))
    v = draw(n)
    assume(np.linalg.norm(v) > 1e-3)
    phi = normalize(v)

    assert Observable(hs[0]).matrix.tobytes() == hs[0].tobytes()
    a, b = Observable(hs[0] + k), Observable(hs[1] - k)
    for obs in (a, b):
        assert np.array_equal(obs.matrix, obs.matrix.conj().T)
    rep = relations_report(a, b, phi)
    std_dev(a, phi)
    minimal_condition(a, b, phi)
    assert abs(rep.identity_residual) <= 1e-10 * max(scales) ** 4


class TestReportInvariants:
    def test_random_corpus(self):
        rng = np.random.default_rng(3)
        for i in range(200):
            n = (2, 3, 4, 8, 16)[i % 5]
            a = random_hermitian(rng, n)
            b = random_hermitian(rng, n)
            phi = random_state(rng, n)
            rep = relations_report(a, b, phi)
            x = centered_field(a, phi)
            y = centered_field(b, phi)
            assert abs(rep.identity_residual) <= 1e-10
            assert rep.robertson_slack >= -1e-10
            assert rep.area_bound_slack >= -1e-10
            # strengthened relation is Cauchy-Schwarz for X, Y
            cs_gap = (
                np.linalg.norm(x) ** 2 * np.linalg.norm(y) ** 2
                - abs(inner(x, y)) ** 2
            )
            assert rep.schrodinger_slack == pytest.approx(cs_gap, abs=1e-10)
            assert rep.commutator_half == pytest.approx(abs(symplectic(x, y)), abs=1e-10)
            assert rep.anticommutator_half == pytest.approx(abs(metric_g(x, y)), abs=1e-10)
            # angle decomposition
            prod = rep.delta_a * rep.delta_b
            assert rep.area == pytest.approx(prod * np.sin(rep.theta), abs=1e-10)
            assert rep.metric_term == pytest.approx(prod * np.cos(rep.theta), abs=1e-10)

    def test_linear_dependence_necessary_condition(self, sx):
        # B a real multiple of A: realized fields are linearly dependent,
        # the area term vanishes and only the metric term remains
        b = Observable(2.0 * sx.matrix)
        phi = normalize([2, 1])
        rep = relations_report(sx, b, phi)
        assert rep.area <= 1e-12
        x = realize(centered_field(sx, phi))
        y = realize(centered_field(b, phi))
        assert np.linalg.matrix_rank(np.stack([x, y]), tol=1e-10) == 1
        assert rep.commutator_half <= 1e-12

    def test_commuting_pair_with_positive_product(self, sz):
        # product observables on an entangled state: commuting, both deviations 1
        a = Observable(np.kron(sz.matrix, np.eye(2)))
        b = Observable(np.kron(np.eye(2), sz.matrix))
        bell = normalize([1, 0, 0, 1])
        comm, _ = brackets(a, b)
        assert np.allclose(comm, 0)
        rep = relations_report(a, b, bell)
        assert rep.delta_a * rep.delta_b == pytest.approx(1.0)

    def test_noncommuting_pair_with_common_eigenvector(self, sx, sy):
        # embed sigma_x, sigma_y in n=3 with a shared third eigenvector
        a = Observable(np.block([[sx.matrix, np.zeros((2, 1))], [np.zeros((1, 2)), 0]]))
        b = Observable(np.block([[sy.matrix, np.zeros((2, 1))], [np.zeros((1, 2)), 0]]))
        comm, _ = brackets(a, b)
        assert np.max(np.abs(comm)) > 0.1
        phi = validate_state([0, 0, 1])
        assert std_dev(a, phi) <= 1e-12
        assert std_dev(b, phi) <= 1e-12

    def test_commutator_half_shift_invariance(self):
        rng = np.random.default_rng(4)
        a = random_hermitian(rng, 4)
        b = random_hermitian(rng, 4)
        phi = random_state(rng, 4)
        base = relations_report(a, b, phi).commutator_half
        for coef in (-1.5, 0.25, 3.0):
            shifted = Observable(b.matrix + coef * a.matrix)
            assert relations_report(a, shifted, phi).commutator_half == pytest.approx(
                base, abs=1e-10
            )

    def test_unitary_invariance(self):
        rng = np.random.default_rng(5)
        a = random_hermitian(rng, 4)
        b = random_hermitian(rng, 4)
        phi = random_state(rng, 4)
        rep = relations_report(a, b, phi)
        u = random_unitary(rng, 4)
        rep_u = relations_report(
            Observable(u @ a.matrix @ u.conj().T),
            Observable(u @ b.matrix @ u.conj().T),
            normalize(u @ phi.amplitudes),
        )
        for name, val in rep.to_dict().items():
            assert val == pytest.approx(getattr(rep_u, name), abs=1e-9), name


class TestMinimalCondition:
    def test_pauli_equality_state(self, sx, sy):
        res = minimal_condition(sx, sy, validate_state([1, 0]))
        assert res.lam == pytest.approx(1j)
        assert res.residual <= 1e-12
        assert abs(res.re_lambda) <= 1e-12
        assert res.is_minimal

    def test_self_pair_real_lambda(self):
        rng = np.random.default_rng(6)
        a = random_hermitian(rng, 3)
        phi = random_state(rng, 3)
        res = minimal_condition(a, a, phi)
        assert res.lam == pytest.approx(1.0)
        assert res.re_lambda == pytest.approx(1.0)
        assert not res.is_minimal

    @pytest.mark.parametrize("side", ["a", "b"])
    def test_eigenstate_is_certified(self, side):
        # A computed eigenvector leaves a rounding-level deviation, so a ratio
        # fit against it would be undefined (side a) or noise (side b).
        rng = np.random.default_rng(8)
        a, b = random_hermitian(rng, 4), random_hermitian(rng, 4)
        phi = validate_state(spectral(a if side == "a" else b).eigenvectors[:, 1])
        res = minimal_condition(a, b, phi)
        assert res.is_minimal
        assert res.residual == 0.0

    def test_scale_invariance_of_residual(self, sx, sy):
        rng = np.random.default_rng(7)
        phi = random_state(rng, 2)
        res = minimal_condition(sx, sy, phi)
        scaled = minimal_condition(sx, Observable(3.0 * sy.matrix), phi)
        assert scaled.residual == pytest.approx(res.residual, abs=1e-9)
