import numpy as np
import pytest

from statesphere import (
    DimensionMismatch,
    ZeroVector,
    metric_g,
    parallelogram_area,
    symplectic,
)

from conftest import random_state
from coordinates import adapted_basis, realize


def random_vector(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def six_term_area_sq(X, Y):
    """Coordinate pair-sum oracle for the squared area (any dimension)."""
    x = realize(X)
    y = realize(Y)
    total = 0.0
    for i in range(x.size):
        for j in range(i + 1, x.size):
            total += (x[i] * y[j] - x[j] * y[i]) ** 2
    return total


class TestRealize:
    def test_definition_unrolled(self):
        assert np.allclose(realize([1 + 2j, 3]), [1, 2, 3, 0])

    def test_pure_imaginary(self):
        assert np.allclose(realize([1j, 0]), [0, 1, 0, 0])

    def test_isometry(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            v = random_vector(rng, 5)
            assert np.linalg.norm(realize(v)) == pytest.approx(
                np.linalg.norm(v), abs=1e-12
            )


class TestMetricAndSymplectic:
    def test_metric_values(self):
        assert metric_g([1, 0], [1j, 0]) == pytest.approx(0.0)
        assert metric_g([1, 0], [1, 0]) == pytest.approx(1.0)

    def test_metric_positivity(self):
        rng = np.random.default_rng(1)
        v = random_vector(rng, 4)
        assert metric_g(v, v) == pytest.approx(np.linalg.norm(v) ** 2)

    def test_metric_is_euclidean_dot_of_realizations(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            v, w = random_vector(rng, 4), random_vector(rng, 4)
            assert metric_g(v, w) == pytest.approx(
                float(realize(v) @ realize(w)), abs=1e-12
            )

    def test_symplectic_values(self):
        assert symplectic([1, 0], [1j, 0]) == pytest.approx(-1.0)
        assert symplectic([1, 0], [0, 1]) == pytest.approx(0.0)

    def test_antisymmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            v, w = random_vector(rng, 3), random_vector(rng, 3)
            assert symplectic(v, w) == pytest.approx(-symplectic(w, v), abs=1e-12)
            assert symplectic(v, v) == pytest.approx(0.0, abs=1e-12)

    def test_real_bilinearity(self):
        rng = np.random.default_rng(4)
        u, v, w = (random_vector(rng, 4) for _ in range(3))
        a, b = rng.standard_normal(2)
        for form in (metric_g, symplectic):
            assert form(a * u + b * v, w) == pytest.approx(
                a * form(u, w) + b * form(v, w), abs=1e-10
            )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            metric_g([1, 0], [1, 0, 0])


class TestParallelogramArea:
    def test_unit_square(self):
        assert parallelogram_area([1, 0], [0, 1]) == pytest.approx(1.0)

    def test_real_multiple_degenerate(self):
        rng = np.random.default_rng(5)
        v = random_vector(rng, 3)
        assert parallelogram_area(v, 2.5 * v) == pytest.approx(0.0, abs=1e-10)

    def test_complex_line_not_degenerate(self):
        # i*v is a real rotation of the realization, not a real multiple
        assert parallelogram_area([1, 0], [1j, 0]) == pytest.approx(1.0)

    def test_lagrange_consistency(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            v, w = random_vector(rng, 4), random_vector(rng, 4)
            lhs = parallelogram_area(v, w) ** 2 + metric_g(v, w) ** 2
            rhs = np.linalg.norm(v) ** 2 * np.linalg.norm(w) ** 2
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_coordinate_sum_oracle_n2(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            v, w = random_vector(rng, 2), random_vector(rng, 2)
            assert parallelogram_area(v, w) ** 2 == pytest.approx(
                six_term_area_sq(v, w), rel=1e-10, abs=1e-10
            )


class TestAdaptedBasis:
    def test_first_vector_coordinates(self):
        rng = np.random.default_rng(8)
        X, Y = random_vector(rng, 3), random_vector(rng, 3)
        ab = adapted_basis(X, Y)
        assert ab.x[0] == pytest.approx(np.linalg.norm(X))
        assert np.all(ab.x[1:] == 0.0)

    def test_complex_line_case(self):
        # Y = i X lies in the complex line of X: only the second coordinate
        # survives, and only its magnitude is convention-free.
        ab = adapted_basis([1, 0], [1j, 0])
        assert np.allclose(ab.x, [1, 0, 0, 0])
        assert ab.y[0] == pytest.approx(0.0, abs=1e-12)
        assert abs(ab.y[1]) == pytest.approx(1.0)
        assert ab.y[2] == ab.y[3] == 0.0

    def test_identical_vectors(self):
        ab = adapted_basis([1, 0], [1, 0])
        assert np.allclose(ab.y, [1, 0, 0, 0])

    def test_orthogonal_lands_on_e2(self):
        ab = adapted_basis([1, 0], [0, 1])
        assert np.allclose(ab.y, [0, 0, 1, 0])

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            adapted_basis([0, 0], [1, 0])

    def test_symplectic_coordinate_reduction(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            X, Y = random_vector(rng, 4), random_vector(rng, 4)
            ab = adapted_basis(X, Y)
            assert abs(ab.x[0] * ab.y[1]) == pytest.approx(
                abs(symplectic(X, Y)), rel=1e-10, abs=1e-10
            )

    def test_product_of_norms_formula(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            X, Y = random_vector(rng, 4), random_vector(rng, 4)
            ab = adapted_basis(X, Y)
            assert ab.x[0] ** 2 * np.sum(ab.y**2) == pytest.approx(
                np.linalg.norm(X) ** 2 * np.linalg.norm(Y) ** 2, rel=1e-10
            )

    def test_metric_coordinate_reduction(self):
        rng = np.random.default_rng(11)
        X, Y = random_vector(rng, 3), random_vector(rng, 3)
        ab = adapted_basis(X, Y)
        assert ab.x[0] * ab.y[0] == pytest.approx(metric_g(X, Y), rel=1e-10)
