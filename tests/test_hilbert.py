import json

import numpy as np
import pytest

from statesphere import (
    DimensionMismatch,
    DimensionTooSmall,
    NonFinite,
    NotHermitian,
    Observable,
    State,
    ZeroVector,
    centered,
    expectation,
    inner,
    normalize,
    spectral,
    trace_flow,
    triangle_report,
    validate_state,
)
from statesphere.cli import main

from conftest import random_hermitian, random_state, random_unitary
from oracle import brackets


def run_commands(tmp_path, state, a, b, commands):
    """Exit code of each CLI command on a problem file with observables a and b."""
    def pairs(v):
        return [[z.real, z.imag] for z in np.asarray(v, dtype=complex).tolist()]

    problem = {"dim": len(state), "state": pairs(state),
               "observables": {"a": [pairs(row) for row in a], "b": [pairs(row) for row in b]}}
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    argvs = {
        "report": ["--pair", "a", "b"],
        "evolve": ["--generator", "a", "--t-max", "1", "--steps", "4"],
        "minimize": ["--pair", "a", "b", "--restarts", "2"],
    }
    return [main([name, "--input", str(path), *argvs[name]]) for name in commands]


class TestValidateState:
    def test_already_normalized(self):
        st = validate_state([1, 0])
        assert np.allclose(st.amplitudes, [1, 0])

    def test_scaling_with_loose_tol(self):
        st = validate_state([2, 0], tol=np.inf)
        assert np.allclose(st.amplitudes, [1, 0])
        assert np.linalg.norm(st.amplitudes) == 1.0

    def test_zero_vector(self):
        with pytest.raises(ZeroVector):
            validate_state([0, 0])

    def test_dimension_too_small(self):
        with pytest.raises(DimensionTooSmall):
            validate_state([1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
    def test_non_finite_rejected_at_any_tol(self, bad):
        for tol in (1e-12, np.inf):
            with pytest.raises(NonFinite):
                validate_state([bad, 1], tol=tol)
        with pytest.raises(NonFinite):
            State([bad, 1])


class TestInner:
    def test_orthogonal_basis_vectors(self):
        assert inner([1, 0], [0, 1]) == 0

    def test_conjugate_linear_second_argument(self):
        # 1 * conj(i) = -i
        assert inner([1, 0], [1j, 0]) == pytest.approx(-1j)

    def test_conjugate_symmetry(self):
        assert inner([0, 1], [0, 1j]) == np.conj(inner([0, 1j], [0, 1]))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            inner([1, 0], [1, 0, 0])


class TestExpectation:
    def test_eigenstate(self, sz):
        assert expectation(sz, validate_state([1, 0])) == pytest.approx(1.0)

    def test_off_diagonal(self, sx):
        assert expectation(sx, validate_state([1, 0])) == pytest.approx(0.0)

    def test_identity(self):
        rng = np.random.default_rng(3)
        phi = random_state(rng, 5)
        ident = Observable(np.eye(5))
        assert expectation(ident, phi) == pytest.approx(1.0)

    def test_equals_metric_projection(self, sy):
        # <A> is the metric pairing of -iA phi with -i phi
        from statesphere import metric_g

        rng = np.random.default_rng(4)
        phi = random_state(rng, 2)
        v = phi.amplitudes
        assert expectation(sy, phi) == pytest.approx(
            metric_g(-1j * (sy.matrix @ v), -1j * v)
        )

    def test_non_hermitian_rejected(self):
        with pytest.raises(NotHermitian):
            Observable([[0, 1], [0, 0]])

    def test_lone_defect_below_the_diagonal_rejected(self):
        m = np.zeros((130, 130), dtype=complex)
        m[129, 2] = 3.0 + 4.0j  # its mirror entry is zero
        with pytest.raises(NotHermitian):
            Observable(m)

    def test_accepted_matrix_gives_no_imaginary_mean(self, tmp_path):
        # Each entry of a is within 1e-10 of its mirror, but the pairing
        # <phi|a|phi> of the raw entries has imaginary part 1.4e-9 at the
        # uniform state.  The mean comes from the Hermitian part alone.
        n = 32
        h = random_hermitian(np.random.default_rng(1), n).matrix
        a = h + 0.45e-10j * (np.ones((n, n)) - np.eye(n))
        obs = Observable(a)
        assert np.array_equal(obs.matrix, obs.matrix.conj().T)
        state = np.full(n, n**-0.5)
        assert run_commands(tmp_path, state, a, h.T, ["report", "evolve"]) == [0, 0]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_observable_rejected(self, bad):
        with pytest.raises(NonFinite):
            Observable([[bad, 0], [0, 1]])


def centred_oracle(a: Observable, phi: State) -> np.ndarray:
    """A - <A> I as a matrix, formed here from A's matrix."""
    return a.matrix - expectation(a, phi) * np.eye(a.dim)


def centred_action(a: Observable, phi: State) -> np.ndarray:
    """The matrix of centered(a, phi), read off its action on the unit vectors."""
    return centered(a, phi)(np.eye(a.dim, dtype=complex))


class TestCentered:
    def test_sigma_z_on_up(self, sz):
        up = validate_state([1, 0])
        assert np.allclose(centred_oracle(sz, up), sz.matrix - np.eye(2))
        assert np.allclose(centred_action(sz, up), sz.matrix - np.eye(2))

    def test_sigma_x_unchanged(self, sx):
        up = validate_state([1, 0])
        assert np.allclose(centred_action(sx, up), centred_oracle(sx, up))
        assert np.allclose(centred_action(sx, up), sx.matrix)

    def test_identity_centers_to_zero(self):
        rng = np.random.default_rng(5)
        phi = random_state(rng, 4)
        one = Observable(np.eye(4))
        assert np.allclose(centred_oracle(one, phi), 0)
        assert np.allclose(centred_action(one, phi), 0)

    def test_centered_expectation_vanishes(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            a = random_hermitian(rng, 4)
            phi = random_state(rng, 4)
            v = phi.amplitudes
            action = centered(a, phi)
            assert np.allclose(action(v), centred_oracle(a, phi) @ v, rtol=0, atol=1e-12)
            assert abs(inner(action(v), v).real) <= 1e-12

    def test_is_not_checked_again_at_its_own_scale(self, tmp_path):
        # a's residual 1e-5 is within 1e-10 of its scale 1e6.  A centred copy
        # of the raw entries keeps that residual at entries of order 1.
        a = [[1e6, 0.3 + 2e-5j], [0.3 - 1e-5j, 1e6 + 1]]
        obs = Observable(a)
        assert np.array_equal(obs.matrix, obs.matrix.conj().T)
        sx = [[0, 1], [1, 0]]
        codes = run_commands(tmp_path, [0.6, 0.8], a, sx, ["report", "evolve", "minimize"])
        assert codes == [0, 0, 0]


class TestBrackets:
    def test_pauli_xy(self, sx, sy, sz):
        comm, _ = brackets(sx, sy)
        assert np.allclose(comm, 2j * sz.matrix)

    def test_self_bracket(self, sx):
        comm, anti = brackets(sx, sx)
        assert np.allclose(comm, 0)
        assert np.allclose(anti, 2 * sx.matrix @ sx.matrix)

    def test_identity_commutes(self, sx):
        comm, _ = brackets(sx, Observable(np.eye(2)))
        assert np.allclose(comm, 0)

    def test_centering_invariance(self):
        rng = np.random.default_rng(7)
        a = random_hermitian(rng, 4)
        b = random_hermitian(rng, 4)
        phi = random_state(rng, 4)
        comm, _ = brackets(a, b)
        for obs in (a, b):
            assert np.allclose(centred_action(obs, phi), centred_oracle(obs, phi), atol=1e-12)
        comm_c, _ = brackets(Observable(centred_action(a, phi)), Observable(centred_action(b, phi)))
        assert np.allclose(comm, comm_c, atol=1e-12)

    def test_hermiticity_structure(self):
        rng = np.random.default_rng(8)
        a = random_hermitian(rng, 5)
        b = random_hermitian(rng, 5)
        comm, anti = brackets(a, b)
        assert np.max(np.abs(comm + comm.conj().T)) <= 1e-10
        assert np.max(np.abs(anti - anti.conj().T)) <= 1e-10
        assert abs(np.trace(comm)) <= 1e-10 * 5

    def test_dimension_mismatch(self, sx):
        with pytest.raises(DimensionMismatch):
            brackets(sx, Observable(np.eye(3)))


class TestSpectral:
    def test_sigma_z(self, sz):
        dec = spectral(sz)
        assert np.allclose(dec.eigenvalues, [-1, 1])
        assert abs(abs(dec.eigenvectors[1, 0]) - 1) <= 1e-12
        assert abs(abs(dec.eigenvectors[0, 1]) - 1) <= 1e-12

    def test_identity_triple(self):
        dec = spectral(Observable(np.eye(3)))
        assert np.allclose(dec.eigenvalues, 1)

    def test_sigma_x(self, sx):
        dec = spectral(sx)
        assert np.allclose(dec.eigenvalues, [-1, 1])
        for col, val in zip(dec.eigenvectors.T, dec.eigenvalues):
            assert np.allclose(sx.matrix @ col, val * col, atol=1e-12)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(9)
        a = random_hermitian(rng, 8)
        dec = spectral(a)
        v = dec.eigenvectors
        recon = v @ np.diag(dec.eigenvalues) @ v.conj().T
        assert np.max(np.abs(recon - a.matrix)) <= 1e-10
        assert np.max(np.abs(v.conj().T @ v - np.eye(8))) <= 1e-10
        for col, val in zip(v.T, dec.eigenvalues):
            assert np.linalg.norm(a.matrix @ col - val * col) <= 1e-9

    def test_degenerate_eigenspaces_grouped(self):
        dec = spectral(Observable(np.diag([1.0, 1.0, 2.0])))
        spaces = dec.eigenspaces()
        assert len(spaces) == 2
        assert spaces[0][1].shape == (3, 2)

    @pytest.mark.parametrize("size", [1e-20, 1e-3, 1.0, 1e20])
    def test_degeneracy_gap_is_relative_at_any_magnitude(self, size):
        # eigenvalues split where they differ by more than DEGENERACY_GAP
        # times the largest magnitude, below 1 as above it
        for diagonal, widths in [([1.0, 1.0, 2.0], [2, 1]), ([1.0, 1.0 + 1e-12, 2.0], [2, 1]),
                                 ([1.0, 1.0 + 1e-6, 2.0], [1, 1, 1])]:
            spaces = spectral(Observable(size * np.diag(diagonal))).eigenspaces()
            assert [basis.shape[1] for _, basis in spaces] == widths

    def test_zero_operator_is_one_eigenspace(self):
        spaces = spectral(Observable(np.zeros((3, 3)))).eigenspaces()
        assert len(spaces) == 1 and spaces[0][0] == 0.0

    def test_decomposed_once_per_observable(self, monkeypatch):
        calls = []
        for name in ("eigh", "eigvalsh"):
            solver = getattr(np.linalg, name)

            def counted(m, solver=solver):
                calls.append(solver)
                return solver(m)

            monkeypatch.setattr(np.linalg, name, counted)
        rng = np.random.default_rng(4)
        phi = random_state(rng, 5)
        trace_flow(random_hermitian(rng, 5), phi, 1.0, 16)
        assert len(calls) == 1
        triangle_report(random_hermitian(rng, 5), random_hermitian(rng, 5), phi)
        assert len(calls) == 3


class TestInvariance:
    def test_phase_and_unitary_covariance(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            a = random_hermitian(rng, n)
            phi = random_state(rng, n)
            e = expectation(a, phi)
            shifted = normalize(np.exp(1j * rng.uniform(0, 2 * np.pi)) * phi.amplitudes)
            assert abs(expectation(a, shifted) - e) <= 1e-12
            u = random_unitary(rng, n)
            assert abs(
                expectation(Observable(u @ a.matrix @ u.conj().T), normalize(u @ phi.amplitudes)) - e
            ) <= 1e-10
