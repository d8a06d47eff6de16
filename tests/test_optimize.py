import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from mpmath import mp

from statesphere import (
    DimensionMismatch,
    Grid,
    Observable,
    gaussian,
    fs_distance,
    minimal_condition,
    minimize_multistart,
    minimize_product,
    momentum_op,
    normalize,
    objective,
    optimize,
    position_op,
    relations_report,
    riemannian_grad,
    spectral,
    std_dev,
    uncertainty,
    validate_state,
)
from statesphere.hilbert import centered, expectation

from conftest import hermitian, random_hermitian, random_state
from oracle import minimize_fields, normalised

EPS = np.finfo(float).eps


def rounding_allowance(n: int, scale: float) -> float:
    """n eps scale**4: how far rounding may move f, of degree 4 in the operators."""
    return n * EPS * scale**4


def two_packet_start(g):
    """A superposition of two wave packets on the n = 64 grid g."""
    psi = np.zeros(g.n, dtype=complex)
    for centre, sigma, k0, weight, phase in (
        (-3.0840343921578315, 1.4551931865786556, -0.5342894938880451,
         0.7322935313789465, 0.2569908773932812),
        (7.346838112301143, 0.9884263580760617, -0.4345078141200651,
         0.9264027652861015, 0.2604827353969633),
    ):
        envelope = -((g.points - centre) ** 2) / (4 * sigma**2)
        psi += weight * np.exp(2j * np.pi * phase + envelope + 1j * k0 * g.points)
    return normalize(psi)


def gradient_stop_start(g):
    """The workload-seed-3 minimize-xp start on the n = 64 grid g, built
    and normalised as a problem file holds it."""
    psi = np.zeros(g.n, dtype=complex)
    for centre, sigma, k0, weight, phase in (
        (-6.365394049445129, 1.0637379306561696, -0.30529448916750845,
         0.5541322996318319, 0.5729824663658957),
        (7.125013772196277, 1.300308235884153, -0.22139641033779678,
         0.8306655202778821, 0.4022941440392247),
    ):
        envelope = -((g.points - centre) ** 2) / (4 * sigma**2)
        psi += weight * np.exp(2j * np.pi * phase) * np.exp(envelope + 1j * k0 * g.points)
    return normalize(psi / np.linalg.norm(psi))


@pytest.fixture
def descents(monkeypatch):
    """The start and OptimizeResult of every search, in the order they run."""
    runs, search = [], optimize._search

    def recorded(A, B, matrices, squares, phi, *args):
        res = search(A, B, matrices, squares, phi, *args)
        runs.append((phi, res))
        return res

    monkeypatch.setattr(optimize, "_search", recorded)
    return runs


def fd_gradient(a, b, v, step=1e-5):
    """Central differences of the normalized variance product."""
    grad = np.zeros(v.size, dtype=complex)
    for k in range(v.size):
        for direction in (1.0, 1j):
            e = np.zeros(v.size, dtype=complex)
            e[k] = direction * step
            diff = (objective(a, b, v + e) - objective(a, b, v - e)) / (2 * step)
            grad[k] += direction * diff
    return grad


class TestRiemannianGrad:
    def test_zero_at_eigenstate(self, sx, sy):
        # eigenstate of A is a global minimum of the product
        phi = normalize([1, 1])
        g = riemannian_grad(sx, sy, phi)
        assert np.linalg.norm(g) <= 1e-10

    def test_finite_difference_match_pauli(self, sx, sy):
        phi = validate_state([1, 0])
        g = riemannian_grad(sx, sy, phi)
        fd = fd_gradient(sx, sy, phi.amplitudes)
        assert np.linalg.norm(g - fd) <= 1e-5 * max(np.linalg.norm(fd), 1.0)

    def test_finite_difference_match_random(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            a = random_hermitian(rng, n)
            b = random_hermitian(rng, n)
            phi = random_state(rng, n)
            g = riemannian_grad(a, b, phi)
            fd = fd_gradient(a, b, phi.amplitudes)
            assert np.linalg.norm(g - fd) <= 1e-5 * max(np.linalg.norm(fd), 1e-3)

    def test_horizontality(self):
        rng = np.random.default_rng(1)
        a = random_hermitian(rng, 4)
        b = random_hermitian(rng, 4)
        phi = random_state(rng, 4)
        g = riemannian_grad(a, b, phi)
        from statesphere import inner

        assert abs(inner(g, phi.amplitudes)) <= 1e-10

    def test_one_row_matches_the_sequential_reference(self):
        # objective and riemannian_grad round as `A @ v` and np.vdot written out.
        rng = np.random.default_rng(6)
        for n in (2, 3, 17, 64):
            a, b = random_hermitian(rng, n), random_hermitian(rng, n)
            phi = random_state(rng, n)
            v = phi.amplitudes
            n2 = np.vdot(v, v).real
            av, bv = a.matrix @ v, b.matrix @ v
            ma, mb = np.vdot(v, av).real / n2, np.vdot(v, bv).real / n2
            va = max(np.vdot(av, av).real / n2 - ma * ma, 0.0)
            vb = max(np.vdot(bv, bv).real / n2 - mb * mb, 0.0)
            assert objective(a, b, v) == va * vb
            grad_va = 2.0 * (a.matrix @ av) - 4.0 * ma * av
            grad_vb = 2.0 * (b.matrix @ bv) - 4.0 * mb * bv
            xi = vb * grad_va + va * grad_vb
            assert np.array_equal(riemannian_grad(a, b, phi), xi - np.vdot(v, xi) * v)

    def test_phase_gauge_invariance(self):
        rng = np.random.default_rng(2)
        a = random_hermitian(rng, 3)
        b = random_hermitian(rng, 3)
        phi = random_state(rng, 3)
        shifted = normalize(np.exp(0.9j) * phi.amplitudes)
        f1 = objective(a, b, phi.amplitudes)
        f2 = objective(a, b, shifted.amplitudes)
        assert f2 == pytest.approx(f1, abs=1e-10)
        n1 = np.linalg.norm(riemannian_grad(a, b, phi))
        n2 = np.linalg.norm(riemannian_grad(a, b, shifted))
        assert n2 == pytest.approx(n1, abs=1e-10)


class TestMinimizeProduct:
    def test_pauli_pair_reaches_eigenstate(self, sx, sy):
        res = minimize_multistart(sx, sy, restarts=8, seed=0)
        assert res.value <= 1e-8
        eigvecs = [
            validate_state(col)
            for obs in (sx, sy)
            for col in spectral(obs).eigenvectors.T
        ]
        assert min(fs_distance(res.state, e) for e in eigvecs) <= 1e-4

    def test_grid_pair_from_gaussian(self):
        g = Grid(256, 40.0)
        p = momentum_op(g)
        x = position_op(g)
        start = gaussian(g, 0.0, 0.0, 1.3)
        res = minimize_product(p, x, start, max_iter=2000, grad_tol=1e-6)
        assert res.value <= (g.hbar / 2) ** 2 + 1e-3
        assert res.certificate.is_minimal

    def test_self_pair(self):
        rng = np.random.default_rng(3)
        a = random_hermitian(rng, 3)
        res = minimize_multistart(a, a, restarts=4, seed=1)
        assert res.value <= 1e-10

    def test_monotone_trace(self, sx, sy):
        rng = np.random.default_rng(4)
        res = minimize_product(sx, sy, random_state(rng, 2))
        trace = np.asarray(res.objective_trace)
        assert np.all(np.diff(trace) <= 0)

    def test_value_consistent_with_report(self, sx, sy):
        rng = np.random.default_rng(5)
        res = minimize_product(sx, sy, random_state(rng, 2), max_iter=20)
        rep = relations_report(sx, sy, res.state)
        assert res.value == pytest.approx(
            rep.delta_a**2 * rep.delta_b**2, abs=1e-10
        )

    def test_stop_reason(self, sx, sy):
        rng = np.random.default_rng(4)
        start = random_state(rng, 2)
        cut = minimize_product(sx, sy, start, max_iter=1)
        assert (cut.stop_reason, cut.converged) == ("iterations", False)
        done = minimize_product(sx, sy, start)
        assert done.stop_reason in ("gradient", "floor") and done.converged
        assert list(done.to_dict())[3:5] == ["converged", "stop_reason"]

    def test_step_count(self, monkeypatch):
        # Measured: every random restart on x,p is certified after one
        # eigen-step and stops on the gradient test, after 3 objective
        # evaluations (the start, the plain step, and one rejected doubling)
        # and 2 gradients (at the start and at the accepted point).  The
        # objective bound allows twice that; the gradient is formed once per
        # eigen-step, at the point stepped from, and once more for the test
        # that stops the run.
        g = Grid(64, 40.0)
        runs, objectives, gradients = [], [], []
        variances, gradient, search = optimize._variances, optimize._gradient, optimize._search

        def counted_variances(*args):
            objectives[-1] += 1
            return variances(*args)

        def counted_gradient(*args):
            gradients[-1] += 1
            return gradient(*args)

        def recorded(*args):
            objectives.append(0)
            gradients.append(0)
            runs.append(search(*args))
            return runs[-1]

        monkeypatch.setattr(optimize, "_variances", counted_variances)
        monkeypatch.setattr(optimize, "_gradient", counted_gradient)
        monkeypatch.setattr(optimize, "_search", recorded)
        minimize_multistart(position_op(g), momentum_op(g), restarts=8, seed=1)
        assert len(runs) == 8
        assert all(res.iterations <= 2 for res in runs)
        assert all(0 < count <= 6 for count in objectives)
        assert all(0 < count <= res.iterations + 1 for count, res in zip(gradients, runs))
        for res in runs:
            assert np.all(np.diff(res.objective_trace) < 0)
            assert res.stop_reason == "gradient" and res.converged

    def test_certificate_at_eigenstate_of_b(self, sx, sz):
        # Within 1e-7 of the sz eigenstate |0>, far from both sx eigenstates:
        # dB = 2e-7 is below CERT_TOL while |X| is near 1.  The fit of Y on X
        # gives a real lambda of order dB, so the ratio test alone would call
        # this global minimum not minimal.
        phi = normalize([1, 1e-7])
        assert std_dev(sx, phi) > 0.5
        cert = minimal_condition(sx, sz, phi)
        assert cert.is_minimal
        assert cert.residual == 0.0

    def test_certificate_builds_each_centered_field_once(self, monkeypatch):
        rng = np.random.default_rng(13)
        a, b = random_hermitian(rng, 6), random_hermitian(rng, 6)
        phi = random_state(rng, 6)
        expected = minimal_condition(a, b, phi)
        calls, centered_ = [0], uncertainty.centered

        def counted(*args):
            calls[0] += 1
            return centered_(*args)

        monkeypatch.setattr(uncertainty, "centered", counted)
        assert minimal_condition(a, b, phi) == expected
        assert calls[0] == 2

    def test_invalid_max_iter(self, sx, sy):
        with pytest.raises(ValueError):
            minimize_product(sx, sy, validate_state([1, 0]), max_iter=0)

    def test_dimension_mismatch(self, sx, sy):
        s3 = Observable(np.diag([1.0, 0.0, -1.0]))
        with pytest.raises(DimensionMismatch):
            minimize_product(sx, s3, validate_state([1, 0]))
        with pytest.raises(DimensionMismatch):
            minimize_multistart(sx, sy, phi0=validate_state([1, 0, 0]), restarts=2)

    def test_invalid_restarts(self, sx, sy):
        with pytest.raises(ValueError):
            minimize_multistart(sx, sy, restarts=0)

    def test_seed_determinism(self, sx, sy):
        r1 = minimize_multistart(sx, sy, restarts=3, seed=7)
        r2 = minimize_multistart(sx, sy, restarts=3, seed=7)
        assert np.array_equal(r1.state.amplitudes, r2.state.amplitudes)
        assert r1.value == r2.value
        assert r1.seed == 7

    def test_certified_restart_beats_lower_uncertified_value(self, monkeypatch):
        # From this two-packet superposition one eigen-step passes the
        # gradient test at hbar^2/4 + 5.8e-12, uncertified (residual
        # 1.4e-5); the random restart is certified.  Restart 0's value is
        # set below hbar^2/4 here, so the pick must rest on the certificate.
        g = Grid(64, 40.0)
        minimize = optimize._minimize

        def lowered(*args):
            first, *rest = minimize(*args)
            assert not first.certificate.is_minimal
            return [replace(first, value=0.2), *rest]

        monkeypatch.setattr(optimize, "_minimize", lowered)
        res = minimize_multistart(
            position_op(g), momentum_op(g), phi0=two_packet_start(g), restarts=2, seed=1
        )
        assert res.certificate.is_minimal
        assert res.converged
        assert res.value == pytest.approx(g.hbar**2 / 4, abs=1e-12)

    def test_gradient_stop_without_certificate_is_not_converged(self):
        # The grid gradient test is scaled by the largest entry of x (20 at
        # L = 40), so from this two-packet superposition the eigen-steps pass
        # it after 17 steps at hbar^2/4 + 3.6e-9, where Y = lambda X still
        # fails (residual 2.9e-4).  The state is built and normalised as a
        # problem file holds it.
        g = Grid(64, 40.0)
        start = gradient_stop_start(g)
        res = minimize_product(position_op(g), momentum_op(g), start)
        assert res.stop_reason == "gradient"
        assert not res.certificate.is_minimal
        assert not res.converged

    def test_canonical_equality_structure_at_converged_point(self):
        # at the canonical minimum the area carries hbar/2 and the metric
        # term vanishes
        g = Grid(256, 40.0)
        p = momentum_op(g)
        x = position_op(g)
        res = minimize_product(p, x, gaussian(g, 0.0, 0.0, 1.3), max_iter=2000, grad_tol=1e-6)
        rep = relations_report(p, x, res.state)
        assert rep.area == pytest.approx(g.hbar / 2, abs=1e-3)
        assert abs(rep.metric_term) <= 1e-3


def equivalence_cases():
    """(A, B, phi0): the n = 64 grid x,p starts written out above, random
    dense n = 32 pairs, and sx, sy from random starts only."""
    g = Grid(64, 40.0)
    x, p = position_op(g), momentum_op(g)
    yield pytest.param(x, p, two_packet_start(g), id="grid-two-packets")
    yield pytest.param(x, p, gradient_stop_start(g), id="grid-gradient-stop")
    for seed in range(3):
        rng = np.random.default_rng(seed)
        a, b = random_hermitian(rng, 32), random_hermitian(rng, 32)
        yield pytest.param(a, b, None, id=f"dense32-rng{seed}")
    yield pytest.param(Observable([[0, 1], [1, 0]]), Observable([[0, -1j], [1j, 0]]), None, id="sx-sy")


def assert_identical(res, ref):
    """The same result bit for bit: every field, the state and the printed floats."""
    assert replace(res, state=None) == replace(ref, state=None)
    assert np.array_equal(res.state.amplitudes, ref.state.amplitudes)
    assert json.dumps(res.to_dict()) == json.dumps(ref.to_dict())


@pytest.mark.parametrize("a, b, phi0", equivalence_cases())
def test_each_restart_equals_the_restart_run_alone(descents, a, b, phi0):
    # Each restart, run with the squares A^2 and B^2 shared by all of them,
    # equals minimize_product from its start.
    seed = 5
    best = minimize_multistart(a, b, phi0=phi0, restarts=8, seed=seed)
    runs = list(descents)
    assert len(runs) == 8
    assert phi0 is None or runs[0][0] is phi0
    for start, res in runs:
        assert_identical(res, minimize_product(a, b, start))
    ranked = min((res for _, res in runs), key=lambda res: (not res.certificate.is_minimal, res.value))
    assert_identical(best, replace(ranked, seed=seed))


@pytest.mark.parametrize("seed", range(3))
def test_dense_pairs_converge_at_defaults(seed):
    # Measured: each pair reaches an eigenstate (value at most 2.2e-16) in 8
    # to 10 steps.
    rng = np.random.default_rng(seed)
    a, b = random_hermitian(rng, 32), random_hermitian(rng, 32)
    res = minimize_product(a, b, random_state(rng, 32))
    assert res.converged and res.certificate.is_minimal
    assert res.value <= 1e-12


@pytest.mark.parametrize("k", range(3))
def test_grid256_random_starts_converge_at_defaults(k):
    # Measured: each start is certified after one step.
    g = Grid(256, 40.0)
    rng = np.random.default_rng(0)
    start = [random_state(rng, g.n) for _ in range(3)][k]
    res = minimize_product(position_op(g), momentum_op(g), start)
    assert res.converged and res.certificate.is_minimal
    assert res.value <= g.hbar**2 / 4 + 1e-12


def exact_product(a: Observable, b: Observable, v) -> float:
    """Var_A Var_B at the float state v, in 50-digit arithmetic."""
    exact = [[[mp.mpc(z.real, z.imag) for z in row] for row in op.matrix] for op in (a, b)]
    return minimize_fields(*exact, normalised([(z.real, z.imag) for z in v]), 0)["value"]


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(2, 16), log_size=st.floats(-3, 3))
def test_eigenstep_never_raises_the_product(data, n, log_size):
    # beta Var_A(psi) + alpha Var_B(psi) <= <psi|H|psi> <= <phi|H|phi> =
    # 2 alpha beta, so by AM-GM f(psi) <= f(phi).  f is taken exactly at the
    # two float states: the computed f near an eigenstate is rounding noise
    # of order eps |A|^2 |B|^2, which can exceed the allowance (8 units at
    # n = 16) without any step being taken.  At a common eigenstate both
    # variances vanish, H(phi) = 0 and every state is a ground state; the
    # search never steps there, since the gradient is then exactly 0.
    unit = st.floats(-1, 1, allow_subnormal=False)
    a, b = (hermitian(data.draw(arrays(float, (n, n, 2), elements=unit)), 10.0**log_size)
            for _ in range(2))
    v = data.draw(arrays(float, (n, 2), elements=unit)) @ [1, 1j]
    assume(np.linalg.norm(v) > 1e-3)
    v = normalize(v).amplitudes
    variances, _, means = optimize._variances(a.matrix, b.matrix, v)
    assume(max(variances) > 0.0)
    squares = (a.matrix @ a.matrix, b.matrix @ b.matrix)
    psi = optimize._eigenstep(a.matrix, b.matrix, squares, v, variances, means)
    rise = exact_product(a, b, psi) - exact_product(a, b, v)
    assert rise <= rounding_allowance(n, max(a.scale, b.scale))


def test_each_eigensolve_is_one_matrix(monkeypatch):
    # Each restart's step takes the eigenvalues of its own n x n H and makes
    # one solve with it, never on a stack of them, and no step calls eigh.
    g = Grid(64, 40.0)
    shapes = {"eigvalsh": [], "solve": [], "eigh": []}
    for name, calls in shapes.items():
        fn = getattr(np.linalg, name)

        def recorded(m, *args, fn=fn, calls=calls, **kwargs):
            calls.append(np.shape(m))
            return fn(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
    minimize_multistart(position_op(g), momentum_op(g), restarts=8, seed=0)
    for name in ("eigvalsh", "solve"):
        assert all(shape == (g.n, g.n) for shape in shapes[name])
        assert len(shapes[name]) >= 8
    assert shapes["eigh"] == []


def step_cases(n: int):
    """(A, B) pairs at dimension n: random dense pairs, and grid x,p for n >= 16."""
    rng = np.random.default_rng(n)
    pairs = [(random_hermitian(rng, n), random_hermitian(rng, n)) for _ in range(4)]
    if n >= 16:
        g = Grid(n, 40.0)
        pairs.append((position_op(g), momentum_op(g)))
    return rng, pairs


def step_at(a, b, v):
    """_eigenstep from v, with H(v) and its eigh built from the centred matrices."""
    matrices = optimize._dense(a, b)
    variances, _, means = optimize._variances(*matrices, v)
    squares = tuple(m @ m for m in matrices)
    psi = optimize._eigenstep(*matrices, squares, v, variances, means)
    centred = [op.matrix - mean * np.eye(v.size) for op, mean in zip((a, b), means)]
    H = variances[1] * (centred[0] @ centred[0]) + variances[0] * (centred[1] @ centred[1])
    return psi, np.linalg.eigh(H)


def assert_lowest_eigenvector(psi, v, eigh):
    """psi is eigh's lowest eigenvector u_0, phase-aligned to v, to one inverse-iteration step.

    With sigma = lambda_0 - 2 n eps lambda_max, one solve from v leaves the
    other eigenvectors a share of at most 2 n eps lambda_max / gap times
    tan theta, theta the angle from v to u_0; the rounding of both solvers
    adds about n eps lambda_max / gap.  Measured: at most 1.3 units of
    n eps lambda_max / gap (1 + tan theta).
    """
    values, vectors = eigh
    u0, n = vectors[:, 0], v.size
    top, gap = np.abs(values).max(), values[1] - values[0]
    tan = np.linalg.norm(v - u0 * np.vdot(u0, v)) / abs(np.vdot(u0, v))
    assert abs(np.linalg.norm(psi) - 1.0) <= n * EPS
    assert np.linalg.norm(psi - u0 * np.vdot(u0, psi)) <= 4 * n * EPS * top / gap * (1 + tan)
    overlap = np.vdot(psi, v)
    assert overlap.real > 0 and abs(overlap.imag) <= n * EPS


@pytest.mark.parametrize("n", [2, 3, 4, 16, 64, 256])
def test_eigenstep_is_the_lowest_eigenvector(n):
    rng, pairs = step_cases(n)
    for a, b in pairs:
        v = random_state(rng, n).amplitudes
        psi, eigh = step_at(a, b, v)
        assert_lowest_eigenvector(psi, v, eigh)


def test_eigenstep_returns_the_state_where_h_vanishes():
    # A = 0: Var_A = 0 and A - <A> = 0, so H = 0 and every state is a ground state
    rng = np.random.default_rng(14)
    zero, b = Observable(np.zeros((5, 5))), random_hermitian(rng, 5)
    v = random_state(rng, 5).amplitudes
    psi, _ = step_at(zero, b, v)
    assert np.array_equal(psi, v)


def test_eigenstep_where_h_minus_its_lowest_eigenvalue_is_singular(sx, sy):
    # At |0>, H = sx^2 + sy^2 = 2 I; at sy's eigenstate (1, i)/sqrt(2), H =
    # (sy - 1)^2, with lowest eigenvalue 0.  Both lowest eigenvalues are
    # exact, so H - lambda_0 I is exactly singular.
    for v in ([1, 0], [1, 1j]):
        v = normalize(v).amplitudes
        psi, _ = step_at(sx, sy, v)
        assert np.linalg.norm(psi - v) <= 4 * EPS


@pytest.mark.parametrize("sizes", [(1e-100, 1e30), (1e30, 1e-100), (1e30, 1e30), (1e-75, 1e-75)])
def test_eigenstep_is_scale_free(sizes):
    # Scaling A by s and B by t scales H by s^2 t^2 and keeps its eigenvectors.
    # At 1e-75 the solve without H / lambda_max would overflow.
    rng, pairs = step_cases(8)
    for a, b in pairs:
        v = random_state(rng, 8).amplitudes
        scaled = (Observable(a.matrix * sizes[0]), Observable(b.matrix * sizes[1]))
        assert_lowest_eigenvector(step_at(*scaled, v)[0], v, step_at(a, b, v)[1])


def test_eigenstep_where_h_underflows_to_zero():
    # At entries of 1e-100 on both sides H's entries are of order 1e-400,
    # which rounds to 0: the step returns the state, as for H = 0.
    rng, pairs = step_cases(8)
    a, b = (Observable(op.matrix * 1e-100) for op in pairs[0])
    v = random_state(rng, 8).amplitudes
    assert np.array_equal(step_at(a, b, v)[0], v)


def test_certified_grid_minimizer_is_a_fixed_point():
    # At a minimum H(phi) phi = 2 f phi: the horizontal part of H(phi) phi
    # is half the Riemannian gradient, and its phi part is <phi|H|phi> =
    # 2 f.  H is built here from the centred matrices A - <A> I, not as the
    # program forms it, and the centred operators' actions must agree.
    g = Grid(64, 40.0)
    x, p = position_op(g), momentum_op(g)
    res = minimize_multistart(x, p, restarts=2, seed=1)
    assert res.converged
    phi = res.state
    v = phi.amplitudes
    allowance = rounding_allowance(g.n, max(x.scale, p.scale))
    xc, pc = (op.matrix - expectation(op, phi) * np.eye(g.n) for op in (x, p))
    weights = std_dev(p, phi) ** 2, std_dev(x, phi) ** 2
    H = weights[0] * (xc @ xc) + weights[1] * (pc @ pc)
    residual = np.linalg.norm(H @ v - 2 * res.value * v)
    assert residual <= allowance
    x_act, p_act = centered(x, phi), centered(p, phi)
    h_v = weights[0] * x_act(x_act(v)) + weights[1] * p_act(p_act(v))
    assert np.linalg.norm(h_v - H @ v) <= allowance
