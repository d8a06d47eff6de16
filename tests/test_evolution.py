import io
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from statesphere import (
    Grid,
    InvalidParameter,
    Observable,
    State,
    centered_field,
    default_dt,
    expectation,
    flow,
    fs_distance,
    gaussian,
    momentum_op,
    normalize,
    position_op,
    projected_speed,
    relations_report,
    std_dev,
    symplectic,
    trace_flow,
    validate_state,
)
from statesphere.serialize import FLOAT_FORMAT

from conftest import hermitian, random_hermitian, random_state

EPS = np.finfo(float).eps


def reference_csv(trace) -> str:
    """write_csv's text with every row formatted value by value by FLOAT_FORMAT."""
    n = trace.amplitudes.shape[1]
    header = ",".join(["t", *(f"{part}_{k}" for k in range(n) for part in ("re", "im")),
                       "fs_speed", "std_dev"])
    table = np.column_stack([
        trace.times,
        trace.amplitudes.view(float),
        trace.fs_speeds,
        trace.std_devs,
    ])
    row_format = ",".join([FLOAT_FORMAT] * table.shape[1]) + "\r\n"
    return header + "\r\n" + "".join(row_format.format(*row) for row in table.tolist())


class TestFlow:
    def test_diagonal_exponentiation(self, sz):
        out = flow(sz, normalize([1, 1]), np.pi / 2)
        expected = np.array([-1j, 1j]) / np.sqrt(2)
        assert np.allclose(out.amplitudes, expected, atol=1e-12)

    def test_identity_at_t0(self):
        rng = np.random.default_rng(0)
        a = random_hermitian(rng, 4)
        phi = random_state(rng, 4)
        assert np.allclose(flow(a, phi, 0.0).amplitudes, phi.amplitudes)

    def test_identity_generator_global_phase(self):
        rng = np.random.default_rng(1)
        phi = random_state(rng, 3)
        out = flow(Observable(np.eye(3)), phi, 0.8)
        assert np.allclose(out.amplitudes, np.exp(-0.8j) * phi.amplitudes, atol=1e-12)
        assert fs_distance(out, phi) <= 1e-7

    def test_group_law(self):
        rng = np.random.default_rng(2)
        a = random_hermitian(rng, 5)
        phi = random_state(rng, 5)
        one = flow(a, flow(a, phi, 0.3), 0.5)
        two = flow(a, phi, 0.8)
        assert np.allclose(one.amplitudes, two.amplitudes, atol=1e-10)

    def test_unitarity(self):
        rng = np.random.default_rng(3)
        a = random_hermitian(rng, 6)
        phi = random_state(rng, 6)
        out = flow(a, phi, 17.3)
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) <= 1e-12

    def test_ray_periodicity_integer_spectrum(self):
        a = Observable(np.diag([0.0, 1.0, 2.0, 3.0]))
        rng = np.random.default_rng(4)
        phi = random_state(rng, 4)
        assert fs_distance(flow(a, phi, 2 * np.pi), phi) <= 1e-9


class TestProjectedSpeed:
    def test_unit_speed_great_circle(self, sz):
        assert projected_speed(sz, normalize([1, 1]), 1e-4) == pytest.approx(1.0, abs=1e-7)

    def test_eigenstate_fixed_ray(self, sz):
        assert projected_speed(sz, validate_state([1, 0]), 1e-4) == pytest.approx(0.0, abs=1e-9)

    def test_matches_std_dev(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            a = random_hermitian(rng, 8)
            phi = random_state(rng, 8)
            assert projected_speed(a, phi, 1e-4) == pytest.approx(
                std_dev(a, phi), abs=1e-6
            )

    def test_quadratic_convergence(self):
        rng = np.random.default_rng(6)
        a = random_hermitian(rng, 8)
        phi = random_state(rng, 8)
        sd = std_dev(a, phi)
        e1 = abs(projected_speed(a, phi, 1e-3) - sd)
        e2 = abs(projected_speed(a, phi, 5e-4) - sd)
        e3 = abs(projected_speed(a, phi, 2.5e-4) - sd)
        assert e1 / e2 == pytest.approx(4.0, abs=0.5)
        assert e2 / e3 == pytest.approx(4.0, abs=0.5)

    @pytest.mark.parametrize("dt", [0.0, -1e-4, np.nan, np.inf, -np.inf])
    def test_invalid_dt(self, sz, dt):
        # dt outside (0, inf), on a dense observable and on grid p; a NaN or
        # infinite dt would otherwise give a NaN speed
        g = Grid(16, 40.0)
        for a, phi in ((sz, validate_state([1, 0])), (momentum_op(g), gaussian(g, 0.0, 0.0, 1.5))):
            with pytest.raises(InvalidParameter):
                projected_speed(a, phi, dt)

    def test_default_dt_scale_aware(self, sz):
        assert default_dt(sz) == pytest.approx(5e-5)
        assert default_dt(Observable(10 * sz.matrix)) == pytest.approx(5e-6)

    def test_default_dt_without_a_floor(self):
        # a tiny range gets its own 1e-4 / range; a multiple of I (range 0)
        # flows by a phase and keeps 1e-4; a subnormal range has no finite step
        assert default_dt(Observable(np.diag([0.0, 2.0**-100]))) == 1e-4 * 2.0**100
        assert default_dt(Observable(2.5 * np.eye(3))) == 1e-4
        with pytest.raises(InvalidParameter):
            default_dt(Observable(np.diag([0.0, 5e-324])))


class TestTraceFlow:
    def test_constant_speed_great_circle(self, sz):
        trace = trace_flow(sz, normalize([1, 1]), np.pi, 64)
        assert np.allclose(trace.fs_speeds, 1.0, atol=1e-6)
        assert np.allclose(trace.std_devs, 1.0, atol=1e-10)

    def test_stationary_ray(self, sz):
        trace = trace_flow(sz, validate_state([1, 0]), 1.0, 8)
        assert np.allclose(trace.fs_speeds, 0.0, atol=1e-9)

    def test_lengths(self):
        rng = np.random.default_rng(7)
        a = random_hermitian(rng, 3)
        phi = random_state(rng, 3)
        trace = trace_flow(a, phi, 2.0, 11)
        assert trace.amplitudes.shape == (11, 3)
        assert trace.times.size == 11
        assert trace.fs_speeds.size == 11
        assert trace.std_devs.size == 11

    def test_conservation_along_flow(self):
        rng = np.random.default_rng(8)
        a = random_hermitian(rng, 5)
        phi = random_state(rng, 5)
        trace = trace_flow(a, phi, 3.0, 16)
        # the column is std_dev at phi; conservation is checked at each sample
        along = np.array([std_dev(a, State(u)) for u in trace.amplitudes])
        assert np.max(np.abs(along - trace.std_devs[0])) <= 1e-10
        assert np.abs(np.linalg.norm(trace.amplitudes, axis=1) - 1.0).max() <= 1e-10

    def test_steps_validation(self, sz):
        with pytest.raises(InvalidParameter):
            trace_flow(sz, validate_state([1, 0]), 1.0, 1)

    @pytest.mark.parametrize("kind", ["dense", "x", "p"])
    def test_batch_matches_each_point(self, kind):
        # every sample of the batched trace against flow, projected_speed and
        # std_dev called at that one point, within their rounding bounds
        g = Grid(64, 40.0)
        if kind == "dense":
            rng = np.random.default_rng(9)
            a = Observable(3.0 * random_hermitian(rng, 24).matrix)
            phi = random_state(rng, 24)
        else:
            a = position_op(g) if kind == "x" else momentum_op(g)
            phi = gaussian(g, -2.0, 0.7, 1.5)
        trace = trace_flow(a, phi, 2.5, 7)
        n, dt = a.dim, default_dt(a)
        for t, u, speed, dev in zip(trace.times, trace.amplitudes, trace.fs_speeds, trace.std_devs):
            state = State(u)
            alone = flow(a, phi, t).amplitudes
            assert np.abs(u - alone).max() <= n * EPS * (1 + a.scale * abs(t))
            assert abs(speed - projected_speed(a, state, dt)) <= n * EPS / dt
            assert abs(dev - std_dev(a, state)) <= n * EPS * a.scale

    def test_grid_trace_allocates_no_matrix(self):
        # the batch holds a few vectors per sample: no n x n array, and no
        # eigenvector matrix on the first call either
        g = Grid(1024, 40.0)
        p = momentum_op(g)
        phi = gaussian(g, 1.0, -0.5, 1.0)
        tracemalloc.start()
        try:
            trace_flow(p, phi, 1.0, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < g.n * g.n * 16 / 16

    def test_csv_roundtrip(self, sz):
        trace = trace_flow(sz, normalize([1, 1]), 1.0, 4)
        buf = io.StringIO()
        trace.write_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "t,re_0,im_0,re_1,im_1,fs_speed,std_dev"
        assert len(lines) == 5
        row = lines[1].split(",")
        assert float(row[0]) == 0.0
        assert float(row[-1]) == pytest.approx(1.0)

    @pytest.mark.parametrize("n", [2, 3, 7, 16, 33, 64])
    def test_csv_matches_value_by_value_format(self, n):
        rng = np.random.default_rng(n)
        a = random_hermitian(rng, n, unit_entries=False)
        trace = trace_flow(a, random_state(rng, n), rng.uniform(0.1, 10.0), int(rng.integers(2, 40)))
        buf = io.StringIO()
        trace.write_csv(buf)
        assert buf.getvalue() == reference_csv(trace)

    @pytest.mark.parametrize("n", [128, 1024])
    def test_csv_memory_stays_bounded(self, n):
        # the rows are rendered a block at a time: no table of the trace or
        # of its text is held
        g = Grid(n, 40.0)
        trace = trace_flow(momentum_op(g), gaussian(g, 1.0, -0.5, 1.0), 2.0, 64)
        with open(os.devnull, "w", newline="") as sink:
            tracemalloc.start()
            try:
                trace.write_csv(sink)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 2e6


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(2, 16), log_size=st.floats(-3, 3), t_scaled=st.floats(-4, 4))
def test_geometric_speed_limit(data, n, log_size, t_scaled):
    # The ray moves at FS speed dA, conserved along the flow, so the geodesic
    # distance it covers in time t is at most dA |t| (Anandan & Aharonov,
    # Phys. Rev. Lett. 65, 1697, 1990).  The allowance is the rounding of the
    # flowed state, n eps (1 + scale |t|) as for evolve's amplitudes, four
    # times over; measured over 8000 random cases, the largest excess was 1.1
    # of it.  The distance is accurate near 0, so no sqrt(eps) term enters.
    unit = st.floats(-1, 1, allow_subnormal=False)
    a = hermitian(data.draw(arrays(float, (n, n, 2), elements=unit)), 10.0**log_size)
    v = data.draw(arrays(float, (n, 2), elements=unit)) @ [1, 1j]
    assume(np.linalg.norm(v) > 1e-3)
    trace = trace_flow(a, normalize(v), t_scaled / a.scale, 16)
    start = State(trace.amplitudes[0])
    for t, u in zip(trace.times, trace.amplitudes):
        allowance = 4 * n * EPS * (1 + a.scale * abs(t))
        assert fs_distance(start, State(u)) <= trace.std_devs[0] * abs(t) + allowance


def test_flow_moves_means_at_the_poisson_bracket():
    # Along A's flow, d<B>/dt = 2 omega(X_A, X_B) with X the centred fields:
    # the symplectic form is the Poisson bracket of the expectation
    # functions (Kibble, Commun. Math. Phys. 65, 189, 1979), and its modulus
    # is |<[A, B]>|, twice the report's commutator term.  The central
    # difference is taken through evolution.flow, a route the report does
    # not take.  Over these 300 pairs the largest error was 6.1e-9 of the
    # bound's scale_A * scale_B.
    rng = np.random.default_rng(10)
    dt = 1e-5
    for _ in range(300):
        n = int(rng.integers(2, 17))
        a, b = random_hermitian(rng, n, unit_entries=False), random_hermitian(rng, n, unit_entries=False)
        phi = random_state(rng, n)
        rate = (expectation(b, flow(a, phi, dt)) - expectation(b, flow(a, phi, -dt))) / (2 * dt)
        bracket = 2 * symplectic(centered_field(a, phi), centered_field(b, phi))
        bound = 1e-7 * a.scale * b.scale
        assert abs(rate - bracket) <= bound
        assert abs(abs(rate) / 2 - relations_report(a, b, phi).commutator_half) <= bound
