"""Acceptance suite: one test per criterion, one printed pass line each."""

import time

import numpy as np
import pytest

from statesphere import (
    Grid,
    Observable,
    centered_field,
    fs_distance,
    gaussian,
    inner,
    minimal_condition,
    minimize_multistart,
    minimize_product,
    momentum_op,
    normalize,
    objective,
    position_op,
    projected_speed,
    relations_report,
    riemannian_grad,
    spectral,
    std_dev,
    triangle_report,
    validate_state,
)
from statesphere.realify import parallelogram_area

from conftest import random_hermitian, random_state
from coordinates import adapted_basis, realize

SX = Observable([[0, 1], [1, 0]])
SY = Observable([[0, -1j], [1j, 0]])

CORPUS_DIMS = (2, 3, 4, 8, 16)


def corpus(seed=20240824, count=1000):
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = CORPUS_DIMS[i % len(CORPUS_DIMS)]
        yield random_hermitian(rng, n), random_hermitian(rng, n), random_state(rng, n)


def _report(line):
    print(line)


def test_criterion_1_uncertainty_identity():
    start = time.monotonic()
    worst = 0.0
    for a, b, phi in corpus():
        rep = relations_report(a, b, phi)
        worst = max(worst, abs(rep.identity_residual))
        assert abs(rep.identity_residual) <= 1e-10
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report(
        f"PASS criterion 1: uncertainty identity, worst residual "
        f"{worst:.2e} <= 1e-10 over 1000 instances in {elapsed:.1f}s"
    )


def test_criterion_2_inequality_chain():
    worst_r = worst_a = np.inf
    for a, b, phi in corpus():
        rep = relations_report(a, b, phi)
        worst_r = min(worst_r, rep.robertson_slack)
        worst_a = min(worst_a, rep.area_bound_slack)
        assert rep.robertson_slack >= -1e-10
        assert rep.area_bound_slack >= -1e-10
    _report(
        f"PASS criterion 2: inequality chain, minimum slacks "
        f"robertson {worst_r:.2e}, area-bound {worst_a:.2e} >= -1e-10"
    )


def test_criterion_3_schrodinger_is_cauchy_schwarz():
    worst = 0.0
    for a, b, phi in corpus():
        rep = relations_report(a, b, phi)
        x = centered_field(a, phi)
        y = centered_field(b, phi)
        cs_gap = (
            np.linalg.norm(x) ** 2 * np.linalg.norm(y) ** 2 - abs(inner(x, y)) ** 2
        )
        diff = abs(rep.schrodinger_slack - cs_gap)
        worst = max(worst, diff)
        assert diff <= 1e-10
    _report(
        f"PASS criterion 3: strengthened relation equals Cauchy-Schwarz gap, "
        f"worst deviation {worst:.2e} <= 1e-10"
    )


def test_criterion_4_pauli_equality_case():
    up = validate_state([1, 0])
    rep = relations_report(SX, SY, up)
    product = rep.delta_a * rep.delta_b
    assert abs(product - 1.0) <= 1e-12
    assert abs(product - rep.commutator_half) <= 1e-12
    eigenstates = [
        validate_state(col) for obs in (SX, SY) for col in spectral(obs).eigenvectors.T
    ]
    for e in eigenstates:
        r = relations_report(SX, SY, e)
        assert r.delta_a * r.delta_b == pytest.approx(0.0, abs=1e-14)
    # and away from eigenstates the product is strictly positive
    rng = np.random.default_rng(1)
    for _ in range(50):
        phi = random_state(rng, 2)
        r = relations_report(SX, SY, phi)
        near = min(fs_distance(phi, e) for e in eigenstates)
        if near > 1e-3:
            assert r.delta_a * r.delta_b > 0
    _report(
        "PASS criterion 4: Pauli equality case, product = commutator bound = 1 "
        "on the up state; product vanishes exactly on eigenstates"
    )


def test_criterion_5_speed_law():
    rng = np.random.default_rng(2)
    worst_err = 0.0
    ratios = []
    for _ in range(100):
        a = random_hermitian(rng, 8)
        phi = random_state(rng, 8)
        sd = std_dev(a, phi)
        err = abs(projected_speed(a, phi, 1e-4) - sd)
        worst_err = max(worst_err, err)
        assert err <= 1e-6
        # quadratic order, checked at steps where the error is far above
        # the floating-point floor
        e1 = abs(projected_speed(a, phi, 1e-3) - sd)
        e2 = abs(projected_speed(a, phi, 5e-4) - sd)
        ratio = e1 / e2
        ratios.append(ratio)
        assert ratio == pytest.approx(4.0, abs=0.5)
    _report(
        f"PASS criterion 5: speed law, worst |speed - dA| {worst_err:.2e} <= 1e-6; "
        f"halving-dt error ratios in [{min(ratios):.2f}, {max(ratios):.2f}] (target 4 +- 0.5)"
    )


def test_criterion_6_canonical_minimum():
    start = time.monotonic()
    g = Grid(512, 40.0, hbar=1.0)
    p = momentum_op(g)
    x = position_op(g)
    st = gaussian(g, 0.0, 0.0, 1 / np.sqrt(2))
    product = std_dev(x, st) * std_dev(p, st)
    # lower edge carries the same 1e-10 floating-point slack as the
    # inequality criteria; the discrete product rounds to 0.5 - 1e-15
    assert 0.5 - 1e-10 <= product <= 0.5 + 1e-5
    res = minimal_condition(p, x, st)
    assert res.residual <= 1e-5
    assert abs(res.re_lambda) <= 1e-6
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _report(
        f"PASS criterion 6: canonical minimum, dx dp = {product:.10f} in "
        f"[0.5, 0.5+1e-5], residual {res.residual:.2e}, |Re lambda| "
        f"{abs(res.re_lambda):.2e}, in {elapsed:.1f}s"
    )


def test_criterion_7_optimizer():
    res = minimize_multistart(SX, SY, restarts=8, seed=0)
    assert res.value <= 1e-8
    eigenstates = [
        validate_state(col) for obs in (SX, SY) for col in spectral(obs).eigenvectors.T
    ]
    nearest = min(fs_distance(res.state, e) for e in eigenstates)
    assert nearest <= 1e-4

    g = Grid(256, 40.0)
    p = momentum_op(g)
    x = position_op(g)
    grid_res = minimize_product(
        p, x, gaussian(g, 0.0, 0.0, 1.3), max_iter=2000, grad_tol=1e-6
    )
    assert grid_res.value <= (g.hbar / 2) ** 2 + 1e-3
    assert grid_res.certificate.is_minimal
    _report(
        f"PASS criterion 7: optimizer, Pauli value {res.value:.2e} <= 1e-8 at "
        f"fs-distance {nearest:.2e} from an eigenstate; grid value "
        f"{grid_res.value:.6f} <= 0.25+1e-3 with minimal certificate"
    )


def test_criterion_8_triangle_relation():
    rng = np.random.default_rng(3)
    worst_slack = np.inf
    worst_sum = np.inf
    for _ in range(1000):
        phi = random_state(rng, 2)
        rep1 = triangle_report(SX, SY, phi, scale=1.0)
        assert rep1.slack >= -1e-10
        worst_slack = min(worst_slack, rep1.slack)
        rep2 = triangle_report(SX, SY, phi, scale=2.0)
        total = rep2.d_phi_a + rep2.d_phi_b
        worst_sum = min(worst_sum, total)
        assert total >= np.pi / 2 - 1e-9
        assert rep1.d_phi_a + rep1.d_phi_b >= np.pi / 4 - 1e-9
    _report(
        f"PASS criterion 8: triangle relation, min slack {worst_slack:.2e} >= -1e-10; "
        f"min scale-2 distance sum {worst_sum:.6f} >= pi/2"
    )


def test_criterion_9_coordinate_oracles():
    rng = np.random.default_rng(4)
    worst_area = worst_prod = 0.0
    for _ in range(1000):
        X = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        Y = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        x = realize(X)
        y = realize(Y)
        six_term = sum(
            (x[i] * y[j] - x[j] * y[i]) ** 2
            for i in range(4)
            for j in range(i + 1, 4)
        )
        scale = max(1.0, np.linalg.norm(X) ** 2 * np.linalg.norm(Y) ** 2)
        d_area = abs(parallelogram_area(X, Y) ** 2 - six_term)
        worst_area = max(worst_area, d_area / scale)
        assert d_area <= 1e-10 * scale
        ab = adapted_basis(X, Y)
        d_prod = abs(
            ab.x[0] ** 2 * np.sum(ab.y**2)
            - np.linalg.norm(X) ** 2 * np.linalg.norm(Y) ** 2
        )
        worst_prod = max(worst_prod, d_prod / scale)
        assert d_prod <= 1e-10 * scale
    _report(
        f"PASS criterion 9: coordinate oracles, worst relative deviations "
        f"area {worst_area:.2e}, product {worst_prod:.2e} <= 1e-10"
    )


def test_criterion_10_gradient_check():
    rng = np.random.default_rng(5)
    worst = 0.0
    count = 0
    step = 1e-5
    while count < 100:
        n = (2, 4, 8)[count % 3]
        a = random_hermitian(rng, n)
        b = random_hermitian(rng, n)
        phi = random_state(rng, n)
        g = riemannian_grad(a, b, phi)
        fd = np.zeros(n, dtype=complex)
        v = phi.amplitudes
        for k in range(n):
            for direction in (1.0, 1j):
                e = np.zeros(n, dtype=complex)
                e[k] = direction * step
                diff = (objective(a, b, v + e) - objective(a, b, v - e)) / (2 * step)
                fd[k] += direction * diff
        rel = np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-8)
        worst = max(worst, rel)
        assert rel <= 1e-5
        count += 1
    _report(
        f"PASS criterion 10: gradient check, worst relative finite-difference "
        f"error {worst:.2e} <= 1e-5 over 100 instances"
    )
