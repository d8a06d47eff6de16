"""Reference computations for the tests: dense brackets and 50-digit printed fields.

`brackets` forms the commutator and anticommutator as n x n matrices, the
O(n^3) route that `relations_report` replaces with matrix-vector products.

`report_fields` computes every field that `statesphere report` prints in
mpmath at DIGITS significant digits.  It starts from the exact operators of
a problem file: a dense observable from its entries (each one a double, so
exact), and a grid's x from its points and its p from the DFT definition
evaluated in mpmath, not from the float64 matrices the program builds.  The
file's state is normalised in mpmath.

`std_dev` and `minimize_fields` do the same for evolve's std_dev column and
for the value and certificate that `statesphere minimize` prints, at a state
read back from the printed output and normalised with `normalised`.
"""

from __future__ import annotations

from mpmath import mp

from statesphere import DimensionMismatch, Observable

DIGITS = 50


def brackets(A: Observable, B: Observable):
    """Commutator and anticommutator (AB - BA, AB + BA) as raw matrices.

    The commutator is anti-Hermitian, the anticommutator Hermitian.  The
    commutator is unchanged by centering either operator.
    """
    if A.dim != B.dim:
        raise DimensionMismatch(f"operator dims {A.dim} != {B.dim}")
    ab = A.matrix @ B.matrix
    ba = B.matrix @ A.matrix
    return ab - ba, ab + ba


def _complex(pair):
    return mp.mpc(pair[0], pair[1])


def _grid_operators(spec: dict):
    """x and p of a grid file, exact to DIGITS: x_j = -L/2 + jL/n, p = F^dagger diag(hbar k) F.

    F_mj = exp(-2 pi i m j / n) / sqrt(n) and k_m = 2 pi m / L with the signed
    frequency m in {0, ..., n/2 - 1, -n/2, ..., -1}, so p is the circulant
    p_jl = (hbar / n) sum_m k_m exp(2 pi i m (j - l) / n).
    """
    n, length = spec["n"], mp.mpf(spec["length"])
    hbar = mp.mpf(spec.get("hbar", 1.0))
    x = [[mp.mpc(0)] * n for _ in range(n)]
    for j in range(n):
        x[j][j] = mp.mpc(-length / 2 + j * length / n)
    k = [2 * mp.pi * (m if m < n // 2 else m - n) / length for m in range(n)]
    column = [
        hbar / n * mp.fsum(k[m] * mp.expjpi(mp.mpf(2 * m * d) / n) for m in range(n))
        for d in range(n)
    ]
    p = [[column[(j - l) % n] for l in range(n)] for j in range(n)]
    return {"x": x, "p": p}


def normalised(pairs) -> list:
    """The state of [re, im] pairs divided by its norm, to DIGITS."""
    with mp.workdps(DIGITS):
        state = [_complex(pair) for pair in pairs]
        norm = mp.sqrt(mp.fsum(abs(z) ** 2 for z in state))
        return [z / norm for z in state]


def problem_operators(doc: dict):
    """The exact state (normalised) and named observables of a problem file."""
    state = normalised(doc["state"])
    with mp.workdps(DIGITS):
        grid = _grid_operators(doc["grid"]) if doc.get("grid") is not None else {}
    observables = {
        name: [[_complex(pair) for pair in row] for row in rows]
        for name, rows in doc.get("observables", {}).items()
    }
    for name, op in grid.items():
        observables.setdefault(name, op)
    return state, observables


def _apply(m, v):
    return [mp.fsum(a * b for a, b in zip(row, v)) for row in m]


def _inner(xi, eta):
    """Conjugate-linear in the second argument, as statesphere.inner."""
    return mp.fsum(a * mp.conj(b) for a, b in zip(xi, eta))


def _centered(a, phi):
    """A phi, <A> and (A - <A>) phi."""
    a_phi = _apply(a, phi)
    mean = _inner(a_phi, phi).real
    return a_phi, mean, [z - mean * f for z, f in zip(a_phi, phi)]


def _norm(v):
    return mp.sqrt(_inner(v, v).real)


def std_dev(a, phi):
    """|(A - <A>) phi|, the deviation that evolve prints for each row."""
    with mp.workdps(DIGITS):
        return _norm(_centered(a, phi)[2])


def minimize_fields(a, b, phi, eigenstate_below) -> dict:
    """The value and certificate that `statesphere minimize` prints at phi.

    value is dA^2 dB^2.  The certificate fits Y = lambda X for the centered
    fields X = -i(A - <A>)phi and Y = -i(B - <B>)phi, with the residual
    |Y - lambda X| / |Y|; when dA or dB is at most eigenstate_below, phi is
    an eigenstate and lambda and the residual are 0.
    """
    with mp.workdps(DIGITS):
        X = [-1j * z for z in _centered(a, phi)[2]]
        Y = [-1j * z for z in _centered(b, phi)[2]]
        da, db = _norm(X), _norm(Y)
        if min(da, db) <= eigenstate_below:
            lam, residual = mp.mpc(0), mp.mpf(0)
        else:
            lam = _inner(Y, X) / da**2
            residual = _norm([y - lam * x for x, y in zip(X, Y)]) / db
        return {
            "value": da**2 * db**2,
            "lambda_re": lam.real,
            "lambda_im": lam.imag,
            "residual": residual,
        }


def report_fields(a, b, phi) -> dict:
    """The printed fields of `statesphere report` for exact a, b, phi, by definition.

    The brackets are <[A,B]> and <{A - <A>, B - <B>}> from the products
    A(B phi) and B(A phi); identity_residual is zero in exact arithmetic.
    Arithmetic on the returned values keeps DIGITS only inside
    mp.workdps(DIGITS).
    """
    with mp.workdps(DIGITS):
        return _report_fields(a, b, phi)


def _report_fields(a, b, phi) -> dict:
    a_phi, mean_a, v = _centered(a, phi)
    b_phi, mean_b, w = _centered(b, phi)
    X, Y = [-1j * z for z in v], [-1j * z for z in w]
    da, db = _norm(X), _norm(Y)
    g = _inner(X, Y).real
    area = mp.sqrt(da**2 * db**2 - g**2)
    ab, ba = _apply(a, b_phi), _apply(b, a_phi)
    comm_half = abs(_inner([s - t for s, t in zip(ab, ba)], phi)) / 2
    ab_c = [s - mean_a * t for s, t in zip(_apply(a, w), w)]
    ba_c = [s - mean_b * t for s, t in zip(_apply(b, v), v)]
    anti_half = abs(_inner([s + t for s, t in zip(ab_c, ba_c)], phi)) / 2
    return {
        "delta_a": da,
        "delta_b": db,
        "area": area,
        "metric_term": g,
        "commutator_half": comm_half,
        "anticommutator_half": anti_half,
        "identity_residual": da**2 * db**2 - area**2 - g**2,
        "theta": mp.atan2(area, g),
        "robertson_slack": da * db - comm_half,
        "schrodinger_slack": da**2 * db**2 - comm_half**2 - anti_half**2,
        "area_bound_slack": area - comm_half,
    }
