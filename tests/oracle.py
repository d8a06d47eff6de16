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

`entry_error` is the largest entry error of a float64 matrix against an
exact one, such as a grid's p against its 50-digit circulant.

`problem_eigensystems` gives each observable's exact eigenvalues and
eigenvectors: a dense observable's from mpmath's `eighe`, a grid's x and p
in closed form (unit vectors and plane waves).  From them `distances_fields`
computes what `statesphere distances` prints, and `flowed` and `fs_speed`
evolve's amplitudes and fs_speed column, all at DIGITS.
"""

from __future__ import annotations

from mpmath import mp

from statesphere import DimensionMismatch, Observable
from statesphere.hilbert import DEGENERACY_GAP

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


def entry_error(exact, matrix) -> float:
    """Largest |matrix_ab - exact_ab| over the entries of a float64 matrix, to DIGITS."""
    with mp.workdps(DIGITS):
        return float(max(
            abs(mp.mpc(complex(z)) - e)
            for row, exact_row in zip(matrix, exact)
            for z, e in zip(row, exact_row)
        ))


def _grid_eigensystems(spec: dict):
    """Ascending eigenvalues and eigenvector columns of a grid's x and p, to DIGITS.

    x has the grid points with the unit vectors; p has hbar k_m with the
    plane waves exp(2 pi i m j / n) / sqrt(n), the columns of F^dagger.
    """
    n, length = spec["n"], mp.mpf(spec["length"])
    hbar = mp.mpf(spec.get("hbar", 1.0))
    units = [[mp.mpc(int(j == l)) for j in range(n)] for l in range(n)]
    points = [-length / 2 + j * length / n for j in range(n)]
    ms = range(-n // 2, n // 2)
    waves = [[mp.expjpi(mp.mpf(2 * m * j) / n) / mp.sqrt(n) for j in range(n)] for m in ms]
    return {"x": (points, units), "p": ([hbar * 2 * mp.pi * m / length for m in ms], waves)}


def _hermitian_eigensystem(m):
    """Ascending eigenvalues and eigenvector columns of a Hermitian matrix by mpmath's eighe."""
    values, vectors = mp.eighe(mp.matrix(m))
    n = len(m)
    return [values[k] for k in range(n)], [[vectors[j, k] for j in range(n)] for k in range(n)]


def problem_eigensystems(doc: dict) -> dict:
    """name -> (eigenvalues, eigenvectors) of each named observable of a problem file."""
    with mp.workdps(DIGITS):
        out = {
            name: _hermitian_eigensystem([[_complex(pair) for pair in row] for row in rows])
            for name, rows in doc.get("observables", {}).items()
        }
        grid = _grid_eigensystems(doc["grid"]) if doc.get("grid") is not None else {}
    for name, eig in grid.items():
        out.setdefault(name, eig)
    return out


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


def _non_degenerate(values) -> None:
    """Reject a spectrum the program would cluster: the distances below take one ray per eigenvalue."""
    gap = min(b - a for a, b in zip(values, values[1:]))
    if gap <= DEGENERACY_GAP * max(abs(v) for v in values):
        raise ValueError("the oracle's distances handle non-degenerate spectra only")


def distances_fields(eig_a, eig_b, phi, scale) -> dict:
    """The fields of `statesphere distances` for exact eigensystems and state.

    With one eigenvector per eigenvalue, the distance from phi to S_A is
    scale * arccos of the largest |<phi, u>| over A's eigenvectors u, and
    the distance between S_A and S_B that of the largest |<u, v>|.
    """
    with mp.workdps(DIGITS):
        (values_a, us), (values_b, vs) = eig_a, eig_b
        _non_degenerate(values_a)
        _non_degenerate(values_b)
        scale = mp.mpf(scale)
        d_phi_a = scale * mp.acos(max(abs(_inner(phi, u)) for u in us))
        d_phi_b = scale * mp.acos(max(abs(_inner(phi, v)) for v in vs))
        d_a_b = scale * mp.acos(max(abs(_inner(u, v)) for u in us for v in vs))
        return {"d_phi_a": d_phi_a, "d_phi_b": d_phi_b, "d_a_b": d_a_b,
                "slack": d_phi_a + d_phi_b - d_a_b}


def flowed(eig, phi, t) -> list:
    """e^{-iAt} phi = sum_k e^{-i lambda_k t} <phi, v_k> v_k, to DIGITS."""
    with mp.workdps(DIGITS):
        values, vectors = eig
        coeffs = [mp.expj(-lam * t) * _inner(phi, v) for lam, v in zip(values, vectors)]
        return [mp.fsum(c * v[j] for c, v in zip(coeffs, vectors)) for j in range(len(phi))]


def default_dt(eig):
    """evolve's central-difference step 1e-4 / (largest - smallest eigenvalue)."""
    values = eig[0]
    with mp.workdps(DIGITS):
        return mp.mpf("1e-4") / (values[-1] - values[0])


def fs_speed(eig, phi, dt):
    """evolve's fs_speed at phi: arcsin |fwd - <fwd, back> back| / (2 dt), fwd and back phi flowed by +-dt."""
    with mp.workdps(DIGITS):
        fwd, back = flowed(eig, phi, dt), flowed(eig, phi, -dt)
        overlap = _inner(fwd, back)
        perp = [f - overlap * b for f, b in zip(fwd, back)]
        return mp.asin(min(_norm(perp), 1)) / (2 * dt)
