"""Batch front end.

Reads a problem file (JSON; complex numbers as [re, im] pairs), runs the
requested analysis and emits deterministic JSON or CSV.  Exit codes:
0 success, 1 I/O or parse failure, 2 validation failure, 3 dimension
mismatch.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Mapping

import numpy as np

from . import serialize
from .canonical import Grid, momentum_op, position_op
from .errors import DimensionMismatch, GeometryError, InvalidParameter, MalformedInput
from .evolution import trace_flow
from .hilbert import Observable, State, validate_state
from .optimize import minimize_multistart
from .projective import triangle_report
from .realify import metric_g, parallelogram_area, symplectic
from .uncertainty import centered_field, relations_report


def _complex_array(value, depth: int, what: str) -> np.ndarray:
    """[re, im] number pairs nested `depth` lists deep, as a complex array."""
    expected = f"{what}: expected {'rows of ' * (depth - 1)}[re, im] number pairs"
    try:
        arr = np.array(value)
    except ValueError as exc:  # ragged nesting
        raise MalformedInput(expected) from exc
    if arr.size == 0:
        return arr.astype(complex)  # no entries: the dimension checks reject it
    if arr.dtype.kind not in "iuf" or arr.ndim != depth + 1 or arr.shape[-1] != 2:
        raise MalformedInput(expected)
    return np.ascontiguousarray(arr, dtype=float).view(complex)[..., 0]


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise MalformedInput(f"{what} must be a JSON object")
    return value


def _required(obj: dict, key: str, what: str):
    if key not in obj:
        raise MalformedInput(f"{what} is missing")
    return obj[key]


def _number(value, what: str, integer: bool = False):
    """A finite JSON number, or a JSON integer where `integer`; true, false and strings are not."""
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        raise MalformedInput(f"{what} must be {'an integer' if integer else 'a number'}, got {value!r}")
    if integer:
        return value
    try:
        number = float(value)
    except OverflowError:  # an integer too large for a float
        number = math.inf
    if not math.isfinite(number):
        raise MalformedInput(f"{what} must be a finite number, got {value!r}")
    return number


# Largest n * scale of an observable a command computes with.  The report's
# degree-4 fields, the optimizer's gradient and H(phi) stay below 24 (n
# scale)^4, which must not overflow; measured on all-ones matrices, report
# and minimize overflow from n * scale of about 1.7e77 to 9e77 at n = 2..64.
MAGNITUDE_BOUND = 1e76


class _Observables(Mapping):
    """A problem file's named observables; a grid's x and p are built on first lookup.

    A lookup rejects an observable whose n * scale exceeds MAGNITUDE_BOUND.
    """

    def __init__(self, defined: dict, builders: dict):
        self._built = defined
        self._builders = {name: b for name, b in builders.items() if name not in defined}
        self._names = [*defined, *self._builders]

    def __getitem__(self, name: str) -> Observable:
        if name not in self._built:
            self._built[name] = self._builders[name]()
        obs = self._built[name]
        if obs.dim * obs.scale > MAGNITUDE_BOUND:
            raise InvalidParameter(
                f"observable {name!r} has scale {obs.scale!r}, above the bound "
                f"{MAGNITUDE_BOUND:g} / n = {MAGNITUDE_BOUND / obs.dim!r} at n = {obs.dim}"
            )
        return obs

    def __iter__(self):
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._names)


def load_problem(path: str, tol: float = 1e-10) -> tuple[State, _Observables]:
    """Parse and validate a problem file into its state and named observables.

    Grid problems gain the observables 'x' and 'p' unless the file defines
    that name itself.  Each is built when a command first looks it up.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # not UTF-8, not JSON, or an integer too long to convert
            raise MalformedInput(str(exc)) from exc
    raw = _object(doc, "problem file")
    dim = _number(_required(raw, "dim", "dim"), "dim", integer=True)
    state = _complex_array(_required(raw, "state", "state"), 1, "state")
    state = validate_state(state, tol=max(tol, 1e-10))
    if state.dim != dim:
        raise DimensionMismatch(f"state has dim {state.dim}, file says {dim}")
    observables, builders = {}, {}
    for name, rows in _object(raw.get("observables", {}), "observables").items():
        obs = Observable(_complex_array(rows, 2, f"observable {name!r}"))
        if obs.dim != dim:
            raise DimensionMismatch(f"observable {name!r} has dim {obs.dim}, file says {dim}")
        observables[name] = obs
    if raw.get("grid") is not None:
        spec = _object(raw["grid"], "grid")
        grid = Grid(
            _number(_required(spec, "n", "grid n"), "grid n", integer=True),
            _number(_required(spec, "length", "grid length"), "grid length"),
            _number(spec.get("hbar", 1.0), "grid hbar"),
        )
        if grid.n != dim:
            raise DimensionMismatch(f"grid has n={grid.n}, file says dim {dim}")
        builders = {"x": lambda: position_op(grid), "p": lambda: momentum_op(grid)}
    return state, _Observables(observables, builders)


def _resolve(observables: _Observables, name: str) -> Observable:
    if name not in observables:
        raise GeometryError(f"unknown observable {name!r}")
    return observables[name]


def _emit(fields: dict, fmt: str) -> None:
    """One JSON object, or a CSV header of the field names and one row."""
    if fmt == "csv":
        print(",".join(fields))
        print(serialize.csv_row(fields.values()))
    else:
        print(serialize.dumps(fields))


def cmd_report(args) -> int:
    state, observables = load_problem(args.input, args.tol)
    a = _resolve(observables, args.pair[0])
    b = _resolve(observables, args.pair[1])
    _emit(relations_report(a, b, state).to_dict(), args.format)
    return 0


def cmd_evolve(args) -> int:
    state, observables = load_problem(args.input, args.tol)
    gen = _resolve(observables, args.generator)
    trace = trace_flow(gen, state, args.t_max, args.steps)
    if args.out is None:
        trace.write_csv(sys.stdout)
    else:
        with open(args.out, "w", newline="") as fh:
            trace.write_csv(fh)
    return 0


def cmd_distances(args) -> int:
    state, observables = load_problem(args.input, args.tol)
    a = _resolve(observables, args.pair[0])
    b = _resolve(observables, args.pair[1])
    _emit(triangle_report(a, b, state, args.metric_scale).to_dict(), args.format)
    return 0


def cmd_minimize(args) -> int:
    state, observables = load_problem(args.input, args.tol)
    a = _resolve(observables, args.pair[0])
    b = _resolve(observables, args.pair[1])
    result = minimize_multistart(
        a,
        b,
        phi0=state,
        restarts=args.restarts,
        seed=args.seed,
        max_iter=args.max_iter,
    )
    print(serialize.dumps(result.to_dict()))
    return 0


def _random_hermitian(rng, n) -> Observable:
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = 0.5 * (m + m.conj().T)
    return Observable(h / np.max(np.abs(h)))


def cmd_selftest(args) -> int:
    if args.n_random < 0:
        raise InvalidParameter(f"n-random must be >= 0, got {args.n_random}")
    if args.input is not None:
        _, observables = load_problem(args.input, args.tol)
        dict(observables)  # builds, and so validates, a grid's x and p
        print(f"selftest: problem file {args.input!r} validates")
        return 0
    rng = np.random.default_rng(args.seed)
    dims = (2, 3, 4, 8, 16)
    checks = 0
    for i in range(args.n_random):
        n = dims[i % len(dims)]
        a = _random_hermitian(rng, n)
        b = _random_hermitian(rng, n)
        phi = validate_state(
            rng.standard_normal(n) + 1j * rng.standard_normal(n), tol=np.inf
        )
        rep = relations_report(a, b, phi)
        x = centered_field(a, phi)
        y = centered_field(b, phi)
        ok = (
            abs(rep.identity_residual) <= 1e-10
            and rep.robertson_slack >= -1e-10
            and rep.area_bound_slack >= -1e-10
            and abs(rep.anticommutator_half - abs(metric_g(x, y))) <= 1e-10
            and abs(rep.commutator_half - abs(symplectic(x, y))) <= 1e-10
            and abs(rep.area - parallelogram_area(x, y)) <= 1e-10
        )
        if not ok:
            raise GeometryError(f"selftest invariant violated at instance {i} (n={n})")
        checks += 6
    print(
        f"selftest: verified {checks} identities over {args.n_random} "
        f"random instances (seed={args.seed})"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="statesphere",
        description="Uncertainty geometry on the sphere of states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, input_required=True):
        # selftest alone runs without a problem file; each command declares
        # only the other flags it reads.
        p = sub.add_parser(name, help=help)
        p.add_argument("--input", required=input_required, help="problem file (JSON)")
        p.add_argument("--tol", type=float, default=1e-10)
        p.set_defaults(func=func)
        return p

    p = command("report", cmd_report, "uncertainty relations for an observable pair")
    p.add_argument("--pair", nargs=2, required=True, metavar=("A", "B"))
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = command("evolve", cmd_evolve, "trace the unitary flow of a generator")
    p.add_argument("--generator", required=True)
    p.add_argument("--t-max", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--out", help="CSV output path (default stdout)")

    p = command("distances", cmd_distances, "triangle relation between eigenstate sets")
    p.add_argument("--pair", nargs=2, required=True, metavar=("A", "B"))
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--metric-scale", type=float, default=1.0)

    p = command("minimize", cmd_minimize, "search for minimal-uncertainty states")
    p.add_argument("--pair", nargs=2, required=True, metavar=("A", "B"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--max-iter", type=int, default=500)

    p = command("selftest", cmd_selftest, "run the random invariant suite", input_required=False)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-random", type=int, default=1000)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # A NaN, overflow or division by zero in numpy fails the command.
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return args.func(args)
    except DimensionMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OSError, MalformedInput) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (GeometryError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
