"""The exit-code contract of cli.main under mutated problem files and limit flags.

A valid dense or grid problem skeleton is mutated (wrong types and shapes,
extra nesting, duplicate keys, 1e999, subnormal and huge finite numbers,
grid n, L and hbar across their range) and run by a command whose flags
take values at their limits.  Whatever the input: exit 0 prints finite
numbers in output that parses, every failure is exactly one `error:` line
on stderr with code 1, 2 or 3 and nothing on stdout, no exception escapes,
no true or false is read as a number, and a second run prints the same.  The search is derandomized, so tier-1
runs the same examples every time.
"""

import contextlib
import io
import json
import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from statesphere.cli import main


class Raw(str):
    """A JSON token written as it is, such as 1e999 or NaN."""


class Obj(list):
    """A JSON object as a list of (key, value) pairs, so a key may repeat."""


def to_text(node) -> str:
    if isinstance(node, Raw):
        return str(node)
    if isinstance(node, Obj):
        return "{" + ", ".join(f"{json.dumps(k)}: {to_text(v)}" for k, v in node) + "}"
    if isinstance(node, list):
        return "[" + ", ".join(map(to_text, node)) + "]"
    return json.dumps(node)


NUMBERS = [
    "0", "-0.0", "1", "-1", "2.5", "16", "64", "40.0", "1e999", "-1e999", "5e-324",
    "2.2250738585072014e-308", "1.7976931348623157e308", "1e300", "1e-300", "1e76",
    "NaN", "Infinity", "-Infinity", "1" + "0" * 400, "2e-160",
]
numbers = st.sampled_from(NUMBERS).map(Raw)
# grid L and hbar across their range: positive and finite
positive = st.sampled_from(["40.0", "1.0", "2.5", "5e-324", "1e-300", "2e-160", "1e300", "1.7976931348623157e308"]).map(Raw)
junk = st.one_of(
    numbers,
    st.sampled_from(["x", "", True, False, None]),
    st.just([]),
    st.just(Obj()),
    st.just([Raw("1"), Raw("0")]),
    st.just([[Raw("1"), Raw("0")]]),
)


def complex_pairs(values) -> list:
    return [[Raw(repr(float(z.real))), Raw(repr(float(z.imag)))] for z in values]


@st.composite
def skeletons(draw):
    """A valid problem and its observables' names: a dense pair a, b with
    n <= 4, or a grid, whose x and p have n <= 64."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    if draw(st.booleans()):
        n = draw(st.integers(2, 4))
        scale = 2.0 ** draw(st.integers(-80, 80))
        observables = Obj()
        for name in "ab":
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            h = scale * (m + m.conj().T)
            observables.append((name, [complex_pairs(row) for row in h]))
        extra, names = [("observables", observables)], "ab"
    else:
        n = draw(st.sampled_from([16, 32, 64]))
        grid = Obj([("n", Raw(str(n))), ("length", draw(positive)), ("hbar", draw(positive))])
        extra, names = [("grid", grid)], "xp"
    phi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    if draw(st.booleans()):  # a basis vector, of entries 1 and 0
        phi = np.eye(n)[draw(st.integers(0, n - 1))]
    doc = Obj([("dim", Raw(str(n))), ("state", complex_pairs(phi / np.linalg.norm(phi))), *extra])
    return doc, names


def leaves(node, path=()):
    """(path, token) of each number token under node."""
    if isinstance(node, Raw):
        yield path, node
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from leaves(child[1] if isinstance(node, Obj) else child, (*path, i))


def replaced(node, path, new):
    """node with the part at path replaced by new."""
    if not path:
        return new
    children, i = list(node), path[0]
    if isinstance(node, Obj):
        children[i] = (children[i][0], replaced(children[i][1], path[1:], new))
    else:
        children[i] = replaced(children[i], path[1:], new)
    return type(node)(children)


def mutate(draw, doc):
    """doc with one part replaced, nested, shortened, repeated or given its key again."""
    path, node = (), doc
    while isinstance(node, list) and node and draw(st.integers(0, 4)) < 4:  # descend
        i = draw(st.integers(0, len(node) - 1))
        path, node = (*path, i), node[i][1] if isinstance(node, Obj) else node[i]
    action = draw(st.sampled_from(["replace", "nest", "drop", "repeat"]))
    if action == "replace":
        return replaced(doc, path, draw(junk))
    if action == "nest":
        return replaced(doc, path, [node])
    if not isinstance(node, list) or not node:
        return doc
    children, i = list(node), draw(st.integers(0, len(node) - 1))
    if action == "drop":
        return replaced(doc, path, type(node)(children[:i] + children[i + 1 :]))
    if isinstance(node, Obj):  # the same key again, with another value
        return replaced(doc, path, Obj(children + [(children[i][0], draw(junk))]))
    return replaced(doc, path, type(node)(children + [children[i]]))


def as_boolean(draw, node):
    """node with a number 0 or 1 written as false or true, which json reads as a bool."""
    ones_and_zeros = [(path, float(token)) for path, token in leaves(node) if float(token) in (0.0, 1.0)]
    if not ones_and_zeros:
        return node
    path, value = draw(st.sampled_from(ones_and_zeros))
    return replaced(node, path, value == 1.0)


FLAGS = {
    "report": {"--pair": None, "--format": ["json", "csv"]},
    "distances": {"--pair": None, "--format": ["json", "csv"],
                  "--metric-scale": ["2", "nan", "inf", "0", "-1", "5e-324", "1e308", "1.5e308"]},
    "evolve": {"--generator": None, "--t-max": ["2", "nan", "inf", "-inf", "0", "-1e308", "1e308", "5e-324"],
               "--steps": ["2", "3", "1", "0", "-1"]},
    "minimize": {"--pair": None, "--restarts": ["1", "2", "0", "-1"], "--max-iter": ["1", "3", "0", "-1"],
                 "--seed": ["0", "-1", str(2**63)]},
    "selftest": {"--n-random": ["0", "2", "-1"]},
}
NAMES = "abxpq"


@st.composite
def invocations(draw):
    """(problem file text, argv of one command less its --input)."""
    doc, names = draw(skeletons())
    # half the files reach the commands unmutated, to drive their flags
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2, 3]))):
        doc = draw(st.sampled_from([mutate, mutate, mutate, as_boolean]))(draw, doc)
    # mostly a name the problem defines, sometimes one it may not
    name = st.sampled_from(names * 8 + NAMES)
    command = draw(st.sampled_from(sorted(FLAGS)))
    argv = [command]
    for flag, values in FLAGS[command].items():
        if flag == "--pair":
            argv += [flag, draw(name), draw(name)]
        elif flag == "--generator":
            argv.append(f"{flag}={draw(name)}")
        else:
            argv.append(f"{flag}={draw(st.sampled_from(values))}")
    if draw(st.booleans()):
        argv.append(f"--tol={draw(st.sampled_from(['1e-10', 'nan', 'inf', '0', '-1', '1e300']))}")
    return to_text(doc), argv


def run(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def scalars(value):
    """Every number, string, bool and null in a parsed JSON value."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        for v in value:
            yield from scalars(v)
    else:
        yield value


def assert_output_parses(command: str, argv: list, out: str) -> None:
    if command == "selftest":
        assert out.startswith("selftest: problem file ") and out.endswith(" validates\n")
    elif command == "evolve":
        lines = out.split("\r\n")
        assert lines[-1] == "" and len(lines) >= 4
        width = len(lines[0].split(","))
        for line in lines[1:-1]:
            cells = [float(cell) for cell in line.split(",")]
            assert len(cells) == width and all(map(math.isfinite, cells))
    elif "--format=csv" in argv:
        header, row, end = out.split("\n")
        assert end == "" and len(header.split(",")) == len(row.split(","))
        assert all(math.isfinite(float(cell)) for cell in row.split(","))
    else:
        assert out.endswith("\n") and out.count("\n") == 1
        assert all(math.isfinite(v) for v in scalars(json.loads(out)) if isinstance(v, float))


def assert_contract(path, text: str, argv: list) -> None:
    """Run argv with --input path, the file holding text, twice, and check the contract."""
    path.write_text(text)
    argv = [argv[0], "--input", str(path), *argv[1:]]
    first = run(argv)
    assert run(argv) == first
    rc, out, err = first
    assert "Traceback" not in out + err
    if rc == 0:
        # a true or false is no number, wherever the program reads one
        doc = json.loads(text)
        read = [doc.get(key) for key in ("dim", "state", "observables", "grid")]
        assert not any(isinstance(v, bool) for v in scalars(read))
        assert err == ""
        assert_output_parses(argv[0], argv, out)
    else:
        assert rc in (1, 2, 3)
        assert out == ""
        assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1


@settings(derandomize=True, max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(invocations())
def test_exit_codes_hold_the_contract(tmp_path, invocation):
    assert_contract(tmp_path / "problem.json", *invocation)
