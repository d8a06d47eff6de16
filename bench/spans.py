"""Per-layer tracing from outside the program.

Tracer.install() replaces the public functions of each statesphere module,
and the few methods named in METHODS, by wrappers that time each call.
Every call is a span; its self time is its duration minus the part covered
by the spans it caused.  The replacement is made in every module namespace
that holds the function, so calls made through `from .x import f` are
caught too.  Spans are aggregated per name as they close and the totals are
read and reset once per op.
"""

from __future__ import annotations

import inspect
import sys
from time import perf_counter

import numpy as np

MODULES = (
    "hilbert", "realify", "uncertainty", "projective",
    "evolution", "canonical", "optimize", "serialize",
)
# In cli only the entry point and the problem-file loader are traced, so the
# command handlers' own time stays inside cli.main.
CLI_FUNCTIONS = ("main", "load_problem")
METHODS = (
    ("hilbert", "Observable", "__post_init__"),
    ("hilbert", "State", "__post_init__"),
    ("hilbert", "SpectralDecomposition", "eigenspaces"),
    ("evolution", "FlowTrace", "write_csv"),
)


class _Frame:
    __slots__ = ("child", "sizes")

    def __init__(self):
        self.child = 0.0
        self.sizes = None


def _held_bytes(obj) -> int:
    """Bytes of the numpy arrays an object holds as attributes."""
    return sum(v.nbytes for v in getattr(obj, "__dict__", {}).values() if isinstance(v, np.ndarray))


class Tracer:
    def __init__(self):
        self.stack = []
        self.stats = {}  # name -> [calls, self_s, total_s]
        self.counts = {}

    def _count(self, name: str, value) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    # Counters read from a call's result, outside any span's time.
    def _operator_bytes(self, frame: _Frame, result) -> None:
        self._count("canonical.operator_bytes", _held_bytes(result))

    def _eigenset_size(self, frame: _Frame, result) -> None:
        parent = self.stack[-1] if self.stack else None
        if parent is not None and parent.sizes is not None:
            parent.sizes.append(len(result.eigenspaces))

    def _eigenspace_pairs(self, frame: _Frame, result) -> None:
        """|S_A| * |S_B| from the two eigensets the distance call built."""
        if len(frame.sizes) == 2:
            self._count("projective.eigenspace_pairs", frame.sizes[0] * frame.sizes[1])

    def _descent(self, frame: _Frame, result) -> None:
        self._count("optimize.iterations", result.iterations)
        self._count("optimize.accepted_steps", len(result.objective_trace) - 1)

    HOOKS = {
        "canonical.position_op": _operator_bytes,
        "canonical.momentum_op": _operator_bytes,
        "projective.eigenset": _eigenset_size,
        "projective.eigenset_distance": _eigenspace_pairs,
        "optimize.minimize_product": _descent,
    }

    def wrap(self, name: str, fn):
        stack, stats = self.stack, self.stats
        collects = name == "projective.eigenset_distance"
        hook = self.HOOKS.get(name)

        def traced(*args, **kwargs):
            frame = _Frame()
            if collects:
                frame.sizes = []
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                st = stats.get(name)
                if st is None:
                    st = stats[name] = [0, 0.0, 0.0]
                st[0] += 1
                st[1] += dt - frame.child
                st[2] += dt
                if stack:
                    stack[-1].child += dt
            if hook is not None:
                hook(self, frame, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every traced function in every statesphere module namespace."""
        mods = {name: sys.modules[name] for name in sys.modules if name.startswith("statesphere")}
        replace = {}
        for short in MODULES + ("cli",):
            mod = mods[f"statesphere.{short}"]
            for attr, obj in vars(mod).items():
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                if attr.startswith("_") or (short == "cli" and attr not in CLI_FUNCTIONS):
                    continue
                replace[id(obj)] = self.wrap(f"{short}.{attr}", obj)
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replace and inspect.isfunction(obj):
                    setattr(mod, attr, replace[id(obj)])
        for short, cls_name, meth in METHODS:
            cls = getattr(mods[f"statesphere.{short}"], cls_name)
            setattr(cls, meth, self.wrap(f"{short}.{cls_name}.{meth}", getattr(cls, meth)))

    def take(self) -> dict:
        """This op's per-name [calls, self_s, total_s] and counters; then reset."""
        out = {"spans": dict(self.stats), "counts": dict(self.counts)}
        self.stats.clear()
        self.counts.clear()
        return out
