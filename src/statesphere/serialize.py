"""Deterministic JSON/CSV rendering.

Floats are rendered at 17 significant digits and dict insertion order is
preserved, so identical inputs produce byte-identical output.
"""

from __future__ import annotations

import json

# 17 significant digits round-trip every double.
FLOAT_FORMAT = "{:.17g}"
format_float = FLOAT_FORMAT.format


def _render(obj) -> str:
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(str(k))}: {_render(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_render(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps(obj) -> str:
    """Single-line deterministic JSON with fixed float formatting."""
    return _render(obj)


def csv_row(values) -> str:
    """Comma-separated row, each value rendered as in dumps."""
    return ",".join(map(_render, values))
