"""Deterministic JSON emission with 17-significant-digit floats."""

from __future__ import annotations

import json
import math

__all__ = ["dumps"]

_DIGITS = 4000
_CHUNK = 10**_DIGITS


def _int_text(n: int) -> str:
    # str() refuses ints of more than 4300 digits, which 3^k ledgers can reach
    if -_CHUNK < n < _CHUNK:
        return str(n)
    if n < 0:
        return "-" + _int_text(-n)
    head, tail = divmod(n, _CHUNK)
    return _int_text(head) + str(tail).zfill(_DIGITS)


def _emit(obj) -> str:
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return _int_text(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"cannot serialize non-finite float {obj!r}")
        return f"{obj:.17g}"
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_emit(v) for v in obj) + "]"
    if isinstance(obj, dict):
        parts = []
        for k, v in obj.items():
            if not isinstance(k, str):
                raise TypeError(f"JSON object keys must be strings, got {k!r}")
            parts.append(f"{json.dumps(k, ensure_ascii=False)}: {_emit(v)}")
        return "{" + ", ".join(parts) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    """Serialize to JSON; floats use %.17g, key order is insertion order."""
    return _emit(obj)
