"""One typed reader for the values of a JSON experiment config.

A table maps each key a config block may hold to ``(kind, default)``.  A
kind is ``COUNT`` (a whole JSON number within int64: 5000.0 passes, 2.7
and 1e300 do not), ``REAL`` (a finite JSON number), ``REALS`` (a nonempty
list of reals), a tuple of the allowed values, or a function that reads a
nested block.  A bool or a string is never a number, where int() and
float() would read true as 1 and "1000" as 1000.  Range checks stay with
the code that uses a value.
"""
from __future__ import annotations

import math
import numbers

COUNT, REAL, REALS = "count", "real", "reals"
REQUIRED = object()  # the default of a key the block must hold


def check_keys(block, table: dict, name: str, kinded: bool = False) -> None:
    """Reject a block that is no JSON object, holds a key missing from
    ``table`` or lacks a required one.  A ``kinded`` block also holds
    "kind", the key that chose its table."""
    if not isinstance(block, dict):
        raise ValueError(f"{name} must be a JSON object, got {block!r}")
    unknown = set(block) - set(table) - ({"kind"} if kinded else set())
    if unknown:
        raise ValueError(f"unknown {name} keys {sorted(unknown)}; allowed: {sorted(table)}")
    missing = [key for key, (_, default) in table.items()
               if default is REQUIRED and key not in block]
    if missing:
        raise ValueError(f"{name} missing field {missing[0]!r}")


def read_block(block, table: dict, name: str, kinded: bool = False) -> dict:
    """Every key of ``table``: its value in ``block`` read as its kind,
    else its default."""
    check_keys(block, table, name, kinded)
    return {key: read_value(block[key], kind, key) if key in block else default
            for key, (kind, default) in table.items()}


def read_value(value, kind, name: str):
    """``value`` read as ``kind``; ``name`` labels the error."""
    if callable(kind):
        return kind(value)
    if isinstance(kind, tuple):
        if isinstance(value, bool) or value not in kind:
            raise ValueError(f"{name} must be {' or '.join(map(repr, kind))}, got {value!r}")
        return kind[kind.index(value)]
    if kind == REALS:
        if not isinstance(value, (list, tuple)) or not value:
            raise ValueError(f"{name} must be a nonempty list of numbers, got {value!r}")
        return [read_value(v, REAL, name) for v in value]
    number = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if kind == COUNT:
        if not (number and float(value).is_integer()):
            raise ValueError(f"{name} must be a whole number, got {value!r}")
        if not -2 ** 63 <= value < 2 ** 63:
            raise ValueError(f"{name} must be a whole number within int64, got {value!r}")
        return int(value)
    if not number:
        raise ValueError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return float(value)
