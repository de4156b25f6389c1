"""JSON form of the config dataclasses: an object keyed by field name.

Encoding writes each field that is set; decoding reads only the keys that
are present, type-checks each one, and leaves every absent field to its
dataclass default, so each default has one home.
"""
from __future__ import annotations

from dataclasses import MISSING, fields

import numpy as np

_EXPECTED = {str: "a string", bool: "true or false", int: "an integer", float: "a number"}
_SCALARS = {kind.__name__: kind for kind in _EXPECTED}


def key_path(path: str, key: str) -> str:
    """Dotted name of ``key`` inside the object named ``path`` ("" at the top)."""
    return f"{path}.{key}" if path else key


def to_fields(config) -> dict:
    """Each field of ``config`` that is not None, in declaration order; a
    nested config by its own ``to_json``, an array as nested lists."""
    values = ((f.name, getattr(config, f.name)) for f in fields(config))
    return {name: value.to_json() if hasattr(value, "to_json")
            else value.tolist() if isinstance(value, np.ndarray) else value
            for name, value in values if value is not None}


def scalar(value, kind: type, where: str):
    """``value`` as ``kind``; a JSON integer is also a number, a boolean only a boolean."""
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
        raise ValueError(f"{where}: expected {_EXPECTED[kind]}, got {type(value).__name__}")
    try:
        return kind(value)
    except OverflowError:
        raise ValueError(f"{where}: the number is out of range") from None


def matrix(value, where: str) -> np.ndarray:
    """A non-empty JSON list of equal-length lists of finite numbers, as a 2-d float array."""
    if not (isinstance(value, list) and value and all(isinstance(row, list) for row in value)
            and len({len(row) for row in value}) == 1):
        raise ValueError(f"{where}: expected a matrix (a list of equal-length lists of numbers)")
    out = np.array([[scalar(x, float, where) for x in row] for row in value])
    if not np.isfinite(out).all():
        raise ValueError(f"{where}: expected finite numbers")
    return out


def from_fields(cls, obj, path: str = "", **decoders):
    """Dataclass ``cls`` from the JSON object ``obj``, named ``path`` in errors.

    A present key is decoded by ``decoders[name](value, where)`` or checked
    against its scalar field type; a field of any other type is not read.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"{path or 'config'}: expected a JSON object, got {type(obj).__name__}")
    kwargs = {}
    for f in fields(cls):
        where, kind = key_path(path, f.name), _SCALARS.get(getattr(f.type, "__name__", f.type))
        if f.name in obj and (kind or f.name in decoders):
            decode = decoders.get(f.name) or (lambda value, where: scalar(value, kind, where))
            kwargs[f.name] = decode(obj[f.name], where)
        elif f.default is MISSING:
            raise ValueError(f"{where}: missing")
    return cls(**kwargs)
