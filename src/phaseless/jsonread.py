"""Typed readers of JSON values: the package's one way to read a JSON document.

A converter returns a value of its JSON type and rejects any other,
never coerces it: 2.7 is no integer, "1" no number, false no boolean.
A number must be finite, so NaN, Infinity and a literal beyond the float
range (1e400) are rejected here.  ``take`` pulls an object's keys through
converters and rejects unknown keys.  Every error is a ConfigError led by
the key path, for instance ``config.target.components[0].radius``.
"""

from __future__ import annotations

import math

from .exceptions import ConfigError

__all__ = [
    "take", "given", "convert", "identity", "string", "boolean", "obj", "array",
    "number", "integer", "numbers", "choice",
]


def take(data, context: str, required: dict, optional: dict) -> dict:
    """Pull typed values out of the object ``data``; reject unknown keys.

    ``required`` maps a key to its converter, ``optional`` a key to
    (converter, default).
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{context}: expected an object")
    unknown = set(data) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"{context}: unknown keys {sorted(unknown)}")
    out = {}
    for key, conv in required.items():
        if key not in data:
            raise ConfigError(f"{context}: missing required key {key!r}")
        out[key] = convert(data[key], conv, f"{context}.{key}")
    for key, (conv, default) in optional.items():
        # an explicit null means "unset", same as omitting the key, so an
        # echo containing nulls re-parses to the same value
        if data.get(key) is None:
            out[key] = default
        else:
            out[key] = convert(data[key], conv, f"{context}.{key}")
    return out


def given(data, context: str, converters: dict) -> dict:
    """The keys of ``converters`` that ``data`` sets to a non-null value, converted."""
    got = take(data, context, {}, {key: (conv, None) for key, conv in converters.items()})
    return {key: value for key, value in got.items() if value is not None}


def convert(value, conv, context: str):
    """``conv(value)``; any error but a ConfigError becomes one led by ``context``."""
    try:
        return conv(value)
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def identity(value):
    return value


def _json_type(kind: type, name: str):
    """Converter that passes a value of JSON type ``kind`` through and rejects the rest."""

    def check(value):
        if not isinstance(value, kind):
            raise TypeError(f"expected {name}, got {value!r}")
        return value

    return check


string = _json_type(str, "a string")
boolean = _json_type(bool, "true or false")
obj = _json_type(dict, "an object")
array = _json_type(list, "a list")


def number(value) -> float:
    """A finite JSON number, as a float; bool is not a number here."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"expected a finite number, got {value!r}")
    return x


def integer(value) -> int:
    """A JSON integer; a float only without a fractional part (2.0)."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def numbers(value) -> tuple[float, ...]:
    """A JSON list of finite numbers, as floats."""
    return tuple(number(x) for x in array(value))


def choice(options: tuple, conv=string):
    """Converter to one of ``options``, each a value ``conv`` returns."""

    def check(value):
        value = conv(value)
        if value not in options:
            raise ValueError(f"expected one of {options}, got {value!r}")
        return value

    return check
