"""The one settings check, ``check_fields``, and reader, ``from_settings``."""

import functools
import math
import numbers
import typing

_hints = functools.cache(typing.get_type_hints)
_NOUNS = {int: "an integer", float: "a finite real number"}


def _check(name: str, value, kind) -> None:
    ok = (isinstance(value, numbers.Real) and math.isfinite(value)
          if kind is float else isinstance(value, kind))
    # Python counts a bool as an int, but no count or weight is one
    if not ok or (isinstance(value, bool) and kind is not bool):
        noun = _NOUNS.get(kind, f"a {kind.__name__}")
        raise ValueError(f"{name} must be {noun}, got {value!r}")


def check_fields(obj) -> None:
    """Refuse, naming the field, a value its declared type does not admit:
    an ``int`` takes an int and a ``float`` a finite real, neither a bool; a
    ``tuple`` takes a list or tuple of those, stored as a tuple."""
    for name, kind in _hints(type(obj)).items():
        value = getattr(obj, name)
        if tuple not in (kind, typing.get_origin(kind)):
            _check(name, value, kind)
            continue
        items = typing.get_args(kind) or (float, ...)  # a bare tuple: reals
        n = None if items[-1] is Ellipsis else len(items)
        if not isinstance(value, (list, tuple)) or n not in (None, len(value)):
            raise ValueError(f"{name} must be a list of {n or 'any number of'}"
                             f" values, got {value!r}")
        for item in value:
            _check(f"each of {name}", item, items[0])
        object.__setattr__(obj, name, tuple(value))


def from_settings(cls, mapping: dict, what: str):
    """``cls(**mapping)``, refusing a mapping that is not a dict or holds a
    key that is not a field of ``cls``."""
    if not isinstance(mapping, dict):
        raise ValueError(f"{what} must be a JSON object, got "
                         f"{type(mapping).__name__}")
    unknown = set(mapping) - set(_hints(cls))
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
    return cls(**mapping)
