"""The one field checker every reader of an input document runs.

A document is a table of (field, rule[, default]) rows, read by :func:`read`.
The rules are "finite", ">0" and ">=0" (a JSON number, not a boolean, finite
as a float), "int>=k" (an integer from k to 2**63 - 1), "bool", "object" and
"list" (that JSON type), "pair" (an [re, im] pair of finite numbers, read as a
complex number), "pairs" (a nonempty list of pairs, read as a complex128
array) and a tuple of strings (one of them).  Every refusal is a ValueError,
"<where> 'name' is missing" or "<where> 'name' must be <rule>, got <value>",
and item i of a list is "<where> 'name' item i".  A value whose repr is longer
than ``SHOWN`` characters is cut there and followed by its type and length.
"""

from __future__ import annotations

import cmath
import itertools
import math
import numbers

import numpy as np

_RULES = {"finite": "a finite number", ">0": "a finite number > 0",
          ">=0": "a finite number >= 0", "bool": "a boolean", "object": "an object",
          "list": "a list", "pair": "an [re, im] pair of finite numbers",
          "pairs": "a nonempty list of [re, im] pairs of finite numbers"}
_TYPES = {"bool": bool, "object": dict, "list": list}
_REQUIRED = object()
SHOWN = 80   # characters of a refused value a refusal repeats


def _float(value) -> float:
    """``value`` as a float; NaN for a boolean, a non-number or an int beyond the float range."""
    if isinstance(value, numbers.Real) and type(value) is not bool:
        try:
            return float(value)
        except OverflowError:
            pass
    return math.nan


def _complex(value) -> complex | None:
    """An [re, im] pair of finite numbers as a complex number, else None."""
    if type(value) is list and len(value) == 2:
        z = complex(*map(_float, value))
        if cmath.isfinite(z):
            return z
    return None


def _pairs(values: list, what: str) -> np.ndarray:
    """A nonempty list of pairs as complex128: in one numpy pass when every item is a list
    of two JSON numbers, each finite, else item by item, naming the first fault."""
    try:
        flat = list(itertools.chain.from_iterable(values))
        if (set(map(type, values)) <= {list} and set(map(len, values)) <= {2}
                and set(map(type, flat)) <= {int, float}):
            z = np.array(flat, dtype=np.float64).view(np.complex128)
            if np.isfinite(z).all():
                return z
    except (TypeError, OverflowError):
        pass
    return np.array([check(v, "pair", f"{what} item {i}") for i, v in enumerate(values)])


def check(value, rule, what: str):
    """``value`` if it meets ``rule``, a pair as a complex number and a list of pairs as
    an array; else ValueError "<what> must be <rule>, got <value>"."""
    text = _RULES.get(rule)
    if rule in (">0", ">=0", "finite"):
        x = _float(value)
        if math.isfinite(x) and (rule == "finite" or x > 0 or rule == ">=0" and x == 0):
            return value
    elif isinstance(rule, tuple):
        if value in rule:
            return value
        text = "one of " + ", ".join(map(repr, rule))
    elif rule.startswith("int>="):
        low = int(rule[5:])
        whole = isinstance(value, numbers.Integral) and type(value) is not bool
        if whole and low <= value < 2 ** 63:
            return value
        text = "an integer below 2**63" if whole and value >= low else f"an integer >= {low}"
    elif rule in _TYPES:
        if isinstance(value, _TYPES[rule]):
            return value
    elif rule == "pair":
        z = _complex(value)
        if z is not None:
            return z
    elif rule == "pairs":
        if type(value) is list and value:
            return _pairs(value, what)
    shown = repr(value)
    if len(shown) > SHOWN:   # one short line, whatever the input's size
        shown = f"{shown[:SHOWN]}... ({type(value).__name__}, {len(shown)} characters)"
    raise ValueError(f"{what} must be {text}, got {shown}")


def field(doc: dict, name: str, rule, where: str, default=_REQUIRED):
    """``doc[name]`` checked by :func:`check` as "<where> 'name'"; a missing or null value
    is ``default``, or refused when there is none."""
    value = doc.get(name)
    if value is None:
        if default is _REQUIRED:
            raise ValueError(f"{where} {name!r} is missing")
        return default
    return check(value, rule, f"{where} {name!r}")


def read(doc: dict, table, where: str) -> dict:
    """Each (name, rule[, default]) row of ``table`` read from ``doc`` by :func:`field`."""
    return {name: field(doc, name, rule, where, *default) for name, rule, *default in table}
