"""Exact rational scalars and their text form.

Every coordinate, weight, and LP value this package returns is a
`fractions.Fraction` (arbitrary precision, always reduced, positive
denominator); the LP tableau and its certificate checks, the depth
recursion and tilts, the partition search and certificate checks, the
isolation sums and the covering kernel compute inside on integers scaled
from them.  Input scalars (ints, Fractions, or strings `rat` reads) can
be read straight into such integers with `read_scaled`, which builds no
Fraction for an int or a plain ``"p"`` or ``"p/q"`` string.  Serialized
form is the string ``"p/q"``.
"""
from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, List, NamedTuple, Sequence, Tuple

Rational = Fraction
Point = Tuple[Fraction, ...]


def rat(value) -> Fraction:
    """Coerce an int, string ``"p/q"`` (or ``"p"``), or Fraction to a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not rational scalars")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def rat_str(value: Fraction) -> str:
    """Serialize a Fraction as ``"p/q"`` (denominator always written)."""
    f = rat(value)
    return f"{f.numerator}/{f.denominator}"


def integer_scaled(vectors: Sequence[Sequence[Fraction]]) -> Tuple[int, List[Tuple[int, ...]]]:
    """L, the lcm of the denominators of every entry, and each vector times
    L as integers; L > 0 keeps every sign and order between entries."""
    L = lcm(*(c.denominator for v in vectors for c in v))
    return L, [tuple(c.numerator * (L // c.denominator) for c in v) for v in vectors]


class Scaled(NamedTuple):
    """Rows of rationals as integers over one positive common denominator:
    row i is rows[i] / scale.  From read_scaled, scale is the lcm of the
    rows' denominators."""

    scale: int
    rows: List[Tuple[int, ...]]


_PLAIN = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def _reduced(value) -> Tuple[int, int]:
    """The numerator and denominator of rat(value), raising what it raises;
    an int or a plain "p" or "p/q" string (ASCII digits, no spaces, q > 0)
    is read with int, every other value through rat."""
    if type(value) is int:
        return value, 1
    if type(value) is str:
        m = _PLAIN.fullmatch(value)
        if m:
            p, q = m.groups()
            p, q = int(p), int(q or 1)
            if q:
                g = gcd(p, q)
                return p // g, q // g
    f = rat(value)
    return f.numerator, f.denominator


def read_scaled(rows: Iterable[Iterable]) -> Scaled:
    """Rows of input scalars read once into integers: the Scaled form of
    the rows coerced by rat, with the same scalars accepted and the same
    errors raised in the same (row-major) order.  An already Scaled value
    is returned as it is."""
    if isinstance(rows, Scaled):
        return rows
    pairs = [[_reduced(c) for c in row] for row in rows]
    L = lcm(*(q for row in pairs for _, q in row))
    return Scaled(L, [tuple(p * (L // q) for p, q in row) for row in pairs])


def read_json_rows(data: dict, key: str) -> Scaled:
    """read_scaled of data[key], a JSON value that must be an array of
    arrays (a string or an object would iterate as a row of scalars)."""
    rows = data[key]
    if type(rows) is not list or any(type(row) is not list for row in rows):
        raise ValueError(f'"{key}" must be an array of arrays of scalars')
    return read_scaled(rows)


def point_strs(p: Sequence[Fraction]) -> list:
    return [rat_str(v) for v in p]
