"""Exact rational scalars and their text form.

Every coordinate, weight, and LP value this package takes or returns is
a `fractions.Fraction` (arbitrary precision, always reduced, positive
denominator); the LP tableau and its certificate checks, the depth
recursion and tilts, the partition screen and certificate checks, the
isolation sums and the covering kernel compute inside on integers scaled
from them.  Serialized form is the string ``"p/q"``.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import List, Sequence, Tuple

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


def point_strs(p: Sequence[Fraction]) -> list:
    return [rat_str(v) for v in p]
