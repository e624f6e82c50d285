"""Exact rational scalars and their text form.

Every coordinate, weight, and LP value this package returns is a
`fractions.Fraction` (arbitrary precision, always reduced, positive
denominator); the LP tableau and its certificate checks, the depth
recursion and tilts, the partition search and certificate checks, the
isolation sums and the covering kernel compute inside on integers scaled
from them, and the LP kernel's certificates are integers.  Integer rows
over one common denominator are eliminated by one fraction-free step,
`bareiss_pivot`: the LP tableau pivots through it by Bland's rule, and
`bareiss_eliminate`, the one fraction-free Gauss-Jordan, by column order
for the points' affine dependency and the inverse held by the general
simplex body `cover.HPolytopeBody`, which no cover uses.
`read_scaled` is the one way from scalars to integers over one common
denominator: it reads input scalars (ints, Fractions, or strings `rat`
reads) and the Fractions of a certificate alike, and builds no Fraction
for an int or a plain ``"p"`` or ``"p/q"`` string.  Serialized form is
the string ``"p/q"``, which `rat_str`, the JSON encoder's hook in
`tverlab.cli`, writes for every Fraction a record holds.  `Frozen` is the
base of the two value classes that keep more than their fields
(`depth.PointConfig`, `cover.HPolytopeBody`); the package's other records
are `NamedTuple`s.
"""
from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterable, List, NamedTuple, Tuple

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
    """Serialize a Fraction as ``"p/q"`` (denominator always written);
    TypeError for a value that is not an exact rational."""
    f = rat(value)
    return f"{f.numerator}/{f.denominator}"


def bareiss_pivot(rows: List[List[int]], i: int, j: int, D: int) -> int:
    """One fraction-free pivot (Bareiss 1968, as in Avis's lrs) on
    rows[i][j] != 0, for integer rows over the common denominator D (the
    last pivot, 1 at the start): row i is kept, every other row r becomes
    (p*r - r[j]*row_i) // D, each division exact, and the new denominator
    p = rows[i][j] is returned.  Over p, row i is then the pivot row
    divided by its pivot and the others are eliminated, as in Gauss-Jordan.
    Rows are replaced in the list, not changed in place."""
    head = rows[i]
    p = head[j]
    for r, row in enumerate(rows):
        f = row[j]
        if r != i and (f or p != D):
            rows[r] = [(p * a - f * b) // D for a, b in zip(row, head)]
    return p


def bareiss_eliminate(rows: List[List[int]], ncols: int) -> Tuple[int, Dict[int, int]]:
    """Fraction-free Gauss-Jordan over columns 0..ncols-1: per column, one
    `bareiss_pivot` on the first row holding no pivot yet with a nonzero
    entry there.  Returns the last pivot D (1 if none) and {column: its
    pivot row}; rows holding no pivot end 0 on those columns."""
    D, pivots = 1, {}
    for j in range(ncols):
        i = next((i for i, row in enumerate(rows) if row[j] and i not in pivots.values()), None)
        if i is not None:
            D = bareiss_pivot(rows, i, j, D)
            pivots[j] = i
    return D, pivots


class Frozen:
    """A value whose fields, named in `_fields`, its __init__ sets once
    (through `vars(self)`), or a `functools.cached_property` derives on
    first read: ==, hash and repr read those fields only, so whatever else
    the instance keeps is ignored, and assigning or deleting an attribute
    raises AttributeError."""

    _fields: Tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


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
