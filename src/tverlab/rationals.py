"""Exact rational scalars and their text form.

Every coordinate, weight, and LP value this package returns is a
`fractions.Fraction` (arbitrary precision, always reduced, positive
denominator); the LP tableau and its certificate checks, the depth
recursion and tilts, the partition search and certificate checks and the
covering kernel compute inside on integers scaled from them, the cone
map's table is integer rows, and the LP kernel's certificates are
integers.  Integer rows
over one common denominator are eliminated by one fraction-free step,
`bareiss_pivot`: the LP tableau pivots through it by Bland's rule, and
`bareiss_eliminate`, the one fraction-free Gauss-Jordan, by column order
for the points' affine dependency and the rank check of the general
simplex body `cover.HPolytopeBody`, which no cover uses.
`read_scaled` is the one way from scalars to integers over one common
denominator: it reads input scalars (ints, Fractions, or strings `rat`
reads) and the Fractions of a certificate that a public check is handed
alike (a producer checks the integers it made), and builds no Fraction
for an int or a plain ``"p"`` or ``"p/q"`` string.  Lists of ``"p/q"``
strings, the shape an input file gives, are read in one pass: one regex
over the joined strings and one map of int, falling back to the
scalar-by-scalar read for any other rows, so that `rat` names the same
first bad scalar.  `rat` refuses a
decimal exponent past 4300 in magnitude, int's digit limit, before it
builds the power of 10.  Serialized form is
the string ``"p/q"``, which `rat_str`, the JSON encoder's hook in
`tverlab.cli`, writes for every Fraction a record holds.  `Frozen` is the
base of the two value classes: `depth.PointConfig`, which also keeps its
points' integers, and `cover.HPolytopeBody`, which keeps its fields
alone; the package's other records are `NamedTuple`s.
"""
from __future__ import annotations

import re
import sys
from fractions import Fraction
from itertools import chain, islice
from math import gcd, lcm
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

Point = Tuple[Fraction, ...]

# a string's trailing decimal exponent, which Fraction raises 10 to; rat
# refuses one past 4300, the digit limit int() puts on a digit string
_EXPONENT = re.compile(r"(?<=[\d.])[eE]([-+]?\d+(?:_\d+)*)\s*\Z")
# the runs of digits (underscores between) that int() reads in a string
_DIGIT_RUNS = re.compile(r"\d+(?:_\d+)*").findall


def _shown(value) -> str:
    """repr(value) cut to 60 characters: a refused value may be huge."""
    text = repr(value)
    return text if len(text) <= 60 else f"{text[:57]}..."


def rat(value) -> Fraction:
    """Coerce an int, string ``"p/q"`` (or ``"p"``), or Fraction to a
    Fraction; ValueError, naming the value, for a decimal exponent past
    4300 in magnitude or a run of digits past int's digit limit for str."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not rational scalars")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        limit = sys.get_int_max_str_digits()
        if limit and any(len(run) - run.count("_") > limit for run in _DIGIT_RUNS(value)):
            raise ValueError(f"Exceeds the limit ({limit} digits) for an integer in {_shown(value)}")
        exponent = _EXPONENT.search(value)
        if exponent and abs(int(exponent.group(1))) > 4300:
            raise ValueError(f"decimal exponent beyond 4300 in magnitude in {_shown(value)}")
        try:
            return Fraction(value.strip())
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {_shown(value)}") from None
        except ValueError as exc:  # Fraction's "Invalid literal" message holds the whole string
            raise ValueError(str(exc).replace(repr(value.strip()), _shown(value.strip()), 1)) from None
    raise TypeError(f"cannot interpret {_shown(value)} as an exact rational")


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
        if r == i:
            continue
        if f:
            rows[r] = [(p * a - f * b) // D for a, b in zip(row, head)]
        elif p != D:
            rows[r] = [p * a // D for a in row]
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
# the bulk form: "p/q" strings of _PLAIN's form, joined by ","
_PQ = "[+-]?[0-9]+/[0-9]+"
_BULK = re.compile(rf"(?:{_PQ},)*{_PQ}")
# int checks no digit limit on a string shorter than this
_UNCHECKED = sys.int_info.str_digits_check_threshold


def _reduced(value) -> Tuple[int, int]:
    """The numerator and denominator of rat(value), raising what it raises;
    an int, a Fraction, or a plain "p" or "p/q" string (ASCII digits, no
    spaces, q > 0) short enough that int checks no digit limit is read
    directly, every other value through rat."""
    if type(value) is int:
        return value, 1
    if type(value) is Fraction:
        return value.numerator, value.denominator
    if type(value) is str:
        m = _PLAIN.fullmatch(value)
        if m and len(value) < _UNCHECKED:
            p, q = m.groups()
            p, q = int(p), int(q or 1)
            if q:
                g = gcd(p, q)
                return p // g, q // g
    f = rat(value)
    return f.numerator, f.denominator


def _read_bulk(rows: list) -> Optional[Scaled]:
    """read_scaled of rows that are lists of "p/q" strings (ASCII digits, an
    optional sign, no spaces), each shorter than _UNCHECKED, read in one
    pass; None for any other rows, a zero denominator among them.  One
    regex checks the joined strings and one map of int reads every p and
    q.  Scaled by the lcm L of the unreduced denominators, then divided by
    gcd(L, every scaled p), the rows are what reducing each p/q first
    gives."""
    if {*map(type, rows)} != {list}:
        return None
    flat = [*chain.from_iterable(rows)]
    try:
        text = ",".join(flat)
    except TypeError:  # a scalar that is not a string
        return None
    if (text.count(",") != len(flat) - 1  # a string held the separator
            or len(text) >= _UNCHECKED and max(map(len, flat)) >= _UNCHECKED
            or not _BULK.fullmatch(text)):
        return None
    ints = [*map(int, text.replace("/", ",").split(","))]
    dens = ints[1::2]
    if 0 in dens:  # rat names the first zero denominator
        return None
    L = lcm(*dens)
    scaled = [p * (L // q) for p, q in zip(ints[::2], dens)]
    g = gcd(L, *scaled)
    it = iter(scaled) if g == 1 else (v // g for v in scaled)
    return Scaled(L // g, [tuple(islice(it, len(row))) for row in rows])


def read_scaled(rows: Iterable[Iterable]) -> Scaled:
    """Rows of input scalars read once into integers: the Scaled form of
    the rows coerced by rat, with the same scalars accepted and the same
    errors raised in the same (row-major) order.  A list of lists, the
    shape JSON gives, of "p/q" strings in the bulk form is read in one pass
    (`_read_bulk`); any other rows, Fractions among them, are read scalar
    by scalar.  An already Scaled value is returned as it is."""
    if isinstance(rows, Scaled):
        return rows
    if type(rows) is list and rows and type(rows[0]) is list:
        read = _read_bulk(rows)
        if read is not None:
            return read
    pairs = [[_reduced(c) for c in row] for row in rows]
    L = lcm(*(q for row in pairs for _, q in row))
    return Scaled(L, [tuple(p * (L // q) for p, q in row) for row in pairs])
