"""Abstract simplicial complexes.

Simplices are sorted tuples of integer vertex ids.  A complex is given by
simplices that generate it; its maximal ones (facets) and its vertices are
found once, on first use, so a caller that reads only the given simplices
(the Z2 index) never lists the faces.  The one piece of geometry is the
exact center of the standard m-simplex, whose vertices are the unit
vectors of R^{m+1}.
"""
from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from typing import Iterable, Tuple

from .rationals import Point

Simplex = Tuple[int, ...]


def simplex(vertices: Iterable[int]) -> Simplex:
    """Canonical form of a simplex: sorted distinct integer vertex ids."""
    vs = tuple(sorted(vertices))
    if not vs:
        raise ValueError("a simplex needs at least one vertex")
    if len(set(vs)) != len(vs):
        raise ValueError(f"repeated vertex in simplex {vs}")
    for v in vs:
        # exact ints pass on the type test alone; bools and other int
        # subclasses reach the isinstance test after it
        if type(v) is not int and (not isinstance(v, int) or isinstance(v, bool)):
            raise ValueError("vertex ids must be integers")
    return vs


class SimplicialComplex:
    """A finite abstract simplicial complex, given by its facets.

    It keeps the given simplices, in canonical form, as `simplices`; its
    maximal ones (`facets`) and its sorted `vertices` are found on first
    use, and `dim` is that of the longest given simplex."""

    def __init__(self, facets: Iterable[Iterable[int]]):
        self.simplices = {simplex(f) for f in facets}
        if not self.simplices:
            raise ValueError("a complex needs at least one simplex")

    @functools.cached_property
    def facets(self) -> frozenset:
        proper = {
            face
            for s in self.simplices
            for k in range(1, len(s))
            for face in itertools.combinations(s, k)
        }
        return frozenset(self.simplices - proper)

    @functools.cached_property
    def vertices(self) -> Tuple[int, ...]:
        return tuple(sorted(set().union(*self.simplices)))

    @property
    def dim(self) -> int:
        return max(map(len, self.simplices)) - 1

    def __eq__(self, other):
        return isinstance(other, SimplicialComplex) and self.facets == other.facets

    def __hash__(self):
        return hash(self.facets)

    def __repr__(self):
        return (
            f"SimplicialComplex(dim={self.dim}, "
            f"vertices={len(self.vertices)}, facets={len(self.facets)})"
        )


def standard_center(m: int) -> Point:
    """Barycenter of the standard m-simplex: (1/(m+1), ..., 1/(m+1))."""
    return tuple([Fraction(1, m + 1)] * (m + 1))
