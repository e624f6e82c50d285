"""Abstract simplicial complexes.

Simplices are sorted tuples of integer vertex ids.  A complex is given by
simplices that generate it; its maximal ones (facets) and its vertices are
found once, on first use, so a caller that reads only the given simplices
(the Z2 index) never lists the faces.  The module holds no geometry and
no arithmetic: it imports neither `fractions` nor `tverlab.rationals`.
"""
from __future__ import annotations

import functools
import itertools
from typing import Iterable, Tuple

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
    use, and `dim` is that of the longest given simplex.  Complexes
    compare by identity."""

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
