"""Abstract simplicial complexes.

Simplices are sorted tuples of integer vertex ids.  A complex is given by
simplices that generate it and keeps them as given, as tuples; their
canonical form (`simplex` of each, which checks them) is found once, when
it is first read.  So a caller that reads only the given simplices (the
Z2 index, which checks them on its own bitmasks) sorts no tuple, and the
canonical form serves to name the first malformed simplex.  The module
holds no geometry and no arithmetic: it imports neither `fractions` nor
`tverlab.rationals`.
"""
from __future__ import annotations

import functools
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
        if type(v) is not int:
            raise ValueError("vertex ids must be integers")
    return vs


class SimplicialComplex:
    """A finite abstract simplicial complex, given by simplices that
    generate it.

    It keeps the given simplices, each as a tuple of its ids in the given
    order, as `given`.  Their canonical form `simplices`, the walk that
    raises on the first given simplex that `simplex` rejects, is found on
    first use.  Complexes compare by identity."""

    def __init__(self, facets: Iterable[Iterable[int]]):
        facets = list(facets)
        try:
            self.given = list(map(tuple, facets))
        except TypeError:  # an entry that does not iterate: the walk names the first fault
            self.given = facets
            self.simplices
        if not facets:
            raise ValueError("a complex needs at least one simplex")

    @functools.cached_property
    def simplices(self) -> set:
        return {simplex(f) for f in self.given}
