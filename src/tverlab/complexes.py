"""Abstract simplicial complexes and barycentric subdivision.

Simplices are sorted tuples of integer vertex ids.  A complex is given by
simplices that generate it; its maximal ones (facets) and its faces by
dimension are indexed once, on first use, so a caller that reads only the
given simplices (the Z2 index) never sorts the faces.  The one piece of
geometry is the exact center of the standard m-simplex, whose vertices are
the unit vectors of R^{m+1}.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Tuple

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
        if not isinstance(v, int) or isinstance(v, bool):
            raise ValueError("vertex ids must be integers")
    return vs


class _FaceIndex:
    """The sorted face index of a complex: its maximal simplices, every
    face, the faces of each dimension in lex order, its dimension and its
    vertices."""

    def __init__(self, sims: set):
        proper = {
            face
            for s in sims
            for k in range(1, len(s))
            for face in itertools.combinations(s, k)
        }
        self.facets = frozenset(sims - proper)
        self.face_set = proper | self.facets
        self.faces_by_dim: Dict[int, List[Simplex]] = {}
        for s in sorted(self.face_set):
            self.faces_by_dim.setdefault(len(s) - 1, []).append(s)
        self.dim = max(self.faces_by_dim)
        self.vertices = tuple(v for (v,) in self.faces_by_dim[0])


class SimplicialComplex:
    """A finite abstract simplicial complex, given by its facets.

    It keeps the given simplices, in canonical form, as `simplices`; the
    sorted face index (maximal facets, faces by dimension, `dim`,
    `vertices`) is built on first use."""

    def __init__(self, facets: Iterable[Iterable[int]]):
        self.simplices = {simplex(f) for f in facets}
        if not self.simplices:
            raise ValueError("a complex needs at least one simplex")

    @functools.cached_property
    def _index(self) -> _FaceIndex:
        return _FaceIndex(self.simplices)

    @property
    def facets(self) -> frozenset:
        return self._index.facets

    @property
    def dim(self) -> int:
        return self._index.dim

    @property
    def vertices(self) -> Tuple[int, ...]:
        return self._index.vertices

    def faces(self) -> List[Simplex]:
        """All nonempty faces, sorted by (dimension, lexicographic)."""
        by_dim = self._index.faces_by_dim
        return [s for k in range(self.dim + 1) for s in by_dim[k]]

    def faces_of_dim(self, k: int) -> List[Simplex]:
        return list(self._index.faces_by_dim.get(k, ()))

    def has_face(self, s: Iterable[int]) -> bool:
        t = tuple(sorted(set(s)))
        return not t or t in self._index.face_set

    def euler_characteristic(self) -> int:
        return sum((-1) ** (len(s) - 1) for s in self.faces())

    def connected_components(self) -> int:
        parent = {v: v for v in self.vertices}

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for f in self.facets:
            for a, b in zip(f, f[1:]):
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[ra] = rb
        return len({find(v) for v in self.vertices})

    def __eq__(self, other):
        return isinstance(other, SimplicialComplex) and self.facets == other.facets

    def __hash__(self):
        return hash(self.facets)

    def __repr__(self):
        return (
            f"SimplicialComplex(dim={self.dim}, "
            f"vertices={len(self.vertices)}, facets={len(self.facets)})"
        )


def full_simplex(m: int) -> SimplicialComplex:
    """The solid m-simplex on vertices 0..m."""
    if m < 0:
        raise ValueError("dimension must be nonnegative")
    return SimplicialComplex([tuple(range(m + 1))])


def skeleton(K: SimplicialComplex, k: int) -> SimplicialComplex:
    """The k-skeleton: all faces of dimension <= k."""
    if k < 0:
        raise ValueError("skeleton dimension must be nonnegative")
    facets = set()
    for f in K.facets:
        if len(f) <= k + 1:
            facets.add(f)
        else:
            facets.update(itertools.combinations(f, k + 1))
    return SimplicialComplex(facets)


@dataclass
class BarycentricComplex:
    """Barycentric subdivision: one vertex per face of the base complex,
    simplices from chains of faces ordered by inclusion."""

    base: SimplicialComplex
    complex: SimplicialComplex
    face_of_vertex: Dict[int, Simplex]
    vertex_of_face: Dict[Simplex, int]

    def chain_of(self, sd_simplex: Simplex) -> Tuple[Simplex, ...]:
        chain = sorted((self.face_of_vertex[v] for v in sd_simplex), key=len)
        for a, b in zip(chain, chain[1:]):
            if not set(a) < set(b):
                raise ValueError(f"{sd_simplex} is not a chain simplex")
        return tuple(chain)


def barycentric_subdivision(K: SimplicialComplex) -> BarycentricComplex:
    faces = K.faces()
    vertex_of_face = {f: i for i, f in enumerate(faces)}
    face_of_vertex = {i: f for f, i in vertex_of_face.items()}
    facets = set()
    for f in K.facets:
        for perm in itertools.permutations(f):
            chain = []
            for k in range(1, len(perm) + 1):
                chain.append(vertex_of_face[tuple(sorted(perm[:k]))])
            facets.add(tuple(sorted(chain)))
    return BarycentricComplex(
        base=K,
        complex=SimplicialComplex(facets),
        face_of_vertex=face_of_vertex,
        vertex_of_face=vertex_of_face,
    )


def standard_center(m: int) -> Point:
    """Barycenter of the standard m-simplex: (1/(m+1), ..., 1/(m+1))."""
    return tuple([Fraction(1, m + 1)] * (m + 1))
