"""Abstract simplicial complexes, barycentric subdivision, and rational
piecewise-linear maps.

Simplices are sorted tuples of integer vertex ids.  A complex is given by
its maximal simplices (facets); its faces are indexed by dimension once,
when it is built.  Geometry is exact: realizations assign rational points,
the standard m-simplex lives on the unit coordinate vectors of R^{m+1},
and barycenters are exact averages.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, List, Sequence, Tuple

from .exactlp import VPolytope
from .rationals import Point, rat, rat_str

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


class SimplicialComplex:
    """A finite abstract simplicial complex, given by its facets."""

    def __init__(self, facets: Iterable[Iterable[int]]):
        sims = {simplex(f) for f in facets}
        if not sims:
            raise ValueError("a complex needs at least one simplex")
        proper = {
            face
            for s in sims
            for k in range(1, len(s))
            for face in itertools.combinations(s, k)
        }
        self.facets: frozenset = frozenset(sims - proper)
        self._face_set = proper | self.facets
        self._faces_by_dim: Dict[int, List[Simplex]] = {}
        for s in sorted(self._face_set):
            self._faces_by_dim.setdefault(len(s) - 1, []).append(s)
        self.dim: int = max(self._faces_by_dim)
        self.vertices: Tuple[int, ...] = tuple(
            v for (v,) in self._faces_by_dim[0]
        )

    def faces(self) -> List[Simplex]:
        """All nonempty faces, sorted by (dimension, lexicographic)."""
        return [s for k in range(self.dim + 1) for s in self._faces_by_dim[k]]

    def faces_of_dim(self, k: int) -> List[Simplex]:
        return list(self._faces_by_dim.get(k, ()))

    def has_face(self, s: Iterable[int]) -> bool:
        t = tuple(sorted(set(s)))
        return not t or t in self._face_set

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

    def to_json(self) -> str:
        return json.dumps(
            {"maximal_simplices": sorted([list(f) for f in self.facets])},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "SimplicialComplex":
        data = json.loads(text)
        return cls(data["maximal_simplices"])


def full_simplex(m: int) -> SimplicialComplex:
    """The solid m-simplex on vertices 0..m."""
    if m < 0:
        raise ValueError("dimension must be nonnegative")
    return SimplicialComplex([tuple(range(m + 1))])


def faces_of_simplex(m: int, dim: int) -> List[Simplex]:
    """All dim-faces of the m-simplex, lexicographic."""
    if dim < 0 or dim > m:
        raise ValueError(f"no {dim}-faces in a {m}-simplex")
    return [tuple(c) for c in itertools.combinations(range(m + 1), dim + 1)]


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


# ---------------------------------------------------------------------------
# exact geometry
# ---------------------------------------------------------------------------

@dataclass
class Realization:
    """Exact rational coordinates for the vertices of a complex."""

    ambient_dim: int
    points: Dict[int, Point] = field(default_factory=dict)

    def point(self, v: int) -> Point:
        return self.points[v]

    def to_json(self) -> str:
        return json.dumps(
            {
                "ambient_dim": self.ambient_dim,
                "points": {
                    str(v): [rat_str(c) for c in p]
                    for v, p in sorted(self.points.items())
                },
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "Realization":
        data = json.loads(text)
        return cls(
            data["ambient_dim"],
            {int(v): tuple(rat(c) for c in p) for v, p in data["points"].items()},
        )


def barycenter(points: Sequence[Point]) -> Point:
    if not points:
        raise ValueError("barycenter of nothing")
    n = len(points)
    return tuple(sum(p[i] for p in points) / n for i in range(len(points[0])))


def realize_standard(m: int) -> Realization:
    """Vertices 0..m on the unit coordinate vectors of R^{m+1}."""
    pts = {}
    for i in range(m + 1):
        e = [Fraction(0)] * (m + 1)
        e[i] = Fraction(1)
        pts[i] = tuple(e)
    return Realization(m + 1, pts)


def standard_center(m: int) -> Point:
    """Barycenter of the standard m-simplex: (1/(m+1), ..., 1/(m+1))."""
    return tuple([Fraction(1, m + 1)] * (m + 1))


def realize_subdivision(bc: BarycentricComplex, base: Realization) -> Realization:
    """Each subdivision vertex sits at the exact barycenter of its face."""
    pts = {}
    for v, f in bc.face_of_vertex.items():
        pts[v] = barycenter([base.point(u) for u in f])
    return Realization(base.ambient_dim, pts)


# ---------------------------------------------------------------------------
# piecewise-linear maps on a subdivision
# ---------------------------------------------------------------------------

@dataclass
class PLMapSpec:
    """A piecewise-linear map on the barycentric subdivision of a base
    complex, given by exact images of the subdivision vertices and extended
    affinely on each chain simplex."""

    source: BarycentricComplex
    source_points: Realization
    vertex_images: Dict[int, Point]

    def __post_init__(self):
        dims = {len(p) for p in self.vertex_images.values()}
        if len(dims) != 1:
            raise ValueError("vertex images must share one ambient dimension")
        (self.image_dim,) = dims
        missing = set(self.source.complex.vertices) - set(self.vertex_images)
        if missing:
            raise ValueError(f"no image for subdivision vertices {sorted(missing)}")


def pl_image_of_face(spec: PLMapSpec, face: Iterable[int]) -> List[VPolytope]:
    """The image of a closed base face as a union of V-polytopes.

    The subdivision of the face consists of its maximal chains; the map is
    affine on each, so each chain contributes the hull of its vertex
    images.  No union normalization is attempted: a caller asks its
    questions of each piece (the isolation check needs only the vertex
    images, and reads them from the map directly).
    """
    f = simplex(face)
    if not spec.source.base.has_face(f):
        raise ValueError(f"{f} is not a face of the base complex")
    polys = {}
    for perm in itertools.permutations(f):
        pts = []
        for k in range(1, len(perm) + 1):
            v = spec.source.vertex_of_face[tuple(sorted(perm[:k]))]
            pts.append(spec.vertex_images[v])
        key = frozenset(pts)
        if key not in polys:
            polys[key] = tuple(sorted(set(pts)))
    ordered = sorted(polys.values())
    return [VPolytope(spec.image_dim, verts) for verts in ordered]


def pl_value(spec: PLMapSpec, p: Sequence) -> Point:
    """Evaluate the map at an exact point of the standard base simplex.

    Requires the base to be the full m-simplex realized standardly: the
    chain simplex containing p is read off the sorted order of its
    coordinates, and the barycentric weights along the chain are exact.
    """
    base = spec.source.base
    m = base.dim
    if base.facets != frozenset({tuple(range(m + 1))}):
        raise ValueError("pl_value needs the solid standard simplex as base")
    x = [rat(c) for c in p]
    if len(x) != m + 1:
        raise ValueError("point must have m+1 barycentric coordinates")
    if any(c < 0 for c in x) or sum(x) != 1:
        raise ValueError("point must lie in the standard simplex")
    order = sorted(range(m + 1), key=lambda i: (-x[i], i))
    image = [Fraction(0)] * spec.image_dim
    prefix: List[int] = []
    for rank, idx in enumerate(order):
        prefix.append(idx)
        nxt = x[order[rank + 1]] if rank + 1 <= m else Fraction(0)
        w = (rank + 1) * (x[idx] - nxt)
        if w == 0:
            continue
        v = spec.source.vertex_of_face[tuple(sorted(prefix))]
        img = spec.vertex_images[v]
        for i in range(spec.image_dim):
            image[i] += w * img[i]
    return tuple(image)


def squaring_map(x: Sequence) -> Point:
    """(x_0, ..., x_m) on the unit sphere -> (x_0^2, ..., x_m^2) in the
    standard simplex.  Identifies antipodes; exact on rational inputs."""
    xs = [rat(c) for c in x]
    if sum(c * c for c in xs) != 1:
        raise ValueError("input must lie on the unit sphere exactly")
    return tuple(c * c for c in xs)
