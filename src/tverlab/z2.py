"""Free simplicial involutions and their mod-2 cohomological index.

The index of a free Z/2-complex is computed on the quotient: the double
cover X -> X/Z2 is classified by a degree-1 mod-2 cocycle w, and the index
is the largest n with w^n (cup power) not a coboundary, capped by dim X.

Quotients are always taken after one barycentric subdivision: for a free
simplicial involution every simplex is disjoint from its image, which
makes chains rigid enough that the subdivided quotient is a genuine
simplicial model of the orbit space (two chains with the same orbit labels
differ by the global deck swap).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Sequence

from .complexes import SimplicialComplex, Simplex, barycentric_subdivision


class FixedSimplexError(ValueError):
    """The involution fixes a simplex setwise; the orbit space is not free
    and the index is infinite."""


class Z2Complex:
    """A simplicial complex with a simplicial involution on its vertices."""

    def __init__(self, complex: SimplicialComplex, involution: Dict[int, int]):
        self.complex = complex
        self.involution = dict(involution)
        verts = set(complex.vertices)
        if set(self.involution) != verts or set(self.involution.values()) != verts:
            raise ValueError("involution must be a permutation of the vertices")
        for v in verts:
            if self.involution[self.involution[v]] != v:
                raise ValueError("involution must have order two")
        for f in complex.facets:
            if not complex.has_face(self._image(f)):
                raise ValueError(f"involution does not map simplex {f} to a simplex")

    def _image(self, s: Simplex) -> Simplex:
        return tuple(sorted(self.involution[v] for v in s))

    def is_free(self) -> bool:
        # A setwise-fixed simplex either fixes a vertex or contains a pair
        # {v, g(v)}, which would itself be a fixed edge.
        for v in self.complex.vertices:
            g = self.involution[v]
            if g == v or self.complex.has_face((v, g)):
                return False
        return True


@dataclass(frozen=True)
class F2Cochain:
    """A mod-2 cochain, stored by its support."""

    degree: int
    support: FrozenSet[Simplex]

    def __bool__(self) -> bool:
        return bool(self.support)

    def __xor__(self, other: "F2Cochain") -> "F2Cochain":
        if self.degree != other.degree:
            raise ValueError("cochain degrees differ")
        return F2Cochain(self.degree, self.support ^ other.support)

    def value(self, s: Simplex) -> int:
        return 1 if tuple(s) in self.support else 0


class QuotientData:
    """The subdivided double cover, its involution, and the quotient."""

    def __init__(
        self,
        cover: SimplicialComplex,
        cover_involution: Dict[int, int],
        quotient_complex: SimplicialComplex,
        orbit_of: Dict[int, int],
        section: Dict[int, int],
    ):
        self.cover = cover
        self.cover_involution = cover_involution
        self.complex = quotient_complex
        self.orbit_of = orbit_of
        self.section = section

    def with_section(self, section: Dict[int, int]) -> "QuotientData":
        if set(section) != set(self.section):
            raise ValueError("section must cover every orbit")
        for orbit, rep in section.items():
            if self.orbit_of.get(rep) != orbit:
                raise ValueError(f"vertex {rep} does not lie over orbit {orbit}")
        return QuotientData(
            self.cover, self.cover_involution, self.complex, self.orbit_of, section
        )


def quotient(X: Z2Complex) -> QuotientData:
    """Quotient by the free involution, after one barycentric subdivision."""
    if not X.is_free():
        raise FixedSimplexError("fixed simplex found: the action is not free")
    bc = barycentric_subdivision(X.complex)
    g_faces = {
        v: bc.vertex_of_face[X._image(f)] for v, f in bc.face_of_vertex.items()
    }
    orbit_of: Dict[int, int] = {}
    section: Dict[int, int] = {}
    nxt = 0
    for v in bc.complex.vertices:
        if v in orbit_of:
            continue
        w = g_faces[v]
        if w == v:
            raise FixedSimplexError("fixed simplex found: the action is not free")
        orbit_of[v] = nxt
        orbit_of[w] = nxt
        section[nxt] = v
        nxt += 1
    facets = set()
    for f in bc.complex.facets:
        img = tuple(sorted(orbit_of[v] for v in f))
        if len(set(img)) != len(f):
            raise FixedSimplexError("simplex collapses onto its own orbit")
        facets.add(img)
    Q = SimplicialComplex(facets)
    data = QuotientData(bc.complex, g_faces, Q, orbit_of, section)
    _check_double_cover(data)
    return data


def _check_double_cover(q: QuotientData) -> None:
    """Every quotient simplex must have exactly two (swapped) lifts."""
    for k in range(q.complex.dim + 1):
        up = len(q.cover.faces_of_dim(k))
        down = len(q.complex.faces_of_dim(k))
        if up != 2 * down:
            raise FixedSimplexError(
                f"quotient is not a double cover in dimension {k}"
            )


def characteristic_cocycle(q: QuotientData) -> F2Cochain:
    """The degree-1 cocycle classifying the double cover.

    An edge gets bit 1 when its lift starting at the section representative
    ends on the other sheet.  Independence of the section holds up to
    coboundary, which is all the cup powers see.
    """
    g = q.cover_involution
    support = set()
    for a, b in q.complex.faces_of_dim(1):
        va, vb = q.section[a], q.section[b]
        if q.cover.has_face((va, vb)):
            bit = 0
        else:
            if not q.cover.has_face((va, g[vb])):
                raise RuntimeError(f"edge ({a},{b}) has no lift at the section")
            bit = 1
        if bit:
            support.add((a, b) if a < b else (b, a))
    w = F2Cochain(1, frozenset(support))
    if coboundary(w, q.complex):
        raise RuntimeError("characteristic cochain is not a cocycle")
    return w


def coboundary(x: F2Cochain, K: SimplicialComplex) -> F2Cochain:
    """delta x, mod 2: parity of supported facets of each (degree+1)-simplex."""
    support = set()
    for s in K.faces_of_dim(x.degree + 1):
        parity = sum(
            1
            for drop in range(len(s))
            if (s[:drop] + s[drop + 1:]) in x.support
        )
        if parity % 2:
            support.add(s)
    return F2Cochain(x.degree + 1, frozenset(support))


def cup_power(w: F2Cochain, n: int, q: QuotientData) -> F2Cochain:
    """n-fold cup power of a degree-1 cochain, by the front/back face rule.

    On an n-simplex v_0 < ... < v_n the value is the product of the bits of
    the consecutive edges (v_i, v_{i+1}); n = 0 gives the unit 0-cochain.
    """
    if w.degree != 1:
        raise ValueError("cup_power expects a degree-1 cochain")
    if n < 0:
        raise ValueError("cup power must be nonnegative")
    K = q.complex
    if n == 0:
        return F2Cochain(0, frozenset((v,) for v in K.vertices))
    support = set()
    for s in K.faces_of_dim(n):
        if all(
            ((s[i], s[i + 1]) in w.support) for i in range(n)
        ):
            support.add(s)
    return F2Cochain(n, frozenset(support))


def is_coboundary(x: F2Cochain, q: QuotientData) -> bool:
    """Solve delta y = x over F_2 on the quotient complex."""
    K = q.complex
    if coboundary(x, K):
        raise ValueError("not a cocycle; coboundary query is meaningless")
    if not x.support:
        return True
    if x.degree == 0:
        return False  # a nonzero 0-cochain is never a coboundary here
    cols = K.faces_of_dim(x.degree - 1)
    col_bit = {c: 1 << i for i, c in enumerate(cols)}
    rhs_bit = 1 << len(cols)
    rows = []
    for s in K.faces_of_dim(x.degree):
        row = rhs_bit if s in x.support else 0
        for drop in range(len(s)):
            row ^= col_bit[s[:drop] + s[drop + 1:]]
        rows.append(row)
    return _gf2_solvable(rows, len(cols))


def _gf2_solvable(rows: Sequence[int], ncols: int) -> bool:
    """Is the F_2 system consistent?  Each row is an int bitset of its
    columns, with the right-hand side as bit `ncols`, above every column.

    Xor elimination keyed by each row's lowest set bit: a row that reduces
    to the right-hand-side bit alone reads 0 = 1.
    """
    rhs_bit = 1 << ncols
    pivots: Dict[int, int] = {}
    for row in rows:
        while row:
            low = row & -row
            if low == rhs_bit:
                return False
            if low not in pivots:
                pivots[low] = row
                break
            row ^= pivots[low]
    return True


def hind(X: Z2Complex) -> int:
    """Largest n <= dim X with the n-th cup power of the classifying cocycle
    not a coboundary.  Raises FixedSimplexError on a non-free action."""
    q = quotient(X)
    w = characteristic_cocycle(q)
    best = 0
    for n in range(1, X.complex.dim + 1):
        wn = cup_power(w, n, q)
        if wn.support and not is_coboundary(wn, q):
            best = n
    return best


def z2_disjoint_union(*parts: Z2Complex) -> Z2Complex:
    """Disjoint union with vertex relabeling, involutions side by side."""
    if not parts:
        raise ValueError("need at least one part")
    facets = []
    involution: Dict[int, int] = {}
    offset = 0
    for part in parts:
        relabel = {v: offset + i for i, v in enumerate(part.complex.vertices)}
        facets.extend(tuple(sorted(relabel[v] for v in f)) for f in part.complex.facets)
        for v, w in part.involution.items():
            involution[relabel[v]] = relabel[w]
        offset += len(part.complex.vertices)
    return Z2Complex(SimplicialComplex(facets), involution)


def disjoint_union_index(*parts: Z2Complex) -> int:
    """hind of the disjoint union; asserted equal to the max over the parts."""
    union = z2_disjoint_union(*parts)
    direct = hind(union)
    by_parts = max(hind(p) for p in parts)
    if direct != by_parts:
        raise RuntimeError(
            f"union index {direct} != max of part indices {by_parts}"
        )
    return direct


def cross_polytope_sphere(m: int) -> Z2Complex:
    """The m-sphere as the boundary of the (m+1)-dimensional cross-polytope,
    with the antipodal involution.

    Vertices 2i and 2i+1 are the +/- poles of axis i; simplices are the
    vertex sets avoiding antipodal pairs, so the facets pick one sign per
    axis."""
    if m < 0:
        raise ValueError("sphere dimension must be nonnegative")
    facets = []
    for signs in itertools.product((0, 1), repeat=m + 1):
        facets.append(tuple(sorted(2 * i + s for i, s in enumerate(signs))))
    involution = {}
    for i in range(m + 1):
        involution[2 * i] = 2 * i + 1
        involution[2 * i + 1] = 2 * i
    return Z2Complex(SimplicialComplex(facets), involution)


def subdivide_z2(X: Z2Complex) -> Z2Complex:
    """Barycentric subdivision with the induced involution on face barycenters."""
    bc = barycentric_subdivision(X.complex)
    involution = {
        v: bc.vertex_of_face[X._image(f)] for v, f in bc.face_of_vertex.items()
    }
    return Z2Complex(bc.complex, involution)
