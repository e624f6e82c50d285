"""Free simplicial involutions and their mod-2 homological index.

The index of a free Z/2-complex (X, g) is Yang's homological index: the
largest n <= dim X with chains c_0, ..., c_n in C_*(X; F_2) such that
eps(c_0) = 1 and d c_k = (1 + g) c_{k-1} for k = 1..n (Yang 1954;
Matousek, "Using the Borsuk-Ulam Theorem", ch. 5).  It equals the largest
n with w^n != 0, for w the class of the double cover X -> X/Z2.  All of
these chain conditions together form one linear system over F_2 on the
faces of X, solved by a single elimination in order of dimension.
"""
from __future__ import annotations

import itertools
from typing import Dict, Optional, Sequence

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


def _gf2_solvable(rows: Sequence[int], ncols: int) -> Optional[int]:
    """Eliminate an F_2 system row by row, in the given order.  Each row is
    an int bitset of its columns, with the right-hand side as bit `ncols`,
    above every column.

    Returns the index of the first row that makes the rows before it and
    itself inconsistent, or None when the whole system is solvable.  Xor
    elimination is keyed by each row's lowest set bit: a row that reduces
    to the right-hand-side bit alone reads 0 = 1.
    """
    rhs_bit = 1 << ncols
    pivots: Dict[int, int] = {}
    for i, row in enumerate(rows):
        while row:
            low = row & -row
            if low == rhs_bit:
                return i
            if low not in pivots:
                pivots[low] = row
                break
            row ^= pivots[low]
    return None


def hind(X: Z2Complex) -> int:
    """Yang's homological index of a free Z/2-complex: the largest n <= dim X
    with chains c_0..c_n, eps(c_0) = 1 and d c_k = (1 + g) c_{k-1}.

    One F_2 system, one column per face of X.  Its rows are the augmentation
    row, then, by dimension, the row of each face f below the top dimension:
    the coefficient of f in d c_{k} + (1 + g) c_{k-1}, k - 1 = dim f.  That
    row reads only columns of dimension k - 1 and k, so the rows up to
    dimension n - 1 are exactly the system for n.  The index is the
    dimension of the face whose row first makes the system inconsistent.
    Raises FixedSimplexError on a non-free action."""
    if not X.is_free():
        raise FixedSimplexError("fixed simplex found: the action is not free")
    K = X.complex
    faces = K.faces()
    # Higher faces get the lower bits, so each row pivots on a coface.
    col = {f: 1 << i for i, f in enumerate(reversed(faces))}
    cofaces = dict.fromkeys(faces, 0)
    for s in faces:
        if len(s) > 1:
            for drop in range(len(s)):
                cofaces[s[:drop] + s[drop + 1:]] ^= col[s]
    row_faces = [f for f in faces if len(f) <= K.dim]
    rows = [sum(col[(v,)] for v in K.vertices) | (1 << len(faces))]
    rows.extend(col[f] ^ col[X._image(f)] ^ cofaces[f] for f in row_faces)
    first = _gf2_solvable(rows, len(faces))
    return K.dim if first is None else len(row_faces[first - 1]) - 1


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
