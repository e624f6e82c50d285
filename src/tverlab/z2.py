"""Free simplicial involutions and their mod-2 homological index.

The index of a free Z/2-complex (X, g) is Yang's homological index: the
largest n <= dim X with chains c_0, ..., c_n in C_*(X; F_2) such that
eps(c_0) = 1 and d c_k = (1 + g) c_{k-1} for k = 1..n (Yang 1954;
Matousek, "Using the Borsuk-Ulam Theorem", ch. 5).  It equals the largest
n with w^n != 0, for w the class of the double cover X -> X/Z2.  All of
these chain conditions together form one linear system over F_2 on the
faces of X, solved by a single elimination in order of dimension.

A Z2Complex numbers its faces once, as bitmasks, when it is built.  Its
vertices are relabelled so that each orbit {v, g v} is two adjacent bits;
g then acts on a face's mask as one fixed bit swap, and no image is
sorted.  Each dimension's faces are numbered with bits local to that
dimension's band; `hind` stacks the bands, vertices lowest, and pivots
each row on its highest bit, so a row stays an int as wide as the bands
it touches.  The facet-image check, `is_free` and `hind` all read that
one table, and none of them builds the complex's sorted face index.
"""
from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence

from .complexes import SimplicialComplex, Simplex, barycentric_subdivision


class FixedSimplexError(ValueError):
    """The involution fixes a simplex setwise; the orbit space is not free
    and the index is infinite."""


class Z2Complex:
    """A simplicial complex with a simplicial involution on its vertices.

    The face table: `_bit` maps each vertex to its bit, each orbit taking
    two adjacent bits (the lower one in `_lo`) and a vertex that g fixes
    one bit (in `_fixed`).  `_faces[k]` lists the masks of the k-faces in
    ascending order.  `_columns` maps each mask to its bit in its
    dimension's band, len(_faces[k]) bits wide, the first mask taking the
    highest; `_cofaces` maps it to the band-local bits of its
    codimension-one cofaces in the band above.  `hind` shifts the bands
    into place."""

    def __init__(self, complex: SimplicialComplex, involution: Dict[int, int]):
        self.complex = complex
        self.involution = dict(involution)
        # Before the set comparisons: an unhashable id would fail in them,
        # and a float or bool equal to a vertex id would pass them.
        for v, w in self.involution.items():
            if type(v) is not int or type(w) is not int:
                raise ValueError("involution vertex ids must be integers")
        verts = set().union(*complex.simplices)
        if set(self.involution) != verts or set(self.involution.values()) != verts:
            raise ValueError("involution must be a permutation of the vertices")
        for v in verts:
            if self.involution[self.involution[v]] != v:
                raise ValueError("involution must have order two")
        self._relabel(verts)
        given: Dict[int, List[int]] = {}
        for s in complex.simplices:
            given.setdefault(len(s), []).append(self._mask(s))
        self._number_faces(given)
        columns = self._columns
        if any(self._swap(m) not in columns for ms in given.values() for m in ms):
            # Name the first maximal simplex whose image is missing.
            f = next(
                f for f in complex.facets if self._swap(self._mask(f)) not in columns
            )
            raise ValueError(f"involution does not map simplex {f} to a simplex")

    def _relabel(self, verts) -> None:
        """One bit per vertex, the smallest vertex getting the highest bit,
        each vertex followed by its image."""
        g = self.involution
        bit: Dict[int, int] = {}
        lo = fixed = 0
        top = 1 << len(verts)
        for v in sorted(verts):
            if v in bit:
                continue
            top >>= 1
            bit[v] = top
            if g[v] == v:
                fixed |= top
            else:
                top >>= 1
                bit[g[v]] = top
                lo |= top
        self._bit, self._lo, self._fixed = bit, lo, fixed

    def _number_faces(self, given: Dict[int, List[int]]) -> None:
        """Walk the faces top-down from the given simplices' masks (keyed
        by size), recording each level's cofaces on the way.  A level is
        complete before it is numbered, so its faces get band-local bits:
        the smallest mask the band's highest bit, the largest bit 0 (see
        `hind`).  A face's coface bits are those of the band above."""
        size = max(given)
        faces: List[List[int]] = []
        columns: Dict[int, int] = {}
        cofaces: Dict[int, int] = {}
        level = dict.fromkeys(given[size], 0)
        while size:
            masks = sorted(level)
            faces.append(masks)
            cofaces.update(level)
            size -= 1
            level = dict.fromkeys(given.get(size, ()), 0)
            col = 1 << len(masks)
            for m in masks:
                col >>= 1
                columns[m] = col
                rest = m if size else 0
                while rest:
                    low = rest & -rest
                    sub = m ^ low
                    level[sub] = level.get(sub, 0) | col
                    rest ^= low
        faces.reverse()
        self._faces, self._columns, self._cofaces = faces, columns, cofaces

    def _mask(self, s: Simplex) -> int:
        return sum(map(self._bit.__getitem__, s))

    def _swap(self, m: int) -> int:
        lo = self._lo
        return ((m & lo) << 1) | ((m >> 1) & lo) | (m & self._fixed)

    def _image(self, s: Simplex) -> Simplex:
        return tuple(sorted(self.involution[v] for v in s))

    def is_free(self) -> bool:
        # A setwise-fixed simplex either fixes a vertex or contains a pair
        # {v, g(v)}, which would itself be a fixed edge.
        if self._fixed:
            return False
        lo = self._lo
        while lo:
            b = lo & -lo
            if b | b << 1 in self._columns:  # the edge {v, g v}
                return False
            lo ^= b
        return True


def _gf2_solvable(rows: Sequence[int], ncols: int) -> Optional[int]:
    """Eliminate an F_2 system row by row, in the given order.  Each row is
    an int bitset of its columns, with the right-hand side as bit `ncols`,
    above every column.

    Returns the index of the first row that makes the rows before it and
    itself inconsistent, or None when the whole system is solvable.  Xor
    elimination is keyed by each row's highest column bit, found with
    `bit_length`; the right-hand side rides below the columns, as bit 0,
    so a row that reduces to it alone (the int 1) reads 0 = 1.  A row
    whose columns are all low bits stays a small int through every step.
    """
    cols = (1 << ncols) - 1
    pivots = [0] * (ncols + 2)
    for i, row in enumerate(rows):
        row = (row & cols) << 1 | row >> ncols
        while row > 1:
            top = row.bit_length()
            pivot = pivots[top]
            if not pivot:
                pivots[top] = row
                break
            row ^= pivot
        else:
            if row:
                return i
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

    Columns and rows come from X's face table.  Whether the rows up to
    dimension k are consistent depends neither on the column order nor on
    the row order within a dimension, so neither changes the index, but
    both change the elimination's work.  The columns are the table's
    bands placed bottom-up, vertices lowest, so higher faces get the
    higher bits and each row pivots on a coface; within a band the
    smallest mask, the first face in lex order, has the highest bit.  The
    rows run through each dimension in lex order.  A row of dimension k
    is then an int of the bands up to k + 1 only, and so is every pivot
    it meets.  (Numbering a dimension's faces in set order instead made
    S^7 several times slower.)
    Raises FixedSimplexError on a non-free action."""
    if not X.is_free():
        raise FixedSimplexError("fixed simplex found: the action is not free")
    columns, cofaces, lo, faces = X._columns, X._cofaces, X._lo, X._faces
    ncols = len(columns)
    rows = [((1 << len(faces[0])) - 1) | (1 << ncols)]
    row_dims = []
    shift = 0
    for k, masks in enumerate(faces[:-1]):
        width = len(masks)
        # g m is ((m & lo) << 1) | ((m >> 1) & lo): g fixes no vertex.
        rows.extend(
            (columns[m] ^ columns[((m & lo) << 1) | ((m >> 1) & lo)] | cofaces[m] << width)
            << shift
            for m in reversed(masks)
        )
        row_dims += [k] * width
        shift += width
    first = _gf2_solvable(rows, ncols)
    return len(faces) - 1 if first is None else row_dims[first - 1]


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
