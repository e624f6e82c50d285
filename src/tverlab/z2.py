"""Free simplicial involutions and their mod-2 homological index.

The index of a free Z/2-complex (X, g) is Yang's homological index: the
largest n <= dim X with chains c_0, ..., c_n in C_*(X; F_2) such that
eps(c_0) = 1 and d c_k = (1 + g) c_{k-1} for k = 1..n (Yang 1954;
Matousek, "Using the Borsuk-Ulam Theorem", ch. 5).  It equals the largest
n with w^n != 0, for w the class of the double cover X -> X/Z2, and that
is what `hind` computes: cup powers of w on the orbits of X's faces, one
small F_2 system per degree it tries.

A Z2Complex relabels its vertices so that each orbit {v, g v} is two
adjacent bits, taking each vertex's bit from the involution, and reads the
given simplices straight into bitmasks; g acts on a mask as one fixed bit
swap.  Validation, `is_free`, `hind` and disjoint unions read only those
masks and the given simplices: the input checks run on the masks, so
valid input sorts no tuple and only a malformed simplex or involution
builds the complex's canonical form, to name it; and `hind` builds each
level of faces from the level above and the given masks, and only down
to the degree where its scan stops.
"""
from __future__ import annotations

import functools
import itertools
import operator
from typing import Dict, List, Optional, Sequence

from .complexes import SimplicialComplex


class FixedSimplexError(ValueError):
    """The involution fixes a simplex setwise; the orbit space is not free
    and the index is infinite."""


class Z2Complex:
    """A simplicial complex with a simplicial involution on its vertices.

    `_bit` maps each vertex to its bit, each orbit taking two adjacent bits
    (the lower one in `_lo`) and a vertex that g fixes one bit (in
    `_fixed`).  `_masks` lists the masks of the complex's given simplices
    and `_images` those of their images under g, in the same order.

    The input is checked on the masks: every id an exact int, g an
    involution on its keys, no zero mask (an empty simplex), each mask with
    as many bits as its simplex has ids (no repeated vertex), each vertex
    with a bit (none missing from g) and every bit in some mask (no vertex
    of g outside the simplices).  Only when one of these fails is the
    canonical form read, so that the complex's walk and then the checks of
    g, in that order, name the first fault.  Every image must then be a
    face of a given simplex; the first given simplex, in given order,
    whose image is not is named."""

    def __init__(self, complex: SimplicialComplex, involution: Dict[int, int]):
        self.complex = complex
        g = self.involution = dict(involution)
        simplices = complex.given
        masks = None
        if {*map(type, g), *map(type, g.values())} == {int} and [*map(g.get, g.values())] == [*g]:
            self._relabel()
            bit = self._bit.__getitem__
            try:
                masks = [sum(map(bit, s)) for s in simplices]
            except (KeyError, TypeError):  # an id with no bit, or one that does not hash
                pass
            else:
                if not (
                    all(masks)  # no empty simplex
                    and sum(map(int.bit_count, masks)) == sum(map(len, simplices))  # no repeated id
                    and functools.reduce(operator.or_, masks) == (1 << len(g)) - 1  # no vertex of g left out
                    and {*map(type, itertools.chain.from_iterable(simplices))} == {int}  # 1.0 and True find 1's bit
                ):
                    masks = None
        if masks is None:
            self._check_canonical()  # raises: a failed check above is a fault it names
            raise RuntimeError("the checks on masks refused an input that the canonical form accepts")
        lo, fixed = self._lo, self._fixed
        self._masks = masks
        images = self._images = [((m & lo) << 1) | ((m >> 1) & lo) | (m & fixed) for m in masks]
        given = set(masks)
        if not given.issuperset(images):
            # An image that is not given must lie in a given simplex, one
            # that holds the image's lowest vertex.
            holding: Dict[int, List[int]] = {}
            for m in masks:
                rest = m
                while rest:
                    low = rest & -rest
                    holding.setdefault(low, []).append(m)
                    rest ^= low

            def is_face(s: int) -> bool:
                return s in given or any(s & m == s for m in holding[s & -s])

            for s, image in zip(simplices, images):  # name the first given simplex, in given order
                if not is_face(image):
                    raise ValueError(f"involution does not map simplex {tuple(sorted(s))} to a simplex")

    def _check_canonical(self) -> None:
        """The checks of the canonical form, in its order: the complex's
        walk over its given simplices, then those of the involution."""
        verts = set().union(*self.complex.simplices)
        # Before the set comparisons: an unhashable id would fail in them,
        # and a float or bool equal to a vertex id would pass them.
        for v, w in self.involution.items():
            if type(v) is not int or type(w) is not int:
                raise ValueError("involution vertex ids must be integers")
        if set(self.involution) != verts or set(self.involution.values()) != verts:
            raise ValueError("involution must be a permutation of the vertices")
        for v in verts:
            if self.involution[self.involution[v]] != v:
                raise ValueError("involution must have order two")

    def _relabel(self) -> None:
        """One bit per vertex of g, the smallest vertex getting the highest
        bit, each vertex followed by its image."""
        g = self.involution
        bit: Dict[int, int] = {}
        lo = fixed = 0
        top = 1 << len(g)
        for v in sorted(g):
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

    def is_free(self) -> bool:
        # A setwise-fixed simplex either fixes a vertex or contains a pair
        # {v, g(v)}; either way some given simplex meets its image.
        return not any(map(operator.and_, self._masks, self._images))


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
    """Yang's homological index of a free Z/2-complex: the largest n with
    w^n != 0 in H^n(X/g; F_2), for w the class of the double cover.

    The orbits of X's faces are a Delta-complex once each face's vertices
    are ordered by orbit (bit order), an order g keeps, so its cochains
    compute the cohomology of X/g and cup products on it need no
    subdivision (Hatcher, "Algebraic Topology", 3.2).  A vertex is on sheet
    1 when its bit is in `_lo`; w is 1 on an edge that changes sheet, so
    its Alexander-Whitney power w^n is 1 on an n-face exactly when
    consecutive vertices alternate sheets.

    The degree-n system has a row per orbit {f, g f} of n-faces, taken as
    f < g f, with right-hand side w^n(f), and a column per orbit of
    (n-1)-faces met in a row, numbered on first meeting.  w^n = 0 forces
    w^(n+1) = 0, so the scan runs from dim X down, builds each level's
    orbits from the level above and the given masks, and returns the first
    n whose system `_gf2_solvable` finds inconsistent, or 0.  A degree
    where w^n has empty support solves nothing.  A disjoint union needs no
    split into parts: H^n of a union is the direct sum over its parts.
    Raises FixedSimplexError on a non-free action."""
    if not X.is_free():
        raise FixedSimplexError("fixed simplex found: the action is not free")
    lo = X._lo
    given: Dict[int, List[int]] = {}
    for m, image in zip(X._masks, X._images):
        # an orbit whose smaller mask is not given comes down as a face
        if m < image:
            given.setdefault(m.bit_count() - 1, []).append(m)
    n = max(given)
    level = dict.fromkeys(given[n])  # a simplex given twice is one row
    while n:
        columns: Dict[int, int] = {}
        rows: List[int] = []
        support = []
        for f in level:
            row = 0
            rest = f
            sheet = None
            alternate = True
            while rest:
                low = rest & -rest
                rest ^= low
                if alternate:
                    upper = not low & lo
                    alternate = upper is not sheet
                    sheet = upper
                # the face without this vertex, as its orbit's smaller mask:
                # f < g f puts f's top vertex in `_lo`, so only the face
                # without it may be the larger of its orbit
                face = f ^ low
                if not rest:
                    image = ((face & lo) << 1) | ((face >> 1) & lo)
                    if image < face:
                        face = image
                col = columns.get(face)
                if col is None:
                    col = columns[face] = 1 << len(columns)
                row |= col
            if alternate:
                support.append(len(rows))
            rows.append(row)
        if support:
            rhs = 1 << len(columns)
            for i in support:
                rows[i] |= rhs
            if _gf2_solvable(rows, len(columns)) is not None:
                return n
        n -= 1
        level = columns
        level.update(dict.fromkeys(given.get(n, ())))
    return 0


def z2_disjoint_union(*parts: Z2Complex) -> Z2Complex:
    """Disjoint union with vertex relabeling, involutions side by side."""
    if not parts:
        raise ValueError("need at least one part")
    simplices = []
    involution: Dict[int, int] = {}
    for part in parts:
        # the construction checked that g's keys are the part's vertices
        relabel = {v: len(involution) + i for i, v in enumerate(sorted(part.involution))}
        simplices.extend([relabel[v] for v in s] for s in part.complex.given)
        for v, w in part.involution.items():
            involution[relabel[v]] = relabel[w]
    return Z2Complex(SimplicialComplex(simplices), involution)


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

