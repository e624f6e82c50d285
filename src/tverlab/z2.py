"""Free simplicial involutions and their mod-2 homological index.

The index of a free Z/2-complex (X, g) is Yang's homological index: the
largest n <= dim X with chains c_0, ..., c_n in C_*(X; F_2) such that
eps(c_0) = 1 and d c_k = (1 + g) c_{k-1} for k = 1..n (Yang 1954;
Matousek, "Using the Borsuk-Ulam Theorem", ch. 5).  It equals the largest
n with w^n != 0, for w the class of the double cover X -> X/Z2.  The index
of a disjoint union is the max over its invariant parts, and a part's is
at most its dimension, so `hind` solves one F_2 system per g-invariant
component, and only for those whose dimension can raise the index.

A Z2Complex relabels its vertices so that each orbit {v, g v} is two
adjacent bits, and keeps its given simplices as bitmasks; g acts on a mask
as one fixed bit swap.  Validation and `is_free` read only those masks.
`hind` numbers a component's faces with bits local to each dimension's
band and stacks the bands, vertices lowest, so each row pivots on its
highest bit and stays an int as wide as the bands it touches.
"""
from __future__ import annotations

import bisect
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
    `_fixed`).  `_masks` lists the masks of the given simplices and
    `_images` those of their images under g, in the same order."""

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
        bit, lo, fixed = self._bit.__getitem__, self._lo, self._fixed
        masks = self._masks = [sum(map(bit, s)) for s in complex.simplices]
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

            if not all(map(is_face, images)):
                # Name the first maximal simplex whose image is missing.
                image = dict(zip(masks, images))
                f = next(f for f in complex.facets if not is_face(image[sum(map(bit, f))]))
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

    def is_free(self) -> bool:
        # A setwise-fixed simplex either fixes a vertex or contains a pair
        # {v, g(v)}; either way some given simplex meets its image.
        return not any(map(operator.and_, self._masks, self._images))


def _components(masks: List[int], lo: int) -> List[List[int]]:
    """A free complex's masks grouped by g-invariant component (the
    orbit-closure of a connected component), one step per orbit.

    Orbit i holds bits 2i and 2i + 1 (g fixes no vertex), so
    `m.bit_length() - 1 | 1` names the top orbit of a mask m by the bit
    length of that orbit's lower bit.  The orbits are eliminated top-down:
    at each, the masks whose top orbit it is (one run of the sorted masks)
    and the unions waiting there merge into one union, which waits at its
    next orbit below, or, holding none, is a finished component.  A union
    that meets every orbit is the whole complex."""
    ordered = sorted(masks)
    end = len(ordered)
    waiting: Dict[int, int] = {}
    runs = []
    below: Dict[int, int] = {}
    for k in range(ordered[-1].bit_length() - 1 | 1, 0, -2):
        low = 1 << k - 1
        union = waiting.pop(k, 0)
        if end and ordered[end - 1] >= low:
            start = bisect.bisect_left(ordered, low, 0, end)
            for m in ordered[start:end]:
                union |= m
            runs.append((k, start, end))
            end = start
        elif not union:
            continue
        if (union | union >> 1) & lo == lo:
            return [masks]
        rest = union & low - 1
        if rest:
            below[k] = nxt = rest.bit_length() - 1 | 1
            waiting[nxt] = waiting.get(nxt, 0) | union
        else:
            below[k] = 0
    # Bottom-up, each orbit takes the label of the one its union went on to.
    label: Dict[int, int] = {}
    parts: List[List[int]] = []
    for k in reversed(below):
        if below[k]:
            label[k] = label[below[k]]
        else:
            label[k] = len(parts)
            parts.append([])
    for k, start, end in runs:
        parts[label[k]] += ordered[start:end]
    return parts


def _number_faces(given: Dict[int, List[int]]):
    """The face table of the complex spanned by masks given by size.

    The faces are walked top-down, each level's cofaces recorded on the
    way; a complete level is numbered in its band, the smallest mask taking
    the highest bit.  Returns `faces` (faces[k] the k-faces' masks,
    ascending), `columns` (each mask's band-local bit) and `cofaces` (the
    band-local bits of its codimension-one cofaces in the band above)."""
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
    return faces, columns, cofaces


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

    The index is the max over the g-invariant components, each at most its
    dimension, so the components are taken by decreasing dimension and one
    is solved only while its dimension is above the best index so far.

    A component's F_2 system has one column per face.  Its rows are the
    augmentation row, then, by dimension, the row of each face f below the
    top dimension: the coefficient of f in d c_k + (1 + g) c_{k-1},
    k - 1 = dim f.  That row reads only columns of dimension k - 1 and k,
    so the rows up to dimension n - 1 are exactly the system for n, and the
    index is the dimension of the face whose row first makes it
    inconsistent.  Neither the column order nor the row order within a
    dimension changes the index, but both change the work: the bands are
    placed bottom-up, so each row pivots on a coface, and the rows run
    through each dimension in lex order, so a row of dimension k and every
    pivot it meets is an int of the bands up to k + 1 only.  (Numbering a
    dimension's faces in set order instead made S^7 several times slower.)
    Raises FixedSimplexError on a non-free action."""
    if not X.is_free():
        raise FixedSimplexError("fixed simplex found: the action is not free")
    lo = X._lo
    parts = []
    for part in _components(X._masks, lo):
        given: Dict[int, List[int]] = {}
        for m in part:
            given.setdefault(m.bit_count(), []).append(m)
        parts.append((max(given) - 1, given))
    parts.sort(key=lambda part: part[0], reverse=True)
    best = 0
    for dim, given in parts:
        if dim <= best:
            break
        faces, columns, cofaces = _number_faces(given)
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
        best = max(best, dim if first is None else row_dims[first - 1])
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

