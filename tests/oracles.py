"""Reference routines that the tests check tverlab against.

None of them is run by the command line or the demos: the dimension and
the face listing of a simplicial complex, the solid simplex, its skeleta and its center,
barycentric subdivision (of a complex and of a Z2 complex), convex-hull
membership with its weights and the scan of it over every q-point subset
that restates Tukey depth, the common point of several blocks' hulls with
each block's weights as Fractions (`common_point_with_weights`, over the
package's integer core `exactlp._common_point`), the points' affine dependency from the
homogeneous (d+1)-row matrix with columns (P_v, 1), which the Radon
step's elimination of differences is checked against, the partition
search with an LP per candidate
that passes the bounding box (no Farkas cuts) and the Fraction-built
partition system, both certificate checks with a read of their own for
the point and for each row after it and Tukey depth over the lcm of the
two scales (the one-read forms are checked against them), the lcm formula
that scales Fractions to integers over one denominator (`integer_scaled`,
which `read_scaled` is checked against), LP systems from Fraction rows
and the kernel's integer certificates read as Fractions (and back),
general-form LP rows (<= and ==) and the standard-form system the kernel
reads them as, two maps of barycentric points of the standard simplex,
the facet-sum cover against a general simplex body over Fractions, its
translate solved by Gauss-Jordan (`min_cover_homothety`, with
`solve_square` and the bodies it is run on), that the closed-form simplex
cover and the homothety LP are checked against, and the
argparse parser that the command line's table walk replaced, and the Z2
index from Yang's chain conditions solved in one system over every face,
which the cup-power `hind` is checked against (`hind_by_yang_chains`,
with its face numbering as it was in `tverlab.z2`), and the construction
of a Z2 complex from the canonical form, every given simplex sorted and
checked before the involution (`canonical_z2_complex`, with
`SimplicialComplex` and `Z2Complex.__init__` as they were in the
package, every image looked for among all given masks), which the checks
on orbit masks are checked against.  Methods
of the package's classes became functions that take the complex or the
configuration.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from tverlab import (
    DepthCertificate,
    LPOutcome,
    LinearSystem,
    PointConfig,
    SimplicialComplex,
    TverbergCertificate,
    Z2Complex,
    cli,
)
from tverlab import exactlp, z2
from tverlab.complexes import Simplex, simplex
from tverlab.cover import CoverCertificate, HPolytopeBody, _barycentric, _compositions
from tverlab.depth import _fewest_on_open_side, _primitive
from tverlab.rationals import Point, Scaled, bareiss_eliminate, rat, read_scaled


# ---------------------------------------------------------------------------
# simplicial complexes
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=8)
def _face_index(K: SimplicialComplex) -> Tuple[set, Dict[int, List[Simplex]]]:
    """Every face of K, and its faces of each dimension in lex order.  The
    cache serves the repeated listings of one complex that an oracle makes
    (complexes compare by identity), and callers copy what they hand out."""
    face_set = {
        face
        for s in K.simplices
        for k in range(1, len(s) + 1)
        for face in itertools.combinations(s, k)
    }
    faces_by_dim: Dict[int, List[Simplex]] = {}
    for s in sorted(face_set):
        faces_by_dim.setdefault(len(s) - 1, []).append(s)
    return face_set, faces_by_dim


def dim(K: SimplicialComplex) -> int:
    """The dimension of K, that of its longest simplex."""
    return max(map(len, K.simplices)) - 1


def faces(K: SimplicialComplex) -> List[Simplex]:
    """All nonempty faces, sorted by (dimension, lexicographic)."""
    by_dim = _face_index(K)[1]
    return [s for k in range(dim(K) + 1) for s in by_dim[k]]


def faces_of_dim(K: SimplicialComplex, k: int) -> List[Simplex]:
    return list(_face_index(K)[1].get(k, ()))


def has_face(K: SimplicialComplex, s: Iterable[int]) -> bool:
    t = tuple(sorted(set(s)))
    return not t or t in _face_index(K)[0]


def euler_characteristic(K: SimplicialComplex) -> int:
    return sum((-1) ** (len(s) - 1) for s in faces(K))


def connected_components(K: SimplicialComplex) -> int:
    parent = {v: v for v in K.vertices}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for f in K.facets:
        for a, b in zip(f, f[1:]):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
    return len({find(v) for v in K.vertices})


def full_simplex(m: int) -> SimplicialComplex:
    """The solid m-simplex on vertices 0..m."""
    if m < 0:
        raise ValueError("dimension must be nonnegative")
    return SimplicialComplex([tuple(range(m + 1))])


def standard_center(m: int) -> Point:
    """Barycenter of the standard m-simplex, whose vertices are the unit
    vectors of R^{m+1}: (1/(m+1), ..., 1/(m+1))."""
    return tuple([Fraction(1, m + 1)] * (m + 1))


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
    vertex_of_face = {f: i for i, f in enumerate(faces(K))}
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
# Z2 complexes
# ---------------------------------------------------------------------------

def image(X: Z2Complex, s: Simplex) -> Simplex:
    """The simplex g s, in canonical form."""
    return tuple(sorted(X.involution[v] for v in s))


def subdivide_z2(X: Z2Complex) -> Z2Complex:
    """Barycentric subdivision with the induced involution on face barycenters."""
    bc = barycentric_subdivision(X.complex)
    involution = {
        v: bc.vertex_of_face[image(X, f)] for v, f in bc.face_of_vertex.items()
    }
    return Z2Complex(bc.complex, involution)


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


def hind_by_yang_chains(X: Z2Complex) -> int:
    """Yang's homological index of a free Z/2-complex: the largest n <= dim X
    with chains c_0..c_n, eps(c_0) = 1 and d c_k = (1 + g) c_{k-1}.

    One F_2 system over every face of X, with one column per face.  Its
    rows are the augmentation row, then, by dimension, the row of each
    face f below the top dimension: the coefficient of f in
    d c_k + (1 + g) c_{k-1}, k - 1 = dim f.  That row reads only columns of
    dimension k - 1 and k, so the rows up to dimension n - 1 are exactly
    the system for n, and the index is the dimension of the face whose row
    first makes it inconsistent, or dim X.  A disjoint union needs no
    split: chains that solve it restrict to chains on each g-invariant
    part, and eps(c_0) = 1 on one of them.  Neither the column order nor
    the row order within a dimension changes the index, but both change
    the work: the bands are placed bottom-up, so each row pivots on a
    coface, and the rows run through each dimension in lex order, so a row
    of dimension k and every pivot it meets is an int of the bands up to
    k + 1 only.  Raises FixedSimplexError on a non-free action."""
    if not X.is_free():
        raise z2.FixedSimplexError("fixed simplex found: the action is not free")
    lo = X._lo
    given: Dict[int, List[int]] = {}
    for m in X._masks:
        given.setdefault(m.bit_count(), []).append(m)
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
    first = z2._gf2_solvable(rows, ncols)
    return len(faces) - 1 if first is None else row_dims[first - 1]


class CanonicalComplex:
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


class CanonicalZ2Complex(Z2Complex):
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
        if not all(any(s & m == s for m in masks) for s in images):
            # Name the first maximal simplex whose image lies in no given one.
            image = dict(zip(masks, images))
            for f in complex.facets:
                s = image[sum(map(bit, f))]
                if not any(s & m == s for m in masks):
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


def canonical_z2_complex(facets: Iterable[Iterable[int]], involution: Dict[int, int]) -> Z2Complex:
    """Z2Complex(SimplicialComplex(facets), involution) as it was built
    from the canonical form: every given simplex sorted and checked by
    `simplex` first, then the involution checked against its vertex set."""
    return CanonicalZ2Complex(CanonicalComplex(facets), involution)


# ---------------------------------------------------------------------------
# depth
# ---------------------------------------------------------------------------

def in_convex_hull(p: Sequence, points: Sequence[Sequence]) -> Optional[Point]:
    """Exact convex weights writing p from the given points, or None if p
    is outside their hull."""
    _, out = exactlp._hull_membership(p, points)
    return None if out.witness is None else exactlp._fractions(out.witness, out.denominator)


def common_point_with_weights(blocks: Sequence[Sequence[Sequence]]):
    """A common point of the hulls of the point blocks, with exact convex
    weights per block writing it, as (point, weights); or None.

    Each block is read with read_scaled, so a block read already is used
    as it is, and the blocks are brought to one denominator L; the
    package's integer core `exactlp._common_point`, which the partition
    search calls, solves them."""
    read = [read_scaled(b) for b in blocks]
    if not read or not all(rows for _, rows in read):
        raise ValueError("need at least one block, each of at least one point")
    d = len(read[0].rows[0])
    if any(len(q) != d for _, rows in read for q in rows):
        raise ValueError("point dimension mismatch")
    L = lcm(*(s for s, _ in read))
    pts = [rows if s == L else [tuple(c * (L // s) for c in q) for q in rows] for s, rows in read]
    found = exactlp._common_point(L, pts)
    if found[0] is None:
        return None
    K, X, weights = found
    return tuple(Fraction(c, K) for c in X), tuple(exactlp._fractions(w, K) for w in weights)


def subset(config: PointConfig, labels: Sequence[int]) -> List[Point]:
    return [config.points[i] for i in labels]


def hull_membership_depth(x: Sequence, config: PointConfig, q: int) -> bool:
    """Is x in the convex hull of every q-point subset of the configuration?

    Equivalent to tukey_depth(x) >= n - q + 1; this is the Hahn-Banach
    restatement that the tests exercise from both sides.
    """
    if not 1 <= q <= config.n:
        raise ValueError("subset size out of range")
    xx = tuple(rat(c) for c in x)
    for labels in itertools.combinations(range(config.n), q):
        if in_convex_hull(xx, subset(config, labels)) is None:
            return False
    return True


def affine_dependency_homogeneous(config: PointConfig) -> Optional[Tuple[int, ...]]:
    """The points' affine dependency when it is unique up to scale, as
    depth._affine_dependency found it before it eliminated differences:
    the primitive integer vector kappa spanning the kernel of the
    (d+1) x n matrix with columns (P_v, 1), its first nonzero entry
    positive, if that kernel is one line (rank n - 1); None otherwise.
    Over the last pivot D of one `bareiss_eliminate`, each pivot column c
    has D in its row i, so with f the one free column, kappa_f = D and
    kappa_c = -row_i[f]."""
    n = config.n
    rows = [list(c) for c in zip(*config.scaled.rows)] + [[1] * n]
    D, pivots = bareiss_eliminate(rows, n)
    if len(pivots) != n - 1:
        return None
    (f,) = set(range(n)) - pivots.keys()
    return _primitive([D if j == f else -rows[pivots[j]][f] for j in range(n)])


def canonical_partitions(n: int, r: int) -> Iterator[Tuple[Tuple[int, ...], ...]]:
    """All partitions of 0..n-1 into exactly r nonempty blocks in canonical
    (restricted-growth-string, lexicographic) order, each built from its
    string at the leaf."""
    if r < 1 or r > n:
        return
    a = [0] * n

    def rec(i: int, used: int):
        if i == n:
            if used == r:
                blocks: List[List[int]] = [[] for _ in range(r)]
                for idx, b in enumerate(a):
                    blocks[b].append(idx)
                yield tuple(tuple(b) for b in blocks)
            return
        remaining = n - i
        for b in range(min(used + 1, r)):
            # feasibility prune: can we still reach exactly r blocks?
            new_used = used + (1 if b == used else 0)
            if new_used + (remaining - 1) >= r:
                a[i] = b
                yield from rec(i + 1, new_used)

    yield from rec(1, 1) if n else iter(())


def boxes_miss(blocks_points: Sequence[Sequence[Tuple[int, ...]]], d: int) -> bool:
    """Some coordinate in which the blocks' ranges share no point, each
    range taken over the whole block."""
    for i in range(d):
        lo = max(min(p[i] for p in block) for block in blocks_points)
        hi = min(max(p[i] for p in block) for block in blocks_points)
        if lo > hi:
            return True
    return False


def cut_free_tverberg_partition(config: PointConfig, r: int) -> Optional[TverbergCertificate]:
    """The first partition in canonical order whose hulls meet, by an LP per
    candidate that passes the bounding-box screen and no other screen."""
    if r < 1:
        raise ValueError("need at least one block")
    L, ints = config.scaled
    for blocks in canonical_partitions(config.n, r):
        if boxes_miss([[ints[l] for l in b] for b in blocks], config.d):
            continue
        found = common_point_with_weights([Scaled(L, [ints[l] for l in b]) for b in blocks])
        if found is not None:
            return TverbergCertificate(blocks, *found)
    return None


def fraction_partition_system(blocks):
    """The system of common_point_with_weights as it was built from Fraction
    rows: a sum row per block, then per later block B and coordinate i the
    coupling row (first block's v[i], -B's v[i]) == 0."""
    sizes = [len(b) for b in blocks]
    total, d = sum(sizes), len(blocks[0][0])
    offsets = [sum(sizes[:k]) for k in range(len(blocks))]
    rows = []
    for size, off in zip(sizes, offsets):
        coeffs = [Fraction(0)] * total
        coeffs[off:off + size] = [Fraction(1)] * size
        rows.append((tuple(coeffs), Fraction(1)))
    first = blocks[0]
    for b, off in zip(blocks[1:], offsets[1:]):
        for i in range(d):
            coeffs = [v[i] for v in first] + [Fraction(0)] * (total - len(first))
            coeffs[off:off + len(b)] = [-v[i] for v in b]
            rows.append((tuple(coeffs), Fraction(0)))
    return fraction_system(total, rows)


def check_depth_certificate_read_per_row(cert: DepthCertificate, config: PointConfig) -> bool:
    """check_depth_certificate with the point and the halfspace each read by
    a read_scaled of its own, the point as X/E and (coeffs, offset) as
    (a, a0)/K: a.X + E a0 >= 0 and a.P + L a0 >= 0."""
    L, P = config.scaled
    E, (X,) = read_scaled([cert.point])
    _, ((*a, a0),) = read_scaled([(*cert.halfspace_coeffs, cert.halfspace_offset)])
    inside = sum(sum(map(operator.mul, a, p)) + L * a0 >= 0 for p in P)
    return sum(map(operator.mul, a, X)) + E * a0 >= 0 and inside == cert.depth


def check_tverberg_certificate_read_per_row(cert: TverbergCertificate, config: PointConfig) -> bool:
    """check_tverberg_certificate with the point and each weight tuple read
    by a read_scaled of its own, the point as X/E and block j's weights as
    w_j/K: E sum_j w_j P_j == K L X."""
    labels = sorted(l for b in cert.blocks for l in b)
    if (labels != list(range(config.n)) or len(cert.weights) != len(cert.blocks)
            or len(cert.point) != config.d):
        return False
    L, P = config.scaled
    E, (X,) = read_scaled([cert.point])
    for block, ws in zip(cert.blocks, cert.weights):
        K, (w,) = read_scaled([ws])
        if len(block) != len(w) or any(c < 0 for c in w) or sum(w) != K:
            return False
        for i in range(config.d):
            if E * sum(c * P[l][i] for c, l in zip(w, block)) != K * L * X[i]:
                return False
    return True


def tukey_depth_over_the_lcm(x: Sequence, config: PointConfig, lower: Optional[int] = None) -> DepthCertificate:
    """tukey_depth with the points and x brought to integers over the lcm M
    of the configuration's scale L and x's E, the offset -U.X/(q M), and the
    certificate checked by check_depth_certificate_read_per_row."""
    xx = tuple(rat(c) for c in x)
    if len(xx) != config.d:
        raise ValueError("point dimension mismatch")
    L, P = config.scaled
    E, (X,) = read_scaled([xx])
    M = lcm(L, E)
    if M != L:
        P = [tuple(c * (M // L) for c in p) for p in P]
    X = tuple(c * (M // E) for c in X)
    W = [tuple(c - xc for c, xc in zip(p, X)) for p in P]
    nonzero = [w for w in W if any(w)]
    zeros = config.n - len(nonzero)
    stop = -1 if lower is None else lower - zeros
    count, U, q = _fewest_on_open_side(nonzero, config.d, stop)
    if lower is not None and zeros + count < lower:
        raise RuntimeError(f"depth {zeros + count} below the proven lower bound {lower}")
    u = tuple(Fraction(c, q) for c in U)
    offset = Fraction(-sum(map(operator.mul, U, X)), q * M)
    cert = DepthCertificate(xx, zeros + count, u, offset)
    if not check_depth_certificate_read_per_row(cert, config):
        raise RuntimeError("depth certificate failed verification")
    return cert


# ---------------------------------------------------------------------------
# Fraction rows and certificates, and the kernel's integer forms of them
# ---------------------------------------------------------------------------

def integer_scaled(vectors: Sequence[Sequence[Fraction]]) -> Tuple[int, List[Tuple[int, ...]]]:
    """L, the lcm of the denominators of every entry, and each vector times
    L as integers; L > 0 keeps every sign and order between entries."""
    L = lcm(*(c.denominator for v in vectors for c in v))
    return L, [tuple(c.numerator * (L // c.denominator) for c in v) for v in vectors]


def fraction_system(n_vars: int, rows: Sequence[Tuple[Point, Fraction]]) -> LinearSystem:
    """The system of the Fraction rows (coeffs, rhs), each scaled to
    integers by the lcm L of its denominators: (L, L coeffs, L rhs)."""
    scaled = []
    for coeffs, rhs in rows:
        L, (ints,) = integer_scaled([(*coeffs, rhs)])
        scaled.append((L, ints[:-1], ints[-1]))
    return LinearSystem(n_vars, scaled)


def fraction_witness(out: LPOutcome) -> Optional[Point]:
    """The kernel's witness X/D as Fractions, or None."""
    if out.witness is None:
        return None
    return tuple(Fraction(v, out.denominator) for v in out.witness)


def integer_witness(x: Sequence[Fraction]) -> Tuple[int, Tuple[int, ...]]:
    """(D, X) with x = X/D, D the lcm of x's denominators."""
    D, (X,) = integer_scaled([x])
    return D, X


def fraction_multipliers(system: LinearSystem, N: Sequence[int]) -> Point:
    """The Farkas multipliers N on the system's integer rows (L_i, A_i, B_i)
    as multipliers nu_i = N_i L_i / (-sum N_k B_k) on its Fraction rows,
    which combine them to a right-hand side of -1."""
    total = -sum(v * rhs for v, (_, _, rhs) in zip(N, system.scaled))
    return tuple(Fraction(v * L, total) for v, (L, _, _) in zip(N, system.scaled))


def integer_multipliers(system: LinearSystem, nu: Sequence[Fraction]) -> Tuple[int, ...]:
    """Multipliers nu on the system's Fraction rows as integers on its
    integer rows: nu_i / L_i, times the lcm of their denominators."""
    _, (N,) = integer_scaled([[Fraction(v) / L for v, (L, _, _) in zip(nu, system.scaled)]])
    return N


# ---------------------------------------------------------------------------
# general-form LP rows
# ---------------------------------------------------------------------------

LE = "<="
EQ = "=="


def le(coeffs: Sequence, rhs) -> Tuple[Point, str, Fraction]:
    """The general-form row  coeffs . x <= rhs."""
    return (tuple(rat(c) for c in coeffs), LE, rat(rhs))


def eq(coeffs: Sequence, rhs) -> Tuple[Point, str, Fraction]:
    """The general-form row  coeffs . x == rhs."""
    return (tuple(rat(c) for c in coeffs), EQ, rat(rhs))


def standard_form(n: int, rows: Sequence[Tuple[Point, str, Fraction]]) -> LinearSystem:
    """The kernel's system for general-form rows over x >= 0 in R^n: after
    the n variables, one slack column per <= row, in row order, with
    coefficient 1 in its row, so that  a . x <= b  becomes  a . x + s == b.
    A witness's first n entries are x; the multipliers are one per row."""
    slack = [i for i, (_, rel, _) in enumerate(rows) if rel == LE]
    zero, one = Fraction(0), Fraction(1)
    return fraction_system(n + len(slack), [
        (tuple(coeffs) + tuple(one if k == i else zero for k in slack), rhs)
        for i, (coeffs, _, rhs) in enumerate(rows)
    ])


# ---------------------------------------------------------------------------
# the standard simplex, and the facet-sum cover against a general body
# ---------------------------------------------------------------------------

def barycentric_to_centered(p: Sequence) -> Point:
    """Map a barycentric point of the standard simplex (n+1 coordinates,
    nonnegative, summing to one) to c - 1/(n+1) on its first n
    coordinates c: the centered body's coordinates."""
    L, (c,) = _barycentric([p])
    k = len(c)
    return tuple(Fraction(k * v - L, k * L) for v in c[:-1])


def grid_points_in_simplex(n: int, density: int) -> List[Point]:
    """All rational points of the standard n-simplex with denominator
    `density` (compositions of density into n+1 parts)."""
    return [tuple(Fraction(c, density) for c in parts) for parts in _compositions(n, density)]


def h_polytope(rows: Sequence[Tuple[Sequence, object]]) -> HPolytopeBody:
    """A simplex body in facet-sum form from (coefficients, rhs) rows."""
    rows = tuple((tuple(rat(c) for c in coeffs), rat(rhs)) for coeffs, rhs in rows)
    if not rows:
        raise ValueError("need at least one row")
    return HPolytopeBody(len(rows[0][0]), rows)


def interval_body() -> HPolytopeBody:
    """K = [0, 1] in R^1."""
    return h_polytope([((-1,), 0), ((1,), 1)])


@functools.cache
def standard_simplex_body(n: int) -> HPolytopeBody:
    """The standard n-simplex translated so its barycenter is the origin:
    y_i >= -1/(n+1) and sum y_i <= 1/(n+1).  Covering radii agree with the
    barycentric picture because translation does not change them."""
    if n < 1:
        raise ValueError("need n >= 1")
    c = Fraction(1, n + 1)
    rows = []
    for i in range(n):
        coeffs = [Fraction(0)] * n
        coeffs[i] = Fraction(-1)
        rows.append((tuple(coeffs), c))
    rows.append((tuple([Fraction(1)] * n), c))
    return HPolytopeBody(n, tuple(rows))


def solve_square(rows: Sequence[Tuple[Point, Fraction]]) -> Optional[Point]:
    """The unique t with a.t = c for the n rows (a, c) in n unknowns, by
    Gauss-Jordan elimination over Fractions, or None when the a are
    linearly dependent."""
    m = [list(a) + [c] for a, c in rows]
    for col in range(len(m)):
        pivot = next((r for r in range(col, len(m)) if m[r][col]), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        head = m[col][col]
        m[col] = [v / head for v in m[col]]
        for r, row in enumerate(m):
            if r != col and row[col]:
                m[r] = [v - row[col] * w for v, w in zip(row, m[col])]
    return tuple(row[-1] for row in m)


def min_cover_homothety(points: Sequence[Sequence], body: HPolytopeBody) -> CoverCertificate:
    """Exact smallest delta >= 0 with every point in delta*body + t, by the
    facet-sum identity: summing a_i.(s_i - t) <= delta b_i over one point
    s_i per row cancels t, so delta >= sum_i top_i / sum_i b_i with top_i
    the largest a_i.s, with equality exactly when every row is tight.  The
    translate solves the first n equations a_i.t = top_i - delta b_i
    (`solve_square`; the last holds too, as both sides sum to 0), and every
    (point, row) pair is checked against a_i.t + delta b_i, all over
    Fractions."""
    points = [tuple(map(rat, p)) for p in points]
    if not points:
        raise ValueError("need at least one point to cover")
    if any(len(p) != body.ambient_dim for p in points):
        raise ValueError("point dimension mismatch")
    dots = [[sum(map(operator.mul, a, p)) for a, _ in body.rows] for p in points]
    top = [max(col) for col in zip(*dots)]
    delta = sum(top) / sum(b for _, b in body.rows)  # the facet-sum identity
    t = solve_square([(a, hi - delta * b) for (a, b), hi in zip(body.rows[:-1], top)])
    bounds = [sum(map(operator.mul, a, t)) + delta * b for a, b in body.rows]
    tight = []
    for pi, row in enumerate(dots):
        for ri, (dot, bound) in enumerate(zip(row, bounds)):
            if dot > bound:
                raise RuntimeError("cover certificate violates a row")
            if dot == bound:
                tight.append((pi, ri))
    if {ri for _, ri in tight} != set(range(len(body.rows))):
        raise RuntimeError("a body row has no tight point, so delta is not minimal")
    return CoverCertificate(delta=delta, translate=t, tight=tuple(tight))


# ---------------------------------------------------------------------------
# the command line
# ---------------------------------------------------------------------------

def argparse_parser() -> argparse.ArgumentParser:
    """The argparse parser built from cli.COMMANDS and cli.FLAGS, as the CLI
    built it before it walked argv through the tables itself: one shared
    parent parser per flag."""
    parser = argparse.ArgumentParser(
        prog="tverlab",
        description="exact-arithmetic checks for depth, partitions, index, and covering claims",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parents = {}
    for flag in dict.fromkeys(flag for entry in cli.COMMANDS.values() for flag in entry[1]):
        parents[flag] = parent = argparse.ArgumentParser(add_help=False)
        parent.add_argument(f"--{flag}", type=cli.FLAGS[flag][0], default=None, help=cli.FLAGS[flag][1])
    for name, (_, reads, _, _, text, _) in cli.COMMANDS.items():
        sub.add_parser(name, help=text, parents=[parents[flag] for flag in reads])
    return parser
