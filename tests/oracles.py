"""Reference routines that the tests check tverlab against.

None of them is run by the command line or the demos: the face listing of
a simplicial complex, the solid simplex and its skeleta, barycentric
subdivision (of a complex and of a Z2 complex), convex-hull membership
with its weights and the scan of it over every q-point subset that
restates Tukey depth, the partition search with an LP per candidate that
passes the bounding box (no Farkas cuts) and the Fraction-built
partition system, the lcm formula that scales Fractions
to integers over one denominator (`integer_scaled`, which `read_scaled`
is checked against), LP systems from Fraction rows and the kernel's
integer certificates read as Fractions (and back), general-form
LP rows (<= and ==) and the standard-form system the kernel reads them as,
two maps of barycentric points of the standard simplex, the facet-sum
cover against a general simplex body (with the bodies it is run on) that
the closed-form simplex cover is checked against, and the argparse
parser that the command line's table walk replaced.  Methods of the
package's classes became functions that take the complex or the
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
    LPOutcome,
    LinearSystem,
    PointConfig,
    SimplicialComplex,
    TverbergCertificate,
    Z2Complex,
    cli,
    common_point_with_weights,
)
from tverlab import exactlp
from tverlab.complexes import Simplex
from tverlab.cover import CoverCertificate, HPolytopeBody, _barycentric, _compositions
from tverlab.rationals import Point, Scaled, rat, read_scaled


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


def faces(K: SimplicialComplex) -> List[Simplex]:
    """All nonempty faces, sorted by (dimension, lexicographic)."""
    by_dim = _face_index(K)[1]
    return [s for k in range(K.dim + 1) for s in by_dim[k]]


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


# ---------------------------------------------------------------------------
# depth
# ---------------------------------------------------------------------------

def in_convex_hull(p: Sequence, points: Sequence[Sequence]) -> Optional[Point]:
    """Exact convex weights writing p from the given points, or None if p
    is outside their hull."""
    _, out = exactlp._hull_membership(p, points)
    return None if out.witness is None else exactlp._fractions(out.witness, out.denominator)


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


def _translate(body: HPolytopeBody, rhs: Sequence[int], den: int) -> Tuple[Tuple[int, ...], int]:
    """(u, g) with t = u/g the one solution of A_i.t = rhs_i/den over the
    first n integer rows: the body's inverse applied to rhs."""
    return (
        tuple(sum(map(operator.mul, row, rhs)) for row in body.inverse),
        body.inverse_scale * den,
    )


def min_cover_homothety(points: Sequence[Sequence], body: HPolytopeBody) -> CoverCertificate:
    """Exact smallest delta >= 0 with every point in delta*body + t, by the
    facet-sum identity: summing a_i.(s_i - t) <= delta b_i over one point
    s_i per row cancels t, so delta >= sum_i top_i / sum_i b_i with top_i
    the largest a_i.s, with equality exactly when every row is tight.  The
    translate solves the first n equations a_i.t = top_i - delta b_i
    through the inverse the body holds (the last holds too, as both sides
    sum to 0).

    The points P/D are scaled to integers once.  With row i scaled to
    (A_i, B_i) by l_i, dots[p][i] = A_i.P_p and T_i, the column's max,
    give top_i = T_i/(l_i D); so delta = num/den with num = sum_i T_i M/l_i
    and den = D * rhs_sum, and with t = u/g row i holds at P_p exactly when
    dots[p][i] * g * rhs_sum <= den A_i.u + num B_i g, one integer bound
    per row.  Only delta and the translate are built as Fractions."""
    D, points = read_scaled(points)
    if not points:
        raise ValueError("need at least one point to cover")
    if any(len(p) != body.ambient_dim for p in points):
        raise ValueError("point dimension mismatch")
    rows = body.int_rows
    dots = [[sum(map(operator.mul, a, p)) for a, _ in rows] for p in points]
    top = [max(col) for col in zip(*dots)]
    s = body.rhs_sum
    num = sum(map(operator.mul, top, body.weights))  # the facet-sum identity
    den = D * s
    u, g = _translate(body, [hi * s - num * b for hi, (_, b) in zip(top, rows[:-1])], den)
    scale = g * s
    # dot * scale <= bound exactly when dot <= bound // scale; equal exactly
    # when also bound % scale == 0
    bounds = [
        divmod(den * sum(map(operator.mul, a, u)) + num * b * g, scale) for a, b in rows
    ]
    tight = []
    for pi, row in enumerate(dots):
        for ri, (dot, (q, r)) in enumerate(zip(row, bounds)):
            if dot > q:
                raise RuntimeError("cover certificate violates a row")
            if dot == q and not r:
                tight.append((pi, ri))
    if {ri for _, ri in tight} != set(range(len(rows))):
        raise RuntimeError("a body row has no tight point, so delta is not minimal")
    return CoverCertificate(
        delta=Fraction(num, den),
        translate=tuple(Fraction(c, g) for c in u),
        tight=tuple(tight),
    )


# ---------------------------------------------------------------------------
# the command line
# ---------------------------------------------------------------------------

def argparse_parser() -> argparse.ArgumentParser:
    """The argparse parser built from cli.COMMANDS and cli.FLAGS, as the CLI
    built it before it walked argv through the tables itself: one shared
    parent parser per flag or exclusive pair."""
    parser = argparse.ArgumentParser(
        prog="tverlab",
        description="exact-arithmetic checks for depth, partitions, index, and covering claims",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parents = {}
    for group in dict.fromkeys(group for entry in cli.COMMANDS.values() for group in entry[1]):
        parents[group] = parent = argparse.ArgumentParser(add_help=False)
        holder = parent.add_mutually_exclusive_group() if len(group) > 1 else parent
        for flag in group:
            holder.add_argument(f"--{flag}", type=cli.FLAGS[flag][0], default=None, help=cli.FLAGS[flag][1])
    for name, (_, reads, _, _, text, _) in cli.COMMANDS.items():
        sub.add_parser(name, help=text, parents=[parents[group] for group in reads])
    return parser
