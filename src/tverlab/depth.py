"""Tukey depth, centerpoints, Tverberg partitions, and the prime lift.

Everything is exact: depth comes from a recursion over the dimension that
projects the points along each line through the query point (no LP),
Tverberg partitions from a scan of the set partitions in canonical order,
except that two blocks are read off the points' affine dependency when it
is unique up to scale (Radon's theorem: d + 2 points in general position,
no LP), found by one elimination of the differences P_k - P_0, and the
reduction to a prime number of parts duplicates each point k times and
partitions the lifted cloud, on a line in closed form (no LP).  A
centerpoint's depth >= r is certified from both sides: the blocks give the
lower bound, the depth halfspace the upper bound.  Where the Radon step
answers, the depth is exactly 2, and its halfspace, through the Radon
point and two of the points, comes from one more solve over differences
of the points: a functional equal at all of them but those two (no
recursion).  The two searches use the
certificates they already hold: the depth recursion behind a partition
stops at the first halfspace that holds no more
points than the blocks guarantee, and the partition scan settles a
candidate by LP only when neither the blocks' coordinate ranges nor the
Farkas certificate of an earlier failed candidate separate its blocks.
A configuration is its points scaled to integers once
(`PointConfig.scaled`); the depth recursion, the affine dependency, the
partition screens, each candidate's LP rows and both certificate checks
read that one scaling, and none of them builds the configuration's
`Fraction`s (`tverlab.cli` reads --input files; this module knows no
file format).  Each check is one read of a certificate's Fractions and an
integer body.  Every producer (the Radon step, the LP partitions, the
lift's pairing and the depth halfspace) runs the body on the integers it
computed and builds its Fractions after it, and the depth search behind
a partition starts from the integers of the partition's point, so no
Fraction of a weight, a witness or a common point is read back.  Every
partition comes from one producer, `_partition`, which returns the
certificate with those integers and the dependency the Radon step read
it off; centerpoint, the tverberg command and the reduction in d >= 2
take it through `_partition_and_depth`, on the k-fold lift (`_lift`,
the configuration itself at k = 1).
"""
from __future__ import annotations

import functools
import operator
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

from .exactlp import (
    _common_point,
    _fractions,
    strict_separator,  # unused: perfbench/tests/test_bench_trace.py traces this binding
)
from .rationals import Frozen, Point, Scaled, bareiss_eliminate, rat, read_scaled
from .rng import SplitMix64


class PointConfig(Frozen):
    """A labeled list of exact rational points in R^d (labels 0..n-1).

    The points are read once, by `read_scaled` (a `Scaled` value is taken
    as already read), into `scaled`: integer rows over one positive scale
    L, which every routine here reads.  It is not a field, so equality,
    hashing and repr ignore it; the field `points`, their `Fraction`s, is
    built from those integers on first read."""

    _fields = ("d", "points")

    def __init__(self, d: int, points: Union[Scaled, Sequence[Sequence]]):
        scaled = read_scaled(points)
        if any(len(p) != d for p in scaled.rows):
            raise ValueError("point dimension mismatch")
        vars(self).update(d=d, scaled=scaled)

    @property
    def n(self) -> int:
        return len(self.scaled.rows)

    @functools.cached_property
    def points(self) -> Tuple[Point, ...]:
        L, rows = self.scaled
        return tuple(tuple(Fraction(c, L) for c in p) for p in rows)


def random_point_config(
    d: int, n: int, rng: SplitMix64, num_bound: int = 9, den_bound: int = 4
) -> PointConfig:
    return PointConfig(
        d, tuple(rng.rational_point(d, num_bound, den_bound) for _ in range(n))
    )


class DepthCertificate(NamedTuple):
    """x, its exact Tukey depth, and a closed halfspace
    {y : coeffs.y + offset >= 0} containing x together with exactly
    `depth` points of the configuration."""

    point: Point
    depth: int
    halfspace_coeffs: Point
    halfspace_offset: Fraction


class TverbergCertificate(NamedTuple):
    """A partition of the labels into blocks whose hulls share `point`,
    with exact convex weights per block writing the point."""

    blocks: Tuple[Tuple[int, ...], ...]
    point: Point
    weights: Tuple[Tuple[Fraction, ...], ...]


class ReductionPlan(NamedTuple):
    """Parameters of the prime lift: R = k(r-1)+1 prime, each point taken
    k times, so an R-part partition upstairs forces the depth bound for r
    parts downstairs."""

    r: int
    d: int
    k: int
    R: int
    m: int
    M: int


def check_depth_certificate(cert: DepthCertificate, config: PointConfig) -> bool:
    """_depth_holds on the point and (coeffs, offset) read at once as X/K and (a, a0)/K."""
    K, (X, (*a, a0)) = read_scaled([cert.point, (*cert.halfspace_coeffs, cert.halfspace_offset)])
    return _depth_holds(K, X, a, a0, cert.depth, config)


def _depth_holds(K: int, X: Sequence[int], a: Sequence[int], a0: int, depth: int, config: PointConfig) -> bool:
    """The halfspace holds the point and exactly `depth` points, on integers
    over one K > 0: over the configuration as scaled once (P/L),
    a.X + K a0 >= 0 and a.P + L a0 >= 0 for exactly `depth` points P."""
    L, P = config.scaled
    inside = sum(sum(map(operator.mul, a, p)) + L * a0 >= 0 for p in P)
    return sum(map(operator.mul, a, X)) + K * a0 >= 0 and inside == depth


def _primitive(w: Sequence[int]) -> Tuple[int, ...]:
    """The primitive integer vector on the line of w (nonzero), with its
    first nonzero entry positive."""
    g = gcd(*w)
    if next(filter(None, w)) < 0:
        g = -g
    return tuple(c // g for c in w)


def _fewest_on_open_side(
    W: Sequence[Tuple[int, ...]], d: int, stop: int
) -> Tuple[int, List[int], int]:
    """The fewest w in W (nonzero integer vectors) with u.w > 0 over
    functionals u on R^d that vanish on no w, and such a u as an integer
    vector U over a positive denominator q, in lowest terms.  The cell of
    an optimal u has a facet on some hyperplane u.v = 0 with v in W, so u
    is a recursive answer for W projected along v, tilted off u.v = 0 to
    put the w on the line of v on their smaller side.  Each w is projected
    to v_k*w - w_k*v, a positive multiple of w - w_k*(v/v_k), which keeps
    every sign the recursion reads and keeps the vectors integer.

    The search returns as soon as its best count is <= stop, a proven
    lower bound on the answer (-1 never stops it early).
    Every branch counts a real functional, so the first branch to reach
    the bound is the first minimum, the one the full scan keeps; a sub-call
    gets the bound less the count its tilt adds, which bounds its own
    answer from below by the same argument."""
    if not W:
        return 0, [0] * d, 1
    best = None
    seen = set()
    for v in map(_primitive, W):
        if v in seen:
            continue
        seen.add(v)
        k = next(i for i, c in enumerate(v) if c)
        vk = v[k]
        proj = [tuple(vk * c - w[k] * vc for c, vc in zip(w, v)) for w in W]
        off = [i for i, p in enumerate(proj) if any(p)]
        pos = sum(1 for w, p in zip(W, proj) if w[k] > 0 and not any(p))
        neg = len(W) - len(off) - pos
        tilt = min(pos, neg)
        count, U, q = _fewest_on_open_side([proj[i] for i in off], d, stop - tilt)
        count += tilt
        if best is None or count < best[0]:
            # u[k] -= u.v / v_k over the denominator q*v_k (v_k > 0): now u.v = 0
            uv = sum(map(operator.mul, U, v))
            U = [c * vk for c in U]
            U[k] -= uv
            q *= vk
            # a tilt eps = e/(q*f) along e_k too small to flip the sign of any
            # u.w off the line: the least |U.w| / (2|w_k|) by cross-multiplying
            # (f = 0 until one is seen), or 1 when no such w has w_k != 0
            e, f = q, 0
            for w in (W[i] for i in off if W[i][k]):
                ew, fw = abs(sum(map(operator.mul, U, w))), 2 * abs(w[k])
                if not f or ew * f < e * fw:
                    e, f = ew, fw
            f = f or 1
            U = [c * f for c in U]
            U[k] += e if pos <= neg else -e
            q *= f
            g = gcd(q, *U)
            best = (count, [c // g for c in U], q // g)
            if count <= stop:
                break
    return best


def tukey_depth(x: Sequence, config: PointConfig, lower: Optional[int] = None) -> DepthCertificate:
    """Exact halfspace depth of x in the configuration, by an exact recursion
    over the dimension (no LP): with w = p - x, the number of w = 0 plus the
    fewest nonzero w with u.w > 0; the witness halfspace is u.(y - x) >= 0.
    x is read as X/E in lowest terms; a one-row `Scaled` value, the
    integers a producer holds, is taken as read, with no Fraction of it
    read back.  With the configuration's one scaling P/L, the recursion runs
    on the integers E P - L X (w times L E > 0, which keeps every count and
    tilt, and U/q with them); _depth_holds checks the halfspace over K = q E,
    a = E U and a0 = -U.X, at the point q X.  It scans every
    branch, or, when `lower` is a proven lower bound on the depth, stops as
    soon as a halfspace holds `lower` points; a depth below that bound is an
    internal error."""
    if isinstance(x, Scaled):
        E, (X,) = x
        g = gcd(E, *X)
        E, X = E // g, [c // g for c in X]
        xx = tuple(Fraction(c, E) for c in X)
    else:
        xx = tuple(rat(c) for c in x)
        E, (X,) = read_scaled([xx])
    if len(xx) != config.d:
        raise ValueError("point dimension mismatch")
    L, P = config.scaled
    W = [tuple(E * c - L * xc for c, xc in zip(p, X)) for p in P]
    nonzero = [w for w in W if any(w)]
    zeros = config.n - len(nonzero)
    stop = -1 if lower is None else lower - zeros
    count, U, q = _fewest_on_open_side(nonzero, config.d, stop)
    if lower is not None and zeros + count < lower:
        raise RuntimeError(f"depth {zeros + count} below the proven lower bound {lower}")
    K, a, a0 = q * E, [E * c for c in U], -sum(map(operator.mul, U, X))
    if not _depth_holds(K, [q * c for c in X], a, a0, zeros + count, config):
        raise RuntimeError("depth certificate failed verification")
    return DepthCertificate(xx, zeros + count, tuple(Fraction(c, K) for c in a), Fraction(a0, K))


# ---------------------------------------------------------------------------
# canonical partition enumeration
# ---------------------------------------------------------------------------

def _partitions(
    n: int, r: int, points: Sequence[Tuple[int, ...]]
) -> Iterator[Tuple[Tuple[int, ...], ...]]:
    """The partitions of 0..n-1 into r nonempty blocks, in canonical
    (restricted-growth-string, lexicographic) order, given one integer
    point per label (scaled by one positive common factor, which keeps
    every comparison), with only those whose blocks' coordinate ranges
    share a point in every coordinate, a necessary condition for their
    hulls to meet.  One loop walks the string (no recursion, so no limit
    on n), keeping per label its block (-1 unplaced), the blocks open
    before it and its block's per-coordinate (min, max) before it joined,
    restored on a step back; so a partition is screened in O(d r)."""
    if r < 1 or r > n:
        return
    members: List[List[int]] = [[] for _ in range(r)]
    lo: List[Tuple[int, ...]] = [()] * r
    hi: List[Tuple[int, ...]] = [()] * r
    block, opened, saved = [-1] * n, [0] * (n + 1), [((), ())] * n
    i = 0
    while i >= 0:
        if i == n:
            if r == 1 or all(map(operator.le, map(max, *lo), map(min, *hi))):
                yield tuple(map(tuple, members))
            i -= 1
            continue
        b, used = block[i], opened[i]
        # label i joins an open block while the n - i - 1 labels after it can
        # still open the rest, or opens block `used` while fewer than r are open
        if b >= 0:
            members[b].pop()
            lo[b], hi[b] = saved[i]
            b += 1
        else:
            b = 0 if used + n - i > r else used
        if b > used or b >= r:
            block[i] = -1
            i -= 1
            continue
        p, joined = points[i], members[b]
        if joined:
            saved[i] = lb, hb = lo[b], hi[b]
            lo[b], hi[b] = tuple(map(min, lb, p)), tuple(map(max, hb, p))
        else:
            saved[i] = ((), ())
            lo[b] = hi[b] = p
        joined.append(i)
        block[i], opened[i + 1], i = b, used + (b == used), i + 1


def tverberg_partition(config: PointConfig, r: int) -> Optional[TverbergCertificate]:
    """First (canonical order) partition into r blocks whose hulls intersect.

    For r = 2, when the points have one affine dependency up to scale (as
    d + 2 points in general position do), the partition and its weights
    are read off it (_radon_partition) and no LP is solved.  Otherwise the
    search is exhaustive over set partitions, in canonical order
    (_partitions); a candidate is rejected if its blocks' coordinate
    ranges miss each other (over the points scaled to integers once), or
    if an earlier candidate's Farkas certificate already separates its
    blocks; otherwise it is settled by an exact LP built from the same
    integers.  Each failed LP leaves a cut: functionals u_j with sum 0,
    kept as the integer table T[j][v] = u_j.P_v, and a later candidate
    whose block minima of T sum to a positive number has no common point
    (see common_point_with_weights).  The cuts are tried most recently hit
    first.  Returns None when no partition works (possible below the
    guaranteed size).  The certificate is _partition's."""
    found = _partition(config, r)
    return None if found is None else found[0]


def _partition(
    config: PointConfig, r: int
) -> Optional[Tuple[TverbergCertificate, int, Tuple[int, ...], Optional[Tuple[int, ...]]]]:
    """tverberg_partition's certificate, with the integers K and X of its
    point X/K and kappa, the affine dependency it was read off, or None for
    kappa when the canonical search answered: at r = 2 the Radon step runs
    once, and the search only if it gives no answer."""
    if r < 1:
        raise ValueError("need at least one block")
    found = _radon_partition(config) if r == 2 else None
    if found is not None:
        return found
    ints = config.scaled.rows
    cuts: List[List[List[int]]] = []
    for blocks in _partitions(config.n, r, ints):
        for k, table in enumerate(cuts):
            if _separates(table, blocks):
                cuts.insert(0, cuts.pop(k))
                break
        else:
            found = _partition_certificate(config, blocks)
            if isinstance(found[0], TverbergCertificate):
                return (*found, None)
            table = [[sum(map(operator.mul, u, p)) for p in ints] for u in found]
            if not _separates(table, blocks):
                raise RuntimeError("a Farkas cut does not separate its own partition")
            cuts.insert(0, table)
    return None


def _affine_dependency(config: PointConfig) -> Optional[Tuple[int, ...]]:
    """The points' affine dependency when it is unique up to scale: the
    primitive integer vector kappa with sum kappa_v P_v = 0 = sum kappa_v,
    its first nonzero entry positive, if those vectors are one line; None
    otherwise (always for n <= 1).  kappa = (-sum lambda, lambda) for lambda
    in the kernel of the d x (n-1) matrix of differences P_k - P_0, a line
    when its rank is n - 2.  One `bareiss_eliminate`: over its last pivot D,
    each pivot column c has D in its row i, so with f the one free column,
    lambda_f = D and lambda_c = -row_i[f]."""
    n = config.n
    if n <= 1:
        return None
    p0, *rest = config.scaled.rows
    rows = [[p[i] - c for p in rest] for i, c in enumerate(p0)]
    D, pivots = bareiss_eliminate(rows, n - 1)
    if len(pivots) != n - 2:
        return None
    (f,) = set(range(n - 1)) - pivots.keys()
    lam = [D if j == f else -rows[pivots[j]][f] for j in range(n - 1)]
    return _primitive([-sum(lam), *lam])


def _radon_partition(
    config: PointConfig,
) -> Optional[Tuple[TverbergCertificate, int, List[int], Tuple[int, ...]]]:
    """The first 2-block partition in canonical order whose hulls meet, read
    off the affine dependency kappa when it is unique up to scale (Radon),
    with the integers X over K of its point and kappa; None when kappa is
    not unique, and the search decides.  A common point writes
    (point, 1) from each block with nonnegative weights, and their
    difference is a multiple of kappa, so the meeting partitions are the
    ones that part kappa's positive entries from its negative ones.  The
    first in canonical order puts every label it can in block 0: with kappa
    oriented so that its first nonzero entry is positive, block 0 is
    {v : kappa_v >= 0}.  The weights are unique, kappa on block 0 and
    -kappa on block 1, each over their sum S, so they are the LP's.  That
    kappa is such a dependency is checked in integers, and the certificate
    by _tverberg_holds on the integers over K = S L that make it: the point
    X = sum of kappa_v P_v over block 0, the weights L kappa and -L kappa."""
    kappa = _affine_dependency(config)
    if kappa is None:
        return None
    L, P = config.scaled
    columns = [*zip(*P), (1,) * config.n]
    if next(filter(None, kappa), 0) <= 0 or any(sum(map(operator.mul, kappa, c)) for c in columns):
        raise RuntimeError("affine dependency failed verification")
    blocks = (tuple(v for v, k in enumerate(kappa) if k >= 0),
              tuple(v for v, k in enumerate(kappa) if k < 0))
    first = [kappa[v] for v in blocks[0]]
    K = sum(first) * L
    X = [sum(map(operator.mul, first, c)) for c in zip(*(P[v] for v in blocks[0]))]
    weights = ([L * k for k in first], [-L * kappa[v] for v in blocks[1]])
    if not _tverberg_holds(blocks, K, X, weights, config):
        raise RuntimeError("partition certificate failed verification")
    cert = TverbergCertificate(blocks, tuple(Fraction(c, K) for c in X),
                               tuple(tuple(Fraction(c, K) for c in w) for w in weights))
    return cert, K, X, kappa


def _radon_depth(config: PointConfig, cert: TverbergCertificate, K: int, X: Sequence[int],
                 kappa: Sequence[int]) -> DepthCertificate:
    """Depth 2 at the Radon point x = X/K of _radon_partition's certificate:
    its two blocks bound the depth below, and one linear solve (no
    recursion) gives a halfspace through x holding exactly two points:
    i0, the first label with kappa > 0, and j0, the first with kappa < 0
    (j0 > i0 >= 0, kappa's first nonzero entry being positive).  The
    points P_k, k != j0, are affinely independent, so one
    `bareiss_eliminate` of the n - 2 rows (P_k - P_0 | [k = i0] - [i0 =
    0]), k not in {0, j0}, free unknowns 0 and its last pivot D made
    positive, gives an integer u (0 when n = 2) with u.P_k equal to some c
    for every k but i0 and j0, and u.P_i0 = c + 1.  As sum kappa_v P_v = 0
    and sum kappa_v = 0, u.P_j0 = c + kappa_i0/|kappa_j0| and u.(L x) = c +
    kappa_i0/S, S the sum of kappa over block 0, which is above c and at
    most both.  So {u.y >= u.x} holds x, i0 and j0 and no other point;
    _depth_holds checks a = K u, a0 = -u.X at the Radon step's own X/K,
    and the Fractions are u and -u.X/K."""
    P = config.scaled.rows
    i0 = next(i for i, k in enumerate(kappa) if k > 0)
    j0 = next(j for j, k in enumerate(kappa) if k < 0)
    p0, h0 = P[0], i0 == 0
    rows = [[*map(operator.sub, p, p0), (k == i0) - h0] for k, p in enumerate(P) if k and k != j0]
    D, pivots = bareiss_eliminate(rows, config.d)
    u = [0] * config.d
    for j, i in pivots.items():
        u[j] = rows[i][-1] if D > 0 else -rows[i][-1]
    a, a0 = [K * c for c in u], -sum(map(operator.mul, u, X))
    if not _depth_holds(K, X, a, a0, 2, config):
        raise RuntimeError("depth certificate failed verification")
    return DepthCertificate(cert.point, 2, tuple(map(Fraction, u)), Fraction(a0, K))


def _separates(table: Sequence[Sequence[int]], blocks: Tuple[Tuple[int, ...], ...]) -> bool:
    """Whether the cut table T[j][v] = u_j.P_v proves that the blocks' hulls
    share no point: sum_j min_{v in block j} T[j][v] > 0."""
    return sum(min(map(t.__getitem__, b)) for t, b in zip(table, blocks)) > 0


def _partition_certificate(
    config: PointConfig, blocks: Tuple[Tuple[int, ...], ...]
) -> Union[Tuple[TverbergCertificate, int, Tuple[int, ...]], Tuple[Tuple[int, ...], ...]]:
    """The certificate of a partition whose block hulls meet, with the
    integers X over K of its point; if the hulls share no point, the
    functionals u_j that separate them (as exactlp._common_point gives
    them).  The blocks go to the LP as the configuration's integer points
    P over its one L.  The certificate is checked where it is made, by
    _tverberg_holds on the LP's integers: with the witness W over D, K =
    D L, the weights L W_v and X = sum of W_v P_v over block 0; the
    Fractions, W_v / D and X/K, are built after the check."""
    L, ints = config.scaled
    found = _common_point(L, [[ints[l] for l in b] for b in blocks])
    if found[0] is None:
        return found[1]
    W, D = found
    parts, start = [], 0
    for b in blocks:
        parts.append(W[start:start + len(b)])
        start += len(b)
    K = D * L
    X = tuple(sum(map(operator.mul, parts[0], c)) for c in zip(*(ints[l] for l in blocks[0])))
    if not _tverberg_holds(blocks, K, X, [[L * w for w in ws] for ws in parts], config):
        raise RuntimeError("partition certificate failed verification")
    point = tuple(Fraction(c, K) for c in X)
    return TverbergCertificate(blocks, point, tuple(_fractions(ws, D) for ws in parts)), K, X


def check_tverberg_certificate(cert: TverbergCertificate, config: PointConfig) -> bool:
    """_tverberg_holds on the point and all the weights read at once as X/K and w_j/K."""
    K, (X, *weights) = read_scaled([cert.point, *cert.weights])
    return _tverberg_holds(cert.blocks, K, X, weights, config)


def _tverberg_holds(blocks: Sequence[Sequence[int]], K: int, X: Sequence[int],
                    weights: Sequence[Sequence[int]], config: PointConfig) -> bool:
    """The blocks partition the labels and one weight tuple per block writes
    the point, on integers over one K > 0: over the configuration as scaled
    once (P/L), each block's weights are nonnegative, sum to K and have
    sum_j w_j P_j == L X.  K <= 0 is refused (over K = 0, zero weights
    would pass)."""
    labels = sorted(l for b in blocks for l in b)
    if K <= 0 or labels != list(range(config.n)) or len(weights) != len(blocks) or len(X) != config.d:
        return False
    L, P = config.scaled
    for block, w in zip(blocks, weights):
        if len(block) != len(w) or any(c < 0 for c in w) or sum(w) != K:
            return False
        for i in range(config.d):
            if sum(c * P[l][i] for c, l in zip(w, block)) != L * X[i]:
                return False
    return True


def guaranteed_size(d: int, r: int) -> int:
    return (d + 1) * (r - 1) + 1


def centerpoint(config: PointConfig, r: int) -> Optional[DepthCertificate]:
    """A point of Tukey depth >= r, taken as the common point of a Tverberg
    partition.  None only if the partition search fails, which cannot
    happen at n >= (d+1)(r-1)+1."""
    return _partition_and_depth(config, r)[1]


def _lift(config: PointConfig, k: int) -> PointConfig:
    """The k-fold lift: each integer row of `config.scaled` taken k times
    in a row, over the same scale (distinct labels, identical
    coordinates); `config` itself when k = 1."""
    if k == 1:
        return config
    L, P = config.scaled
    return PointConfig(config.d, Scaled(L, [p for p in P for _ in range(k)]))


def _partition_and_depth(
    config: PointConfig, r: int, k: int = 1
) -> Tuple[Optional[TverbergCertificate], Optional[DepthCertificate]]:
    """_partition's partition of the k-fold lift into k(r-1)+1 blocks and
    the depth >= r in `config` of its common point, certified from both
    sides (None, None when no partition works): where the Radon step
    answered (kappa set, so k = 1 and r = 2), depth 2 from its integers
    (_radon_depth); else tukey_depth from the point's integers, stopped at
    the blocks' bound (_depth_from_lifted_partition)."""
    found = _partition(_lift(config, k), k * (r - 1) + 1)
    if found is None:
        return None, None
    cert, K, X, kappa = found
    if kappa is not None:
        return cert, _radon_depth(config, *found)
    return cert, _depth_from_lifted_partition(config, k, r, cert, K, X)


def _depth_from_lifted_partition(
    config: PointConfig, k: int, r: int, cert: TverbergCertificate, K: int, X: Sequence[int]
) -> DepthCertificate:
    """Depth >= r in `config` of the common point X/K of a partition of its
    k-fold lift, from both sides.  Label i of the lift is point i // k of
    `config`, and every closed halfspace through the point holds a lifted
    point of each block, so at least ceil(#blocks / k) points of `config`;
    tukey_depth's halfspace, found on `config` itself with its one scaling
    and on the point's integers as the partition's producer made them,
    bounds it from above, and its search stops where the two bounds meet.
    The certificate was checked where it was made."""
    lower = -(-len(cert.blocks) // k)
    if lower < r:
        raise RuntimeError(f"{len(cert.blocks)} blocks of a {k}-fold lift: depth < {r}")
    return tukey_depth(Scaled(K, [X]), config, lower)


# ---------------------------------------------------------------------------
# the prime lift
# ---------------------------------------------------------------------------

def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % p for p in range(2, isqrt(n) + 1))


def reduction_plan(r: int, d: int) -> ReductionPlan:
    """Smallest k >= 1 making R = k(r-1)+1 prime, with the lift's sizes
    m = (d+1)(r-1) and M = (R-1)(d+1) + k - 1.  The counting argument's
    identities M + 1 = k(m + 1) and k(r-1)d + k + R = M + 2 follow from
    these two formulas."""
    if r < 2:
        raise ValueError("reduction needs r >= 2")
    if d < 1:
        raise ValueError("dimension must be positive")
    k = 1
    while not _is_prime(k * (r - 1) + 1):
        k += 1
    R = k * (r - 1) + 1
    m = (d + 1) * (r - 1)
    M = (R - 1) * (d + 1) + k - 1
    return ReductionPlan(r=r, d=d, k=k, R=R, m=m, M=M)


def _lifted_partition_1d(lifted: PointConfig, R: int) -> Tuple[TverbergCertificate, int, Tuple[int]]:
    """An R-part Tverberg partition of a k-fold lift on a line, with no LP,
    and the integer X over L of its point: the i-th smallest point paired
    with the i-th largest for i < R, and the k in the middle (each block
    and the list sorted).  Over the lift's one scaling P/L, X, the largest
    block minimum, is the median; a block with least point a and greatest
    b writes X/L with (b - X)/(b - a) on a and (X - a)/(b - a) on b, or
    all on a when a = b.  The certificate is checked here, by
    _tverberg_holds on these integers over K = L S, S the lcm of the
    nonzero spans b - a: the point X S and the weights (b - X) K/(b - a) and
    (X - a) K/(b - a), or K; its Fractions are built from them after the
    check."""
    L, P = lifted.scaled
    n, x = len(P), [p[0] for p in P]
    order = sorted(range(n), key=lambda i: (x[i], i))
    blocks = tuple(sorted([tuple(sorted((order[i], order[n - 1 - i]))) for i in range(R - 1)]
                          + [tuple(sorted(order[R - 1:n - R + 1]))]))
    X = max(min(map(x.__getitem__, b)) for b in blocks)
    ends = [(min(b, key=x.__getitem__), max(b, key=x.__getitem__)) for b in blocks]
    S = lcm(*(x[hi] - x[lo] for lo, hi in ends if x[hi] != x[lo]))
    K = L * S
    weights = []
    for b, (lo, hi) in zip(blocks, ends):
        span = x[hi] - x[lo]
        w = {lo: K // span * (x[hi] - X), hi: K // span * (X - x[lo])} if span else {lo: K}
        weights.append([w.get(l, 0) for l in b])
    if not _tverberg_holds(blocks, K, (X * S,), weights, lifted):
        raise RuntimeError("partition certificate failed verification")
    return TverbergCertificate(blocks, (Fraction(X, L),), tuple(_fractions(w, K) for w in weights)), L, (X,)


def reduce_central_from_tverberg(config: PointConfig, r: int) -> DepthCertificate:
    """Depth >= r certificate via an R-part partition of the k-fold lift
    (_lift) into R = k(r-1)+1 prime parts whose hulls share a point: on a
    line by pairing from both ends, certified by construction with no LP
    (_lifted_partition_1d), elsewhere by _partition_and_depth, whose
    search at k = 1 is centerpoint's, Radon step included.  The R blocks
    prove depth >= ceil(R/k) = r."""
    d = config.d
    plan = reduction_plan(r, d)
    if config.n != plan.m + 1:
        raise ValueError(
            f"reduction expects exactly m+1 = {plan.m + 1} points, got {config.n}"
        )
    if d == 1:
        found = _lifted_partition_1d(_lift(config, plan.k), plan.R)
        cert = _depth_from_lifted_partition(config, plan.k, r, *found)
    else:
        cert = _partition_and_depth(config, r, plan.k)[1]
    if cert is None:
        raise RuntimeError("no Tverberg partition of the lifted cloud")
    return cert
