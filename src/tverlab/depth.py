"""Tukey depth, centerpoints, Tverberg partitions, and the prime lift.

Everything is exact: depth comes from a recursion over the dimension that
projects the points along each line through the query point (no LP),
Tverberg partitions from a scan of the set partitions in canonical order,
except that two blocks are read off the points' affine dependency when it
is unique up to scale (Radon's theorem: d + 2 points in general position,
no LP), and the reduction to a prime number of parts duplicates each
point k times and partitions the lifted cloud.  A centerpoint's depth
>= r is certified from both sides: the blocks give the lower bound, the
depth halfspace the upper bound.  Both searches use the certificates they
already hold: the depth recursion behind a partition stops at the first
halfspace that holds no more points than the blocks guarantee, and the
partition scan settles a candidate by LP only when neither the blocks'
coordinate ranges nor the Farkas certificate of an earlier failed
candidate separate its blocks.  A configuration is its points scaled to
integers once (`PointConfig.scaled`); the depth recursion, the affine
dependency, the partition screens, each candidate's LP rows and both
certificate checks read that one scaling, and none of them builds the
configuration's `Fraction`s (`tverlab.cli` reads --input files; this
module knows no file format).
"""
from __future__ import annotations

import functools
import operator
from fractions import Fraction
from math import gcd, lcm
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

from .exactlp import (
    common_point_with_weights,
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
    """The halfspace holds the point and exactly `depth` points, read over
    the configuration as scaled once (P/L), the point scaled to X/E, and
    (coeffs, offset) scaled by K to integers (a, a0): a.P + L a0 >= 0."""
    L, P = config.scaled
    E, (X,) = read_scaled([cert.point])
    _, ((*a, a0),) = read_scaled([(*cert.halfspace_coeffs, cert.halfspace_offset)])
    inside = sum(sum(map(operator.mul, a, p)) + L * a0 >= 0 for p in P)
    return sum(map(operator.mul, a, X)) + E * a0 >= 0 and inside == cert.depth


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
    vector U over a positive denominator q.  The cell of an optimal u has
    a facet on some hyperplane u.v = 0 with v in W, so u is a recursive
    answer for W projected along v, tilted off u.v = 0 to put the w on the
    line of v on their smaller side.  Each w is projected to v_k*w - w_k*v,
    a positive multiple of w - w_k*(v/v_k), which keeps every sign the
    recursion reads and keeps the vectors integer.

    The search returns as soon as its best count is <= stop, a proven
    lower bound on the answer (-1 never stops it early).
    Every branch counts a real functional, so the first branch to reach
    the bound is the first minimum, the one the full scan keeps; a sub-call
    gets the bound less the count its tilt adds, which bounds its own
    answer from below by the same argument."""
    if not W:
        return 0, [0] * d, 1
    best = None
    for v in dict.fromkeys(map(_primitive, W)):
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
            best = (count, U, q * f)
            if count <= stop:
                break
    return best


def tukey_depth(x: Sequence, config: PointConfig, lower: Optional[int] = None) -> DepthCertificate:
    """Exact halfspace depth of x in the configuration, by an exact recursion
    over the dimension (no LP): with w = p - x, the number of w = 0 plus the
    fewest nonzero w with u.w > 0; the witness halfspace is u.(y - x) >= 0.
    The points and x are brought to integers over the lcm M of all their
    denominators, a common positive factor that keeps every count and tilt,
    from the configuration's one scaling (over L) and x's (over E); the
    recursion runs on the integer w.  It scans every branch, or, when
    `lower` is a proven lower bound on the depth, stops as soon as a
    halfspace holds `lower` points; a depth below that bound is an
    internal error."""
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
    if not check_depth_certificate(cert, config):
        raise RuntimeError("depth certificate failed verification")
    return cert


# ---------------------------------------------------------------------------
# canonical partition enumeration
# ---------------------------------------------------------------------------

def iter_partitions(n: int, r: int) -> Iterator[Tuple[Tuple[int, ...], ...]]:
    """All partitions of 0..n-1 into exactly r nonempty blocks, in canonical
    (restricted-growth-string, lexicographic) order.

    Block lists come out sorted by smallest element, which the RGS encoding
    guarantees."""
    return _partitions(n, r, [()] * n)  # zero-dimensional points pass every screen


def _partitions(
    n: int, r: int, points: Sequence[Tuple[int, ...]]
) -> Iterator[Tuple[Tuple[int, ...], ...]]:
    """iter_partitions, given one integer point per label (scaled by one
    positive common factor, which keeps every comparison), with only the
    partitions whose blocks' coordinate ranges share a point in every
    coordinate, a necessary condition for their hulls to meet.  Each
    block's per-coordinate minimum and maximum are kept on the recursion's
    stack, so a partition is screened in O(d r)."""
    if r < 1 or r > n:
        return
    members: List[List[int]] = [[] for _ in range(r)]
    lo: List[Tuple[int, ...]] = [()] * r
    hi: List[Tuple[int, ...]] = [()] * r

    def rec(i: int, used: int):
        if i == n:
            if all(max(a) <= min(b) for a, b in zip(zip(*lo), zip(*hi))):
                yield tuple(map(tuple, members))
            return
        # label i joins an open block while the n - i - 1 labels after it can
        # still open the rest, or opens block `used` while fewer than r are open
        for b in range(0 if used + n - i > r else used, min(used + 1, r)):
            saved = lo[b], hi[b]
            p = points[i]
            if members[b]:
                lo[b], hi[b] = tuple(map(min, lo[b], p)), tuple(map(max, hi[b], p))
            else:
                lo[b] = hi[b] = p
            members[b].append(i)
            yield from rec(i + 1, used + (b == used))
            members[b].pop()
            lo[b], hi[b] = saved

    yield from rec(0, 0)


def tverberg_partition(config: PointConfig, r: int) -> Optional[TverbergCertificate]:
    """First (canonical order) partition into r blocks whose hulls intersect.

    For r = 2, when the points have one affine dependency up to scale (as
    d + 2 points in general position do), the partition and its weights
    are read off it (_radon_partition) and no LP is solved.  Otherwise the
    search is exhaustive over set partitions, in the order of
    iter_partitions; a candidate is rejected if its blocks' coordinate
    ranges miss each other (over the points scaled to integers once), or
    if an earlier candidate's Farkas certificate already separates its
    blocks; otherwise it is settled by an exact LP built from the same
    integers.  Each failed LP leaves a cut: functionals u_j with sum 0,
    kept as the integer table T[j][v] = u_j.P_v, and a later candidate
    whose block minima of T sum to a positive number has no common point
    (see common_point_with_weights).  The cuts are tried most recently hit
    first.  Returns None when no partition works (possible below the
    guaranteed size)."""
    if r < 1:
        raise ValueError("need at least one block")
    if r == 2:
        found = _radon_partition(config)
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
            if isinstance(found, TverbergCertificate):
                return found
            table = [[sum(map(operator.mul, u, p)) for p in ints] for u in found]
            if not _separates(table, blocks):
                raise RuntimeError("a Farkas cut does not separate its own partition")
            cuts.insert(0, table)
    return None


def _affine_dependency(config: PointConfig) -> Optional[Tuple[int, ...]]:
    """The points' affine dependency when it is unique up to scale: the
    primitive integer vector kappa spanning the kernel of the (d+1) x n
    matrix with columns (P_v, 1), its first nonzero entry positive, if that
    kernel is one line (rank n - 1); None otherwise.  One fraction-free
    Gauss-Jordan elimination (`bareiss_eliminate`): over its last pivot D,
    each pivot column c has D in its row i, so with f the one free column,
    kappa_f = D and kappa_c = -row_i[f]."""
    n = config.n
    rows = [list(c) for c in zip(*config.scaled.rows)] + [[1] * n]
    D, pivots = bareiss_eliminate(rows, n)
    if len(pivots) != n - 1:
        return None
    (f,) = set(range(n)) - pivots.keys()
    return _primitive([D if j == f else -rows[pivots[j]][f] for j in range(n)])


def _radon_partition(config: PointConfig) -> Optional[TverbergCertificate]:
    """The first 2-block partition in canonical order whose hulls meet, read
    off the affine dependency kappa when it is unique up to scale (Radon);
    None when it is not, and the search decides.  A common point writes
    (point, 1) from each block with nonnegative weights, and their
    difference is a multiple of kappa, so the meeting partitions are the
    ones that part kappa's positive entries from its negative ones.  The
    first in canonical order puts every label it can in block 0: with kappa
    oriented so that its first nonzero entry is positive, block 0 is
    {v : kappa_v >= 0}.  The weights are unique, kappa on block 0 and
    -kappa on block 1, each over their sum S, so they are the LP's.  That
    kappa is such a dependency is checked in integers, and the certificate
    by check_tverberg_certificate."""
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
    S = sum(first)
    point = tuple(Fraction(sum(map(operator.mul, first, c)), S * L)
                  for c in zip(*(P[v] for v in blocks[0])))
    weights = (tuple(Fraction(k, S) for k in first),
               tuple(Fraction(-kappa[v], S) for v in blocks[1]))
    cert = TverbergCertificate(blocks, point, weights)
    if not check_tverberg_certificate(cert, config):
        raise RuntimeError("partition certificate failed verification")
    return cert


def _separates(table: Sequence[Sequence[int]], blocks: Tuple[Tuple[int, ...], ...]) -> bool:
    """Whether the cut table T[j][v] = u_j.P_v proves that the blocks' hulls
    share no point: sum_j min_{v in block j} T[j][v] > 0."""
    return sum(min(map(t.__getitem__, b)) for t, b in zip(table, blocks)) > 0


def _partition_certificate(
    config: PointConfig, blocks: Tuple[Tuple[int, ...], ...]
) -> Union[TverbergCertificate, Tuple[Tuple[int, ...], ...]]:
    """The certificate of a partition whose block hulls meet, checked here
    where it is made; if the hulls share no point, the functionals u_j that
    separate them (as common_point_with_weights gives them).  The blocks go
    to the LP as the configuration's integer points over its one L."""
    L, ints = config.scaled
    separators: list = []
    found = common_point_with_weights(
        [Scaled(L, [ints[l] for l in b]) for b in blocks], separators
    )
    if found is None:
        return separators[0]
    cert = TverbergCertificate(blocks, *found)
    if not check_tverberg_certificate(cert, config):
        raise RuntimeError("partition certificate failed verification")
    return cert


def check_tverberg_certificate(cert: TverbergCertificate, config: PointConfig) -> bool:
    """The blocks partition the labels and one weight tuple per block writes
    the point: over the configuration as scaled once (P/L), the point
    scaled to X/E and the weights by K to integers,
    E sum (K w_j) P_j == K L X."""
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


def guaranteed_size(d: int, r: int) -> int:
    return (d + 1) * (r - 1) + 1


def centerpoint(config: PointConfig, r: int) -> Optional[DepthCertificate]:
    """A point of Tukey depth >= r, taken as the common point of a Tverberg
    partition.  None only if the partition search fails, which cannot
    happen at n >= (d+1)(r-1)+1."""
    cert = tverberg_partition(config, r)
    return None if cert is None else _depth_from_lifted_partition(config, 1, r, cert)


def _depth_from_lifted_partition(
    config: PointConfig, k: int, r: int, cert: TverbergCertificate
) -> DepthCertificate:
    """Depth >= r in `config` of the common point of a partition of its
    k-fold lift, from both sides.  Label i of the lift is point i // k of
    `config`, and every closed halfspace through the point holds a lifted
    point of each block, so at least ceil(#blocks / k) points of `config`;
    tukey_depth's halfspace, found on `config` itself with its one scaling,
    bounds it from above, and its search stops where the two bounds meet.
    The certificate was checked where it was made."""
    lower = -(-len(cert.blocks) // k)
    if lower < r:
        raise RuntimeError(f"{len(cert.blocks)} blocks of a {k}-fold lift: depth < {r}")
    return tukey_depth(cert.point, config, lower)


# ---------------------------------------------------------------------------
# the prime lift
# ---------------------------------------------------------------------------

def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    p = 2
    while p * p <= n:
        if n % p == 0:
            return False
        p += 1
    return True


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


def _lifted_partition_1d(
    points: Sequence[Tuple[int, ...]], R: int
) -> Tuple[Tuple[int, ...], ...]:
    """An R-part Tverberg partition on a line: pair the i-th smallest with
    the i-th largest for i < R, and pool the middle.  Every block's hull
    contains the median, so the hulls intersect.  The points are integers
    over one positive scale, which keeps their order."""
    order = sorted(range(len(points)), key=lambda i: (points[i][0], i))
    blocks = []
    for i in range(R - 1):
        blocks.append(tuple(sorted((order[i], order[len(points) - 1 - i]))))
    middle = tuple(sorted(order[R - 1: len(points) - (R - 1)]))
    blocks.append(middle)
    return tuple(sorted(blocks))


def reduce_central_from_tverberg(config: PointConfig, r: int) -> DepthCertificate:
    """Depth >= r certificate via an R-part partition of the k-fold lift.

    Duplicates each integer row of `config.scaled` k times, over the same
    scale (distinct labels, identical coordinates), and partitions the
    lifted cloud into R = k(r-1)+1 prime parts whose hulls share a point:
    on a line by pairing from both ends, elsewhere by the canonical
    search.  The R blocks prove depth >= ceil(R/k) = r."""
    d = config.d
    plan = reduction_plan(r, d)
    if config.n != plan.m + 1:
        raise ValueError(
            f"reduction expects exactly m+1 = {plan.m + 1} points, got {config.n}"
        )
    L, P = config.scaled
    lifted = PointConfig(d, Scaled(L, [p for p in P for _ in range(plan.k)]))
    if d == 1:
        cert = _partition_certificate(lifted, _lifted_partition_1d(lifted.scaled.rows, plan.R))
    else:
        cert = tverberg_partition(lifted, plan.R)
    if not isinstance(cert, TverbergCertificate):
        raise RuntimeError("no Tverberg partition of the lifted cloud")
    return _depth_from_lifted_partition(config, plan.k, r, cert)
