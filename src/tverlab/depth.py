"""Tukey depth, centerpoints, Tverberg partitions, and the prime lift.

Everything is exact: depth comes from a recursion over the dimension that
projects the points along each line through the query point (no LP),
Tverberg partitions come from a canonical brute-force scan with an LP
feasibility check per candidate, and the reduction to a prime number of
parts duplicates each point k times and partitions the lifted cloud.  A
centerpoint's depth >= r is certified from both sides: the blocks give the
lower bound, the depth halfspace the upper bound.  A configuration is
scaled to integers once (`PointConfig.scaled`); the depth recursion, the
partition screen, each candidate's LP rows and both certificate checks
read that one scaling.
"""
from __future__ import annotations

import functools
import itertools
import json
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterator, List, Optional, Sequence, Tuple

from .exactlp import (
    common_point_with_weights,
    in_convex_hull,
    strict_separator,  # unused: perfbench/tests/test_bench_trace.py traces this binding
)
from .rationals import Point, Scaled, integer_scaled, rat, read_json_rows, read_scaled
from .rng import SplitMix64


@dataclass(frozen=True)
class PointConfig:
    """A labeled list of exact rational points in R^d (labels 0..n-1).

    `scaled` holds the points scaled to integers once, by the lcm L of
    their denominators; it is computed on first use and is not a field,
    so equality, hashing and repr ignore it."""

    d: int
    points: Tuple[Point, ...]

    def __post_init__(self):
        for p in self.points:
            if len(p) != self.d:
                raise ValueError("point dimension mismatch")

    @property
    def n(self) -> int:
        return len(self.points)

    @functools.cached_property
    def scaled(self) -> Scaled:
        return read_scaled(self.points)

    def subset(self, labels: Sequence[int]) -> List[Point]:
        return [self.points[i] for i in labels]

    @classmethod
    def from_json(cls, text: str) -> "PointConfig":
        """The configuration {"d": d, "points": [[scalar, ...], ...]}, with
        d a nonnegative JSON integer and each scalar one `rat` reads.  The
        points, an array of arrays, are read once, by `read_json_rows`;
        their Fractions are built from its integers, and it fills the
        `scaled` cache."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("input must be a JSON object")
        d = data["d"]
        if type(d) is not int or d < 0:
            raise ValueError('"d" must be a nonnegative integer')
        scaled = read_json_rows(data, "points")
        L = scaled.scale
        config = cls(d, tuple(tuple(Fraction(c, L) for c in p) for p in scaled.rows))
        vars(config)["scaled"] = scaled
        return config


def point_config(d: int, points: Sequence[Sequence]) -> PointConfig:
    return PointConfig(d, tuple(tuple(rat(c) for c in p) for p in points))


def random_point_config(
    d: int, n: int, rng: SplitMix64, num_bound: int = 9, den_bound: int = 4
) -> PointConfig:
    return PointConfig(
        d, tuple(rng.rational_point(d, num_bound, den_bound) for _ in range(n))
    )


@dataclass(frozen=True)
class DepthCertificate:
    """x, its exact Tukey depth, and a closed halfspace
    {y : coeffs.y + offset >= 0} containing x together with exactly
    `depth` points of the configuration."""

    point: Point
    depth: int
    halfspace_coeffs: Point
    halfspace_offset: Fraction


@dataclass(frozen=True)
class TverbergCertificate:
    """A partition of the labels into blocks whose hulls share `point`,
    with exact convex weights per block writing the point."""

    blocks: Tuple[Tuple[int, ...], ...]
    point: Point
    weights: Tuple[Tuple[Fraction, ...], ...]


@dataclass(frozen=True)
class ReductionPlan:
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
    E, (X,) = integer_scaled([cert.point])
    _, ((*a, a0),) = integer_scaled([(*cert.halfspace_coeffs, cert.halfspace_offset)])
    inside = sum(sum(map(operator.mul, a, p)) + L * a0 >= 0 for p in P)
    return sum(map(operator.mul, a, X)) + E * a0 >= 0 and inside == cert.depth


def _primitive(w: Sequence[int]) -> Tuple[int, ...]:
    """The primitive integer vector on the line of w (nonzero), with its
    first nonzero entry positive."""
    g = gcd(*w)
    if next(filter(None, w)) < 0:
        g = -g
    return tuple(c // g for c in w)


def _fewest_on_open_side(W: Sequence[Tuple[int, ...]], d: int) -> Tuple[int, List[int], int]:
    """The fewest w in W (nonzero integer vectors) with u.w > 0 over
    functionals u on R^d that vanish on no w, and such a u as an integer
    vector U over a positive denominator q.  The cell of an optimal u has
    a facet on some hyperplane u.v = 0 with v in W, so u is a recursive
    answer for W projected along v, tilted off u.v = 0 to put the w on the
    line of v on their smaller side.  Each w is projected to v_k*w - w_k*v,
    a positive multiple of w - w_k*(v/v_k), which keeps every sign the
    recursion reads and keeps the vectors integer."""
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
        count, U, q = _fewest_on_open_side([proj[i] for i in off], d)
        count += min(pos, neg)
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
    return best


def tukey_depth(x: Sequence, config: PointConfig) -> DepthCertificate:
    """Exact halfspace depth of x in the configuration, by an exact recursion
    over the dimension (no LP): with w = p - x, the number of w = 0 plus the
    fewest nonzero w with u.w > 0; the witness halfspace is u.(y - x) >= 0.
    The points and x are brought to integers over the lcm M of all their
    denominators, a common positive factor that keeps every count and tilt,
    from the configuration's one scaling (over L) and x's (over E); the
    recursion runs on the integer w."""
    xx = tuple(rat(c) for c in x)
    if len(xx) != config.d:
        raise ValueError("point dimension mismatch")
    L, P = config.scaled
    E, (X,) = integer_scaled([xx])
    M = lcm(L, E)
    if M != L:
        P = [tuple(c * (M // L) for c in p) for p in P]
    X = tuple(c * (M // E) for c in X)
    W = [tuple(c - xc for c, xc in zip(p, X)) for p in P]
    nonzero = [w for w in W if any(w)]
    count, U, q = _fewest_on_open_side(nonzero, config.d)
    u = tuple(Fraction(c, q) for c in U)
    offset = Fraction(-sum(map(operator.mul, U, X)), q * M)
    cert = DepthCertificate(xx, config.n - len(nonzero) + count, u, offset)
    if not check_depth_certificate(cert, config):
        raise RuntimeError("depth certificate failed verification")
    return cert


def hull_membership_depth(x: Sequence, config: PointConfig, q: int) -> bool:
    """Is x in the convex hull of every q-point subset of the configuration?

    Equivalent to tukey_depth(x) >= n - q + 1; this is the Hahn-Banach
    restatement that the tests exercise from both sides.
    """
    if not 1 <= q <= config.n:
        raise ValueError("subset size out of range")
    xx = tuple(rat(c) for c in x)
    for subset in itertools.combinations(range(config.n), q):
        if in_convex_hull(xx, config.subset(subset)) is None:
            return False
    return True


# ---------------------------------------------------------------------------
# canonical partition enumeration
# ---------------------------------------------------------------------------

def iter_partitions(n: int, r: int) -> Iterator[Tuple[Tuple[int, ...], ...]]:
    """All partitions of 0..n-1 into exactly r nonempty blocks, in canonical
    (restricted-growth-string, lexicographic) order.

    Block lists come out sorted by smallest element, which the RGS encoding
    guarantees."""
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


def _bbox_reject(blocks_points: Sequence[Sequence[Tuple[int, ...]]], d: int) -> bool:
    """Cheap necessary condition: per coordinate, the blocks' ranges must
    share a point.  The points come scaled to integers by one positive
    common factor, which keeps every comparison."""
    for i in range(d):
        lo = max(min(p[i] for p in block) for block in blocks_points)
        hi = min(max(p[i] for p in block) for block in blocks_points)
        if lo > hi:
            return True
    return False


def tverberg_partition(config: PointConfig, r: int) -> Optional[TverbergCertificate]:
    """First (canonical order) partition into r blocks whose hulls intersect.

    Exhaustive over set partitions; each candidate is screened by a
    bounding-box test on the points scaled to integers once, and settled
    by an exact LP built from the same integers.  Returns None when no
    partition works (possible below the guaranteed size)."""
    if r < 1:
        raise ValueError("need at least one block")
    if r > config.n:
        return None
    ints = config.scaled.rows
    for blocks in iter_partitions(config.n, r):
        if _bbox_reject([[ints[l] for l in b] for b in blocks], config.d):
            continue
        cert = _partition_certificate(config, blocks)
        if cert is not None:
            return cert
    return None


def _partition_certificate(
    config: PointConfig, blocks: Tuple[Tuple[int, ...], ...]
) -> Optional[TverbergCertificate]:
    """The certificate of a partition whose block hulls meet, checked here
    where it is made; None if the hulls share no point.  The blocks go to
    the LP as the configuration's integer points over its one L."""
    L, ints = config.scaled
    found = common_point_with_weights([Scaled(L, [ints[l] for l in b]) for b in blocks])
    if found is None:
        return None
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
    E, (X,) = integer_scaled([cert.point])
    for block, ws in zip(cert.blocks, cert.weights):
        K, (w,) = integer_scaled([ws])
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
    lifted: PointConfig, k: int, r: int, cert: TverbergCertificate
) -> DepthCertificate:
    """Depth >= r of a partition's common point, from both sides.  Label i
    of the k-fold lift is original point i // k, and every closed halfspace
    through the point holds a lifted point of each block, so at least
    ceil(#blocks / k) original points; tukey_depth's halfspace bounds it
    from above.  The certificate was checked where it was made."""
    if -(-len(cert.blocks) // k) < r:
        raise RuntimeError(f"{len(cert.blocks)} blocks of a {k}-fold lift: depth < {r}")
    config = lifted if k == 1 else PointConfig(lifted.d, lifted.points[::k])
    depth = tukey_depth(cert.point, config)
    if depth.depth < r:
        raise RuntimeError("common point of the partition has depth below r")
    return depth


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
    """Smallest k >= 1 making R = k(r-1)+1 prime, with the bookkeeping
    identities the counting argument rests on."""
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
    plan = ReductionPlan(r=r, d=d, k=k, R=R, m=m, M=M)
    if M + 1 != k * (m + 1):
        raise RuntimeError("lift size identity failed")
    if k * (r - 1) * d + k + R != M + 2:
        raise RuntimeError("counting identity failed")
    return plan


def _lifted_partition_1d(
    points: Sequence[Point], R: int
) -> Tuple[Tuple[int, ...], ...]:
    """An R-part Tverberg partition on a line: pair the i-th smallest with
    the i-th largest for i < R, and pool the middle.  Every block's hull
    contains the median, so the hulls intersect."""
    order = sorted(range(len(points)), key=lambda i: (points[i][0], i))
    blocks = []
    for i in range(R - 1):
        blocks.append(tuple(sorted((order[i], order[len(points) - 1 - i]))))
    middle = tuple(sorted(order[R - 1: len(points) - (R - 1)]))
    blocks.append(middle)
    return tuple(sorted(blocks))


def reduce_central_from_tverberg(config: PointConfig, r: int) -> DepthCertificate:
    """Depth >= r certificate via an R-part partition of the k-fold lift.

    Duplicates each point k times (distinct labels, identical coordinates)
    and partitions the lifted cloud into R = k(r-1)+1 prime parts whose
    hulls share a point: on a line by pairing from both ends, elsewhere by
    the canonical search.  The R blocks prove depth >= ceil(R/k) = r."""
    d = config.d
    plan = reduction_plan(r, d)
    if config.n != plan.m + 1:
        raise ValueError(
            f"reduction expects exactly m+1 = {plan.m + 1} points, got {config.n}"
        )
    lifted = PointConfig(d, tuple(p for p in config.points for _ in range(plan.k)))
    if d == 1:
        cert = _partition_certificate(lifted, _lifted_partition_1d(lifted.points, plan.R))
    else:
        cert = tverberg_partition(lifted, plan.R)
    if cert is None:
        raise RuntimeError("no Tverberg partition of the lifted cloud")
    return _depth_from_lifted_partition(lifted, plan.k, r, cert)
