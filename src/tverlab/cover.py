"""Homothety covering radius: smallest delta with S inside delta*K + t.

K is a simplex body in facet-sum form: n+1 rows a_i.y <= b_i with
sum a_i = 0 and sum b_i > 0, bounded exactly when a_0..a_{n-1} are
independent (no y != 0 then has every a_i.y <= 0, as these sum to 0;
else a null vector y of them with a_n.y <= 0 recedes).  Summing
a_i.(s_i - t) <= delta b_i over one point s_i per row cancels t, so
delta >= sum_i top_i / sum_i b_i with top_i = max over s in S of a_i.s,
and equality holds exactly when every row is tight at some point.  The
certificate records delta, the translate solving a_i.t = top_i - delta b_i,
and the tight pairs.  The covering work is on integers from input to
certificate: each row is scaled by the lcm of its own denominators and
the points by one common denominator (input scalars are read straight
into those integers by `read_scaled`, with no Fraction per coordinate;
a set read once serves the facet test and the cover), and top_i, delta,
the translate, the check of every (point, row) pair and the tight pairs
are read in integers; only delta and the translate become Fractions, for
the certificate.  The body check and the inverse of the first n rows, which
gives every translate, are one exact elimination per body, and no LP is
solved.  The standard n-simplex ships centered in this form; a
barycentric set is mapped to it by one set-level scaling that drops the
last coordinate and recenters (covering radii are affine invariants).
The fiber demo evaluates an exact map of barycentric coordinates on a
rational grid of the simplex and covers each sampled fiber the same way.
The records are NamedTuples, which `tverlab.cli` writes as JSON lines.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .rationals import Frozen, Point, bareiss_eliminate, integer_scaled, rat, read_scaled

IntPoint = Tuple[int, ...]


class UnboundedBodyError(ValueError):
    """The H-polytope has a recession direction, so homothety covering is
    meaningless (such a body may also be empty)."""


class HPolytopeBody(Frozen):
    """A bounded simplex body {y : rows . y <= rhs} in facet-sum form.

    Building it checks the form and runs one exact elimination on the
    first n rows, which proves the body bounded and gives their inverse.
    The body keeps, for every cover against it, each row scaled by the
    lcm l_i of its own denominators as integers (A_i, B_i) in `int_rows`,
    the `weights` M/l_i with M = lcm l_i, `rhs_sum` = M sum b_i =
    sum B_i M/l_i, and the `inverse` of the first n integer rows as an
    integer matrix over its lcm `inverse_scale`.  These are derived, not
    fields: equality, hashing and repr read `ambient_dim` and `rows`
    only."""

    _fields = ("ambient_dim", "rows")

    def __init__(self, ambient_dim: int, rows: Tuple[Tuple[Point, Fraction], ...]):
        vars(self).update(ambient_dim=ambient_dim, rows=rows)
        self.__post_init__()

    def __post_init__(self):
        """The checks and the derived integer form, once per build; kept
        apart from __init__ so that a wrapper on it counts body builds."""
        for coeffs, _ in self.rows:
            if len(coeffs) != self.ambient_dim:
                raise ValueError("row dimension mismatch")
        if len(self.rows) != self.ambient_dim + 1:
            raise ValueError("need n+1 rows")
        scales, int_rows = [], []
        for a, b in self.rows:
            l, (row,) = integer_scaled([a + (b,)])
            scales.append(l)
            int_rows.append((row[:-1], row[-1]))
        found = _integer_inverse([a for a, _ in int_rows[:-1]])
        if found is None:
            raise UnboundedBodyError("the first n rows are linearly dependent")
        if (
            any(map(sum, zip(*(coeffs for coeffs, _ in self.rows))))
            or sum(rhs for _, rhs in self.rows) <= 0
        ):
            raise ValueError("need coefficients summing to 0, rhs sum > 0")
        m = math.lcm(*scales)
        weights = tuple(m // l for l in scales)
        vars(self).update(
            int_rows=tuple(int_rows),
            weights=weights,
            rhs_sum=sum(b * w for (_, b), w in zip(int_rows, weights)),
            inverse_scale=found[0],
            inverse=found[1],
        )


def _integer_inverse(rows: Sequence[IntPoint]) -> Optional[Tuple[int, Tuple[IntPoint, ...]]]:
    """(E, V) with V/E the inverse of the square integer matrix `rows` and
    E > 0 the lcm of its denominators, or None when the rows are linearly
    dependent.  Fraction-free Gauss-Jordan on [rows | I] over the left
    block (`bareiss_eliminate`): every entry stays an integer minor, and at
    the end the row holding column j's pivot is p e_j on the left and p
    times row j of the inverse on the right, p the last pivot (of either
    sign)."""
    n = len(rows)
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    prev, pivots = bareiss_eliminate(m, n)
    if len(pivots) < n:
        return None
    right = [m[pivots[j]][n:] for j in range(n)]
    g = math.gcd(prev, *(v for row in right for v in row))
    if prev < 0:
        g = -g
    return prev // g, tuple(tuple(v // g for v in row) for row in right)


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
    """The standard n-simplex translated so its barycenter is the origin.

    In these coordinates y_i >= -1/(n+1) and sum y_i <= 1/(n+1); the
    origin is interior, and covering radii agree with the barycentric
    picture because translation does not change them.  The body is
    immutable, so it is built and checked once per n."""
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


def _barycentric_scaled(points: Sequence[Sequence]) -> Tuple[int, List[IntPoint]]:
    """A barycentric set of the standard n-simplex (n+1 coordinates each,
    nonnegative, summing to one), read once with read_scaled (or as read
    already): ((n+1)L and, per point, the integers (n+1)c - L of its first
    n coordinates c), L the lcm of every denominator in the set.
    Point / ((n+1)L) is the point in the centered body's coordinates."""
    L, ints = read_scaled(points)
    if not ints:
        raise ValueError("need at least one point to cover")
    n = len(ints[0]) - 1
    if n < 1:
        raise ValueError("need at least two barycentric coordinates")
    if any(len(p) != n + 1 for p in ints):
        raise ValueError("mixed dimensions")
    if any(min(p) < 0 or sum(p) != L for p in ints):
        raise ValueError("not a barycentric point of the standard simplex")
    return _centered(n, L, ints)


def _centered(n: int, L: int, ints: Sequence[IntPoint]) -> Tuple[int, List[IntPoint]]:
    """Barycentric points ints/L of the standard n-simplex in the centered
    body's coordinates c - 1/(n+1), over the one denominator (n+1)L."""
    k = n + 1
    return k * L, [tuple(k * c - L for c in p[:n]) for p in ints]


class CoverCertificate(NamedTuple):
    delta: Fraction
    translate: Point
    tight: Tuple[Tuple[int, int], ...]  # (point index, body row index) pairs


def _translate(body: HPolytopeBody, rhs: Sequence[int], den: int) -> Tuple[IntPoint, int]:
    """(u, g) with t = u/g the one solution of A_i.t = rhs_i/den over the
    first n integer rows: the body's inverse applied to rhs."""
    return (
        tuple(sum(map(operator.mul, row, rhs)) for row in body.inverse),
        body.inverse_scale * den,
    )


def _cover_scaled(D: int, points: Sequence[IntPoint], body: HPolytopeBody) -> CoverCertificate:
    """The covering certificate of the points P/D (integer P, D > 0).

    With row i scaled to (A_i, B_i) by l_i, dots[p][i] = A_i.P_p, and
    top[i] = T_i, the column's max, gives top_i = T_i/(l_i D); so
    delta = num/den with num = sum_i T_i M/l_i and den = D * rhs_sum.  The translate's equations
    are A_i.t = (T_i rhs_sum - num B_i)/den; with t = u/g, row i holds at
    P_p exactly when dots[p][i] * g * rhs_sum <= den A_i.u + num B_i g, one
    integer bound per row."""
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


def min_cover_homothety(
    points: Sequence[Sequence], body: HPolytopeBody
) -> CoverCertificate:
    """Exact smallest delta >= 0 with every point in delta*body + t, by the
    facet-sum identity; the translate solves the first n of the n+1
    equations (the last holds too, as both sides sum to 0) through the
    inverse the body holds.

    The points are scaled to integers once, by the lcm of their
    denominators; delta, the translate, every (point, row) check and the
    tight pairs are then integers over one denominator, and only delta
    and the translate are built as Fractions."""
    L, ints = read_scaled(points)
    if not ints:
        raise ValueError("need at least one point to cover")
    if any(len(p) != body.ambient_dim for p in ints):
        raise ValueError("point dimension mismatch")
    return _cover_scaled(L, ints, body)


def min_cover_barycentric(points_barycentric: Sequence[Sequence]) -> CoverCertificate:
    """min_cover_homothety of a barycentric set against the centered
    standard simplex, with the set scaled to integers once; a set read by
    read_scaled already is used as it is."""
    D, ints = _barycentric_scaled(points_barycentric)
    return _cover_scaled(D, ints, standard_simplex_body(len(ints[0])))


def touches_all_facets(points_barycentric: Sequence[Sequence]) -> bool:
    """Does the set (in barycentric coordinates) touch every facet of the
    simplex, i.e. does every coordinate vanish somewhere?  The set is read
    with read_scaled, so a set read already is used as it is."""
    _, ints = read_scaled(points_barycentric)
    if not ints:
        raise ValueError("need at least one point")
    width = {len(p) for p in ints}
    if len(width) != 1:
        raise ValueError("mixed dimensions")
    return all(not all(col) for col in zip(*ints))


def facet_touching_check(points_barycentric: Sequence[Sequence]) -> bool:
    """touches_all_facets, and when the set touches every facet, assert
    exactly that no strictly smaller homothet covers it:
    min_cover_homothety >= 1."""
    pts = read_scaled(points_barycentric)
    touches = touches_all_facets(pts)
    if touches and min_cover_barycentric(pts).delta < 1:
        raise RuntimeError("facet-touching set covered by a strictly smaller homothet")
    return touches


# ---------------------------------------------------------------------------
# fiber-width exploration (inexact by design: sampled evidence only)
# ---------------------------------------------------------------------------

class FiberCell(NamedTuple):
    cell: Tuple[int, ...]
    count: int
    certificate: CoverCertificate


class FiberReport(NamedTuple):
    source_dim: int
    density: int
    label: str
    cells: List[FiberCell]

    @property
    def max_delta(self) -> Fraction:
        return max(c.certificate.delta for c in self.cells)


def coordinate_projection_map(p: Point) -> Point:
    """First barycentric coordinate of the simplex, onto [0, 1]."""
    return (p[0],)


def constant_map(p: Point) -> Point:
    """Everything to a single point; the lone fiber is the whole simplex."""
    return (Fraction(0),)


def _compositions(n: int, density: int) -> Iterator[IntPoint]:
    """The compositions of density into n+1 nonnegative parts, in the
    order of their cut positions."""
    if density < 1:
        raise ValueError("density must be positive")
    for cut in itertools.combinations(range(density + n), n):
        parts = []
        prev = -1
        for c in cut:
            parts.append(c - prev - 1)
            prev = c
        parts.append(density + n - 1 - prev)
        yield tuple(parts)


def fiber_width_demo(
    n: int,
    f: Callable[[Point], Point],
    density: int,
    label: str = "sampled fibers",
) -> FiberReport:
    """Sampled lower-bound evidence for the width of the fibers of f.

    f takes an exact barycentric point of the standard n-simplex to an
    exact point of some R^k.  Rational grid points of the simplex are
    bucketed by the grid cell of their image; each bucket keeps the
    grid's integer compositions (the points times density), which are
    already barycentric over the one denominator density, and gets an
    exact covering-radius certificate against the simplex from them.
    This is exploratory: results are labeled evidence, not verified
    claims about true fibers."""
    buckets: Dict[Tuple[int, ...], List[IntPoint]] = {}
    for parts in _compositions(n, density):
        image = f(tuple(Fraction(c, density) for c in parts))
        cell = tuple(math.floor(c * density) for c in image)
        buckets.setdefault(cell, []).append(parts)
    body = standard_simplex_body(n)
    cells = []
    for cell in sorted(buckets):
        parts = buckets[cell]
        cert = _cover_scaled(*_centered(n, density, parts), body)
        cells.append(FiberCell(cell=cell, count=len(parts), certificate=cert))
    return FiberReport(source_dim=n, density=density, label=label, cells=cells)
