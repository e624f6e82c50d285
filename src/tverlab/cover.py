"""Homothety covering radius: smallest delta with S inside delta*K + t.

K is a simplex body in facet-sum form: n+1 rows a_i.y <= b_i with
sum a_i = 0 and sum b_i > 0, bounded exactly when a_0..a_{n-1} are
independent (no y != 0 then has every a_i.y <= 0, as these sum to 0;
else a null vector y of them with a_n.y <= 0 recedes).  Summing
a_i.(s_i - t) <= delta b_i over one point s_i per row cancels t, so
delta >= sum_i top_i / sum_i b_i with top_i = max over s in S of a_i.s,
and equality holds exactly when every row is tight at some point.  The
certificate records delta, the translate solving a_i.t = top_i - delta b_i,
and the tight pairs.  The covering work is on integers: the points are
scaled by the lcm of their denominators and each row by its own, and
top_i, delta, the check of every (point, row) pair and the tight pairs
are read off one table of integer dot products.  The body check and the
translate are still one exact elimination each, and no LP is solved.
The standard n-simplex ships centered in this form; barycentric sets are mapped to it by dropping the
last coordinate and recentering (covering radii are affine invariants).
The fiber demo evaluates an exact map of barycentric coordinates on a
rational grid of the simplex and covers each sampled fiber the same way.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .rationals import Point, integer_scaled, rat, rat_str


class UnboundedBodyError(ValueError):
    """The H-polytope has a recession direction, so homothety covering is
    meaningless (such a body may also be empty)."""


@dataclass(frozen=True)
class HPolytopeBody:
    """A bounded simplex body {y : rows . y <= rhs} in facet-sum form."""

    ambient_dim: int
    rows: Tuple[Tuple[Point, Fraction], ...]

    def __post_init__(self):
        for coeffs, _ in self.rows:
            if len(coeffs) != self.ambient_dim:
                raise ValueError("row dimension mismatch")
        if len(self.rows) != self.ambient_dim + 1:
            raise ValueError("need n+1 rows")
        if _solve_square(self.rows[:-1]) is None:
            raise UnboundedBodyError("the first n rows are linearly dependent")
        if (
            any(map(sum, zip(*(coeffs for coeffs, _ in self.rows))))
            or sum(rhs for _, rhs in self.rows) <= 0
        ):
            raise ValueError("need coefficients summing to 0, rhs sum > 0")


def _solve_square(rows: Sequence[Tuple[Point, Fraction]]) -> Optional[Point]:
    """The unique t with a.t = c for the n rows (a, c) in n unknowns, by
    Gauss-Jordan elimination, or None when the a are linearly dependent."""
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


def barycentric_to_centered(p: Sequence) -> Point:
    """Map a barycentric point of the standard simplex (n+1 coordinates,
    nonnegative, summing to one) into the centered body's coordinates."""
    pp = tuple(rat(c) for c in p)
    n = len(pp) - 1
    if n < 1:
        raise ValueError("need at least two barycentric coordinates")
    L, (ints,) = integer_scaled([pp])
    if any(c < 0 for c in ints) or sum(ints) != L:
        raise ValueError("not a barycentric point of the standard simplex")
    return tuple(Fraction((n + 1) * c - L, (n + 1) * L) for c in ints[:n])


@dataclass(frozen=True)
class CoverCertificate:
    delta: Fraction
    translate: Point
    tight: Tuple[Tuple[int, int], ...]  # (point index, body row index) pairs

    def to_record(self) -> dict:
        return {
            "delta": rat_str(self.delta),
            "translate": [rat_str(c) for c in self.translate],
            "tight": [list(t) for t in self.tight],
        }


def min_cover_homothety(
    points: Sequence[Sequence], body: HPolytopeBody
) -> CoverCertificate:
    """Exact smallest delta >= 0 with every point in delta*body + t, by the
    facet-sum identity; the translate solves the first n of the n+1
    equations (the last holds too, as both sides sum to 0).

    The points are scaled to integers by L, the lcm of their denominators,
    and row i by l_i, the lcm of its own; dots[p][i] = L*l_i*a_i.p.  Row i
    holds at p exactly when dots[p][i] <= L*l_i*(a_i.t + delta*b_i), one
    exact bound num_i/den_i per row, so each (point, row) pair is checked
    by integer products."""
    pts = [tuple(rat(c) for c in p) for p in points]
    if not pts:
        raise ValueError("need at least one point to cover")
    n = body.ambient_dim
    for p in pts:
        if len(p) != n:
            raise ValueError("point dimension mismatch")
    L, ints = integer_scaled(pts)
    scales, int_rows = [], []
    for a, b in body.rows:
        l, (row,) = integer_scaled([a + (b,)])
        scales.append(L * l)
        int_rows.append(row[:-1])
    dots = [[sum(map(operator.mul, a, p)) for a in int_rows] for p in ints]
    top = [Fraction(max(col), s) for col, s in zip(zip(*dots), scales)]
    delta = sum(top) / sum(b for _, b in body.rows)  # the facet-sum identity
    t = _solve_square([(a, hi - delta * b) for (a, b), hi in zip(body.rows[:-1], top)])
    bounds = []
    for (a, b), s in zip(body.rows, scales):
        bound = s * (sum(c * v for c, v in zip(a, t)) + delta * b)
        bounds.append((bound.numerator, bound.denominator))
    tight = []
    for pi, row in enumerate(dots):
        for ri, (dot, (num, den)) in enumerate(zip(row, bounds)):
            lhs = dot * den
            if lhs > num:
                raise RuntimeError("cover certificate violates a row")
            if lhs == num:
                tight.append((pi, ri))
    if {ri for _, ri in tight} != set(range(len(body.rows))):
        raise RuntimeError("a body row has no tight point, so delta is not minimal")
    return CoverCertificate(delta=delta, translate=t, tight=tuple(tight))


def touches_all_facets(points_barycentric: Sequence[Sequence]) -> bool:
    """Does the set (in barycentric coordinates) touch every facet of the
    simplex, i.e. does every coordinate vanish somewhere?"""
    pts = [tuple(rat(c) for c in p) for p in points_barycentric]
    if not pts:
        raise ValueError("need at least one point")
    width = {len(p) for p in pts}
    if len(width) != 1:
        raise ValueError("mixed dimensions")
    (w,) = width
    return all(any(p[i] == 0 for p in pts) for i in range(w))


def facet_touching_check(points_barycentric: Sequence[Sequence]) -> bool:
    """touches_all_facets, and when the set touches every facet, assert
    exactly that no strictly smaller homothet covers it:
    min_cover_homothety >= 1."""
    pts = list(points_barycentric)
    touches = touches_all_facets(pts)
    if touches:
        cert = min_cover_homothety(
            [barycentric_to_centered(p) for p in pts],
            standard_simplex_body(len(pts[0]) - 1),
        )
        if cert.delta < 1:
            raise RuntimeError(
                "facet-touching set covered by a strictly smaller homothet"
            )
    return touches


# ---------------------------------------------------------------------------
# fiber-width exploration (inexact by design: sampled evidence only)
# ---------------------------------------------------------------------------

@dataclass
class FiberCell:
    cell: Tuple[int, ...]
    count: int
    certificate: CoverCertificate

    def to_record(self) -> dict:
        rec = {"cell": list(self.cell), "count": self.count}
        rec.update(self.certificate.to_record())
        return rec


@dataclass
class FiberReport:
    source_dim: int
    density: int
    label: str
    cells: List[FiberCell]

    @property
    def max_delta(self) -> Fraction:
        return max(c.certificate.delta for c in self.cells)

    def to_records(self) -> List[dict]:
        """A header record, then one record per cell tagged with the map."""
        header = {
            "evidence": self.label,
            "source_dim": self.source_dim,
            "density": self.density,
            "max_delta": rat_str(self.max_delta),
        }
        return [header] + [c.to_record() | {"map": self.label} for c in self.cells]


def coordinate_projection_map(p: Point) -> Point:
    """First barycentric coordinate of the simplex, onto [0, 1]."""
    return (p[0],)


def constant_map(p: Point) -> Point:
    """Everything to a single point; the lone fiber is the whole simplex."""
    return (Fraction(0),)


def grid_points_in_simplex(n: int, density: int) -> List[Point]:
    """All rational points of the standard n-simplex with denominator
    `density` (compositions of density into n+1 parts)."""
    if density < 1:
        raise ValueError("density must be positive")
    pts = []
    for cut in itertools.combinations(range(density + n), n):
        parts = []
        prev = -1
        for c in cut:
            parts.append(c - prev - 1)
            prev = c
        parts.append(density + n - 1 - prev)
        pts.append(tuple(Fraction(p, density) for p in parts))
    return pts


def fiber_width_demo(
    n: int,
    f: Callable[[Point], Point],
    density: int,
    label: str = "sampled fibers",
) -> FiberReport:
    """Sampled lower-bound evidence for the width of the fibers of f.

    f takes an exact barycentric point of the standard n-simplex to an
    exact point of some R^k.  Rational grid points of the simplex are
    bucketed by the grid cell of their image; each bucket gets an exact
    covering-radius certificate against the simplex.  This is exploratory:
    results are labeled evidence, not verified claims about true fibers."""
    buckets: Dict[Tuple[int, ...], List[Point]] = {}
    for p in grid_points_in_simplex(n, density):
        cell = tuple(math.floor(c * density) for c in f(p))
        buckets.setdefault(cell, []).append(p)
    body = standard_simplex_body(n)
    cells = []
    for cell in sorted(buckets):
        pts = buckets[cell]
        cert = min_cover_homothety([barycentric_to_centered(p) for p in pts], body)
        cells.append(FiberCell(cell=cell, count=len(pts), certificate=cert))
    return FiberReport(source_dim=n, density=density, label=label, cells=cells)
