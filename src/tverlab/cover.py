"""Homothety covering radius: the smallest delta with S inside delta*Delta + t,
Delta the standard n-simplex and S a finite set in barycentric coordinates.

A homothet of the simplex is {mu : mu_i >= a_i, sum mu = 1} with
sum a_i = 1 - delta, so the least one containing S has a_i = m_i, the
least i-th coordinate over S: delta = 1 - sum m_i, and S touches the
homothet's facet i exactly at its points with coordinate i equal to m_i.
The set is read once into integers C over one denominator L
(`read_scaled`); with m_i now the column minima of C and S their sum,
delta = (L - S)/L, and the translate, in the coordinates y_j = mu_j - 1/(n+1)
(j < n) centered at the simplex's barycenter, is t_j = ((n+1) m_j - S) /
((n+1) L).  Only delta and the translate are built as Fractions.  The
certificate is then checked from those two alone, never from m: they give
each facet's bound on its coordinate, every (point, facet) pair is
compared in integers, every facet must have a tight point, and the tight
pairs are read off that check.  No LP is solved and no body is built.  A
set touching every facet has every m_i = 0, so delta = 1: the
facet-touching criterion, read off directly.
The fiber demo evaluates an exact map of barycentric coordinates on a
rational grid of the simplex and covers each sampled fiber the same way;
its report holds only the cells, since the caller chose n and the density.
The records are NamedTuples, which `tverlab.cli` writes as JSON lines.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, NamedTuple, Sequence, Tuple

from .rationals import Frozen, Point, Scaled, bareiss_eliminate, read_scaled

IntPoint = Tuple[int, ...]


class CoverCertificate(NamedTuple):
    delta: Fraction
    translate: Point
    tight: Tuple[Tuple[int, int], ...]  # (point index, facet row index) pairs


def _barycentric(points: Sequence[Sequence]) -> Scaled:
    """A barycentric set of the standard n-simplex (n+1 coordinates each,
    nonnegative, summing to one, n >= 1), read once with read_scaled (or
    as read already): L and the integers C = L c of every point c."""
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
    return Scaled(L, ints)


def _cover(L: int, ints: Sequence[IntPoint]) -> CoverCertificate:
    """The covering certificate of the barycentric points ints/L, from the
    column minima m and S = sum m, and checked by _tight_pairs."""
    k = len(ints[0])
    m = [min(col) for col in zip(*ints)]
    s = sum(m)
    delta = Fraction(L - s, L)
    translate = tuple(Fraction(k * c - s, k * L) for c in m[:-1])
    return CoverCertificate(delta, translate, _tight_pairs(L, ints, delta, translate))


def _tight_pairs(
    L: int, ints: Sequence[IntPoint], delta: Fraction, translate: Point
) -> Tuple[Tuple[int, int], ...]:
    """Check that delta*Delta + translate holds the points ints/L and that
    each of its facets has a tight point; return the tight pairs.

    With k = n+1 the homothet is {mu : mu_i >= lo_i}: lo_i = t_i +
    (1 - delta)/k for i < n and lo_n = (1 - delta)/k - sum t_j.  Over the
    lcm E of the denominators of delta and t, with delta = D/E and t = T/E,
    k E lo_i is the integer k T_i + E - D (i < n) or E - D - k sum T, and
    point p meets facet i exactly when C_{p,i} k E >= L k E lo_i: one
    integer bound per facet, the least C that meets it, and whether C
    can equal it."""
    k = len(ints[0])
    E = math.lcm(delta.denominator, *(t.denominator for t in translate))
    T = [t.numerator * (E // t.denominator) for t in translate]
    rest = E - delta.numerator * (E // delta.denominator)
    scale = k * E
    bounds = []
    for b in [k * t + rest for t in T] + [rest - k * sum(T)]:
        q, r = divmod(L * b, scale)
        bounds.append((q + (r > 0), not r))  # C >= q + (r > 0); C == L lo_i only if r == 0
    tight = []
    for pi, row in enumerate(ints):
        for ri, (c, (least, exact)) in enumerate(zip(row, bounds)):
            if c < least:
                raise RuntimeError("cover certificate violates a row")
            if c == least and exact:
                tight.append((pi, ri))
    if {ri for _, ri in tight} != set(range(k)):
        raise RuntimeError("a row has no tight point, so delta is not minimal")
    return tuple(tight)


def min_cover_barycentric(points_barycentric: Sequence[Sequence]) -> CoverCertificate:
    """Exact smallest delta >= 0 with the barycentric set inside a homothet
    delta*Delta + t of the standard simplex, the translate t in centered
    coordinates, and the tight (point, facet) pairs.  The set is scaled to
    integers once; a set read by read_scaled already is used as it is."""
    return _cover(*_barycentric(points_barycentric))


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
    """touches_all_facets of a barycentric set (one that
    min_cover_barycentric reads; any other is refused as it refuses it),
    and when the set touches every facet, assert exactly that no strictly
    smaller homothet covers it: min_cover_barycentric(...).delta >= 1."""
    pts = _barycentric(points_barycentric)
    touches = touches_all_facets(pts)
    if touches and _cover(*pts).delta < 1:
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
    for cut in itertools.combinations(range(density + n), n):
        parts = []
        prev = -1
        for c in cut:
            parts.append(c - prev - 1)
            prev = c
        parts.append(density + n - 1 - prev)
        yield tuple(parts)


def fiber_width_demo(n: int, f: Callable[[Point], Point], density: int) -> FiberReport:
    """Sampled lower-bound evidence for the width of the fibers of f.

    f takes an exact barycentric point of the standard n-simplex to an
    exact point of some R^k.  Rational grid points of the simplex are
    bucketed by the grid cell of their image; each bucket keeps the
    grid's integer compositions (the points times density), which are
    already barycentric over the one denominator density, and gets an
    exact covering-radius certificate against the simplex from them.
    This is exploratory: results are labeled evidence, not verified
    claims about true fibers."""
    if n < 1:
        raise ValueError("need n >= 1")
    if density < 1:
        raise ValueError("density must be positive")
    grid = [Fraction(c, density) for c in range(density + 1)]
    buckets: Dict[Tuple[int, ...], List[IntPoint]] = {}
    for parts in _compositions(n, density):
        image = f(tuple(map(grid.__getitem__, parts)))
        cell = tuple(c.numerator * density // c.denominator for c in image)  # floor(c * density)
        buckets.setdefault(cell, []).append(parts)
    cells = [
        FiberCell(cell=cell, count=len(buckets[cell]), certificate=_cover(density, buckets[cell]))
        for cell in sorted(buckets)
    ]
    return FiberReport(cells)


# ---------------------------------------------------------------------------
# the general simplex body, which no cover uses
# ---------------------------------------------------------------------------

class UnboundedBodyError(ValueError):
    """The H-polytope has a recession direction, so homothety covering is
    meaningless (such a body may also be empty)."""


class HPolytopeBody(Frozen):
    """A bounded simplex body {y : rows . y <= rhs} in facet-sum form.

    No path of the package builds one: every cover is against the standard
    simplex, in closed form above, and the facet-sum cover against a
    general body is the tests' oracle.  The class stays only because the
    benchmark's tracer (`perfbench/tracer.py`) wraps its __post_init__ to
    count body builds and fails if the class is missing; it leaves with
    ROADMAP item 2a, together with `UnboundedBodyError`.  Building it
    checks the form, the first n rows' independence among them by one
    exact elimination; the body keeps its two fields and nothing else."""

    _fields = ("ambient_dim", "rows")

    def __init__(self, ambient_dim: int, rows: Tuple[Tuple[Point, Fraction], ...]):
        vars(self).update(ambient_dim=ambient_dim, rows=rows)
        self.__post_init__()

    def __post_init__(self):
        """The checks, once per build; kept apart from __init__ so that a
        wrapper on it counts body builds."""
        for coeffs, _ in self.rows:
            if len(coeffs) != self.ambient_dim:
                raise ValueError("row dimension mismatch")
        if len(self.rows) != self.ambient_dim + 1:
            raise ValueError("need n+1 rows")
        _, first = read_scaled([coeffs for coeffs, _ in self.rows[:-1]])
        if len(bareiss_eliminate(first, self.ambient_dim)[1]) < self.ambient_dim:
            raise UnboundedBodyError("the first n rows are linearly dependent")
        if (
            any(map(sum, zip(*(coeffs for coeffs, _ in self.rows))))
            or sum(rhs for _, rhs in self.rows) <= 0
        ):
            raise ValueError("need coefficients summing to 0, rhs sum > 0")
