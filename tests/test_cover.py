"""Covering-radius certificates against the closed-form simplex answer.

For a finite S inside the standard simplex (barycentric coordinates)
the smallest homothet delta*Delta + t containing S satisfies
t_i <= min_p p_i for every i with sum t = 1 - delta, hence
delta* = 1 - sum_i min_{p in S} p_i.  The facet-sum computation must
reproduce this exactly, and match the homothety LP over (delta, t) in
delta, translate and tight pairs.
"""
import json
from fractions import Fraction as F
from itertools import permutations
from math import comb, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tverlab.cover
from tverlab import (
    OPTIMAL,
    SplitMix64,
    UnboundedBodyError,
    constant_map,
    coordinate_projection_map,
    facet_touching_check,
    fiber_width_demo,
    h_polytope,
    interval_body,
    lp_feasible,
    min_cover_barycentric,
    min_cover_homothety,
    standard_simplex_body,
)
from tverlab.cli import main
from tverlab.rationals import integer_scaled

from oracles import (
    barycentric_to_centered,
    eq,
    fraction_witness,
    grid_points_in_simplex,
    le,
    standard_form,
)


def random_barycentric(rng, n):
    weights = [rng.int_between(0, 9) for _ in range(n + 1)]
    if sum(weights) == 0:
        weights[rng.below(n + 1)] = 1
    total = sum(weights)
    return tuple(F(w, total) for w in weights)


def closed_form_delta(points):
    n = len(points[0]) - 1
    return 1 - sum(min(p[i] for p in points) for i in range(n + 1))


def cover_of(points_barycentric):
    n = len(points_barycentric[0]) - 1
    return min_cover_homothety(
        [barycentric_to_centered(p) for p in points_barycentric],
        standard_simplex_body(n),
    )


def test_interval_example():
    cert = min_cover_homothety([(F(1, 4),), (F(3, 4),)], interval_body())
    assert cert.delta == F(1, 2)
    assert cert.translate == (F(1, 4),)
    assert len(cert.tight) >= 1


def test_simplex_delta_matches_closed_form():
    rng = SplitMix64(1234)
    for _ in range(40):
        n = rng.int_between(1, 3)
        pts = [random_barycentric(rng, n) for _ in range(rng.int_between(1, 5))]
        cert = cover_of(pts)
        assert cert.delta == closed_form_delta(pts)


def test_tight_pairs_are_tight():
    rng = SplitMix64(88)
    body = standard_simplex_body(2)
    for _ in range(10):
        pts = [
            barycentric_to_centered(random_barycentric(rng, 2))
            for _ in range(3)
        ]
        cert = min_cover_homothety(pts, body)
        assert len(cert.tight) >= 1
        for pi, ri in cert.tight:
            coeffs, rhs = body.rows[ri]
            lhs = sum(
                c * (p - t)
                for c, p, t in zip(coeffs, pts[pi], cert.translate)
            )
            assert lhs == cert.delta * rhs


def test_vertices_need_the_whole_simplex():
    n = 3
    verts = [
        tuple(F(1) if i == j else F(0) for i in range(n + 1))
        for j in range(n + 1)
    ]
    cert = cover_of(verts)
    assert cert.delta == 1
    assert facet_touching_check(verts)


def test_single_point_needs_nothing():
    cert = cover_of([(F(1, 3), F(1, 3), F(1, 3))])
    assert cert.delta == 0


def test_delta_is_homogeneous_and_monotone():
    rng = SplitMix64(555)
    body = standard_simplex_body(2)
    for _ in range(10):
        pts = [
            barycentric_to_centered(random_barycentric(rng, 2))
            for _ in range(3)
        ]
        base = min_cover_homothety(pts, body).delta
        for lam in (F(1, 2), F(2), F(3)):
            scaled = [tuple(lam * c for c in p) for p in pts]
            assert min_cover_homothety(scaled, body).delta == lam * base
        more = pts + [barycentric_to_centered(random_barycentric(rng, 2))]
        assert min_cover_homothety(more, body).delta >= base


def test_facet_touching_forces_full_size():
    rng = SplitMix64(31337)
    for _ in range(20):
        n = rng.int_between(1, 3)
        pts = []
        for i in range(n + 1):
            p = list(random_barycentric(rng, n))
            shifted = [c for j, c in enumerate(p) if j != i]
            total = sum(shifted)
            p = [F(0)] * (n + 1)
            for j, c in zip((j for j in range(n + 1) if j != i), shifted):
                p[j] = c / total if total else F(1, n)
            pts.append(tuple(p))
        assert facet_touching_check(pts)  # asserts delta* >= 1 internally
        assert cover_of(pts).delta >= 1
    # a set avoiding one facet is not facet-touching
    assert not facet_touching_check([(F(1, 2), F(1, 2), F(0)), (F(1), F(0), F(0))])


def test_touches_all_facets_rejects_mixed_widths():
    with pytest.raises(ValueError, match="mixed dimensions"):
        tverlab.cover.touches_all_facets([(F(1, 2), F(1, 2)), (F(0), F(1), F(0))])
    with pytest.raises(ValueError, match="need at least one point"):
        tverlab.cover.touches_all_facets([])


def test_body_validation():
    with pytest.raises(UnboundedBodyError):
        h_polytope([((1, 0), 1), ((-1, 0), 0), ((0, 1), 1)])
    with pytest.raises(UnboundedBodyError):  # facet-sum form, rank 1 < 2
        h_polytope([((1, 0), 1), ((-1, 0), 1), ((0, 0), 1)])
    with pytest.raises(ValueError):
        h_polytope([((1,), -1), ((-1,), 0)])  # empty
    with pytest.raises(ValueError):  # bounded, but four rows: not a simplex
        h_polytope([((1, 0), 1), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0)])
    with pytest.raises(ValueError):  # a single point: right-hand sides sum to 0
        h_polytope([((1,), 0), ((-1,), 0)])
    with pytest.raises(ValueError):
        barycentric_to_centered((F(1, 2), F(1, 4)))


def test_barycentric_to_centered_matches_the_fraction_form():
    """The integer check and recentering against p_i - 1/(n+1) and the
    Fraction sum check, on seeded points and copies moved by 1/10^12."""
    rng = SplitMix64(515)
    tiny = F(1, 10**12)
    for _ in range(60):
        n = rng.int_between(1, 4)
        p = random_barycentric(rng, n)
        assert barycentric_to_centered(p) == tuple(c - F(1, n + 1) for c in p[:n])
        for j in range(n + 1):
            for moved in (p[j] + tiny, p[j] - tiny):
                q = p[:j] + (moved,) + p[j + 1:]
                with pytest.raises(ValueError, match="not a barycentric point"):
                    barycentric_to_centered(q)
    with pytest.raises(ValueError, match="not a barycentric point"):
        barycentric_to_centered((F(3, 2), F(-1, 2)))
    with pytest.raises(ValueError, match="mixed dimensions"):
        min_cover_barycentric([(F(1, 2), F(1, 2)), (F(0), F(1), F(0))])
    with pytest.raises(ValueError, match="not a barycentric point"):
        min_cover_barycentric([(F(1, 2), F(1, 2)), (F(1, 2), F(1, 3))])


def lp_cover(points, body):
    """The homothety LP  min delta  s.t.  A(s - t) <= delta b  for every s,
    over (delta, t), solved by feasibility and LP duality.  At the
    facet-sum delta the primal over the free t = u - v (u, v >= 0) is
    feasible, and its witness gives the one translate there.  The dual
    system  mu >= 0, sum mu b = 1, sum mu a = 0, sum mu a.s = delta  is
    feasible too, which puts every feasible delta' at or above delta.
    Returns delta, the translate and the tight pairs as min_cover_homothety
    reports them.  Both systems reach the kernel through standard_form, so
    the primal witness's first 2n entries are (u, v)."""
    n = body.ambient_dim
    pairs = [(p, coeffs, rhs) for p in points for coeffs, rhs in body.rows]
    top = [max(sum(c * v for c, v in zip(coeffs, p)) for p in points) for coeffs, _ in body.rows]
    delta = sum(top) / sum(rhs for _, rhs in body.rows)
    primal = [
        le([-c for c in coeffs] + list(coeffs), delta * rhs - sum(c * v for c, v in zip(coeffs, p)))
        for p, coeffs, rhs in pairs
    ]
    out = lp_feasible(standard_form(2 * n, primal))
    assert out.status == OPTIMAL
    x = fraction_witness(out)
    t = tuple(u - v for u, v in zip(x[:n], x[n:2 * n]))
    m = len(pairs)
    dual = [le([-int(j == k) for j in range(m)], 0) for k in range(m)]
    dual.append(eq([rhs for _, _, rhs in pairs], 1))
    dual += [eq([coeffs[i] for _, coeffs, _ in pairs], 0) for i in range(n)]
    dual.append(eq([sum(c * v for c, v in zip(coeffs, p)) for p, coeffs, _ in pairs], delta))
    assert lp_feasible(standard_form(m, dual)).status == OPTIMAL
    tight = tuple(
        (pi, ri)
        for pi, p in enumerate(points)
        for ri, (coeffs, rhs) in enumerate(body.rows)
        if sum(c * (v - tv) for c, v, tv in zip(coeffs, p, t)) == delta * rhs
    )
    return delta, t, tight


def det(rows):
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * prod(rows[i][perm[i]] for i in range(n))
    return total


def random_facet_sum_body(rng, n):
    """n random independent integer rows, a_n = -sum a_i, positive rhs."""
    while True:
        rows = [[rng.int_between(-3, 3) for _ in range(n)] for _ in range(n)]
        if det(rows):
            break
    rows.append([-sum(col) for col in zip(*rows)])
    return h_polytope([(a, F(rng.int_between(1, 6), rng.int_between(1, 3))) for a in rows])


def homothety_lp_cases():
    """(points, body) pairs: seeded sets against the centered simplex, one
    point, repeated points, scaled sets partly outside the simplex, the
    interval, and general simplex bodies in facet-sum form."""
    rng = SplitMix64(2718)
    cases = []
    for _ in range(24):
        n = rng.int_between(1, 4)
        body = standard_simplex_body(n)
        pts = [
            barycentric_to_centered(random_barycentric(rng, n))
            for _ in range(rng.int_between(1, 5))
        ]
        cases.append((pts, body))
        cases.append((pts[:1], body))  # one point
        cases.append((pts + pts[:2], body))  # repeated points
        for lam in (2, 3):  # centered and scaled: some points leave the simplex
            cases.append(([tuple(lam * c for c in p) for p in pts], body))
    cases.append(([(F(1, 4),), (F(3, 4),), (F(-1),)], interval_body()))
    rng = SplitMix64(1618)
    for _ in range(30):  # general simplex bodies in facet-sum form
        n = rng.int_between(1, 4)
        body = random_facet_sum_body(rng, n)
        pts = [
            tuple(F(rng.int_between(-6, 6), rng.int_between(1, 3)) for _ in range(n))
            for _ in range(rng.int_between(1, 5))
        ]
        cases.append((pts, body))
    return cases


def test_closed_form_matches_the_homothety_lp():
    for pts, body in homothety_lp_cases():
        cert = min_cover_homothety(pts, body)
        assert (cert.delta, cert.translate, cert.tight) == lp_cover(pts, body)


# coordinates over small, large and coprime denominators at once
mixed_fractions = st.builds(
    F, st.integers(-60, 60), st.sampled_from((1, 2, 3, 7, 10, 1024, 999983))
)


@st.composite
def bodies_and_points(draw):
    n = draw(st.integers(1, 4))
    body = random_facet_sum_body(SplitMix64(draw(st.integers(0, 2**32))), n)
    pts = draw(st.lists(st.tuples(*[mixed_fractions] * n), min_size=1, max_size=5))
    return body, pts


@settings(derandomize=True, database=None, deadline=None)
@given(bodies_and_points())
def test_random_bodies_match_the_homothety_lp(case):
    body, pts = case
    cert = min_cover_homothety(pts, body)
    assert (cert.delta, cert.translate, cert.tight) == lp_cover(pts, body)


def test_the_row_check_rejects_a_shifted_translate(monkeypatch):
    """Every row is tight at the true translate and the a_i sum to 0, so any
    shift lowers some row's bound below its tight point."""
    rng = SplitMix64(4242)
    cases = [
        (standard_simplex_body(2), [barycentric_to_centered(p) for p in (
            (F(1, 2), F(1, 2), F(0)), (F(0), F(1, 3), F(2, 3)), (F(1, 4), F(0), F(3, 4))
        )]),
        (interval_body(), [(F(1, 4),), (F(3, 4),)]),
    ]
    for n in (1, 2, 3):
        body = random_facet_sum_body(rng, n)
        cases.append((body, [tuple(F(rng.int_between(-6, 6), 7) for _ in range(n))] * 2))
    translate = tverlab.cover._translate
    for body, pts in cases:
        for k in range(body.ambient_dim):
            for step in (F(1, 1000), F(-3)):
                def shifted(body, rhs, den, k=k, step=step):
                    u, g = translate(body, rhs, den)
                    t = [F(c, g) for c in u]
                    t[k] += step
                    g, (u,) = integer_scaled([t])
                    return u, g

                monkeypatch.setattr(tverlab.cover, "_translate", shifted)
                with pytest.raises(RuntimeError, match="violates a row"):
                    min_cover_homothety(pts, body)
                monkeypatch.setattr(tverlab.cover, "_translate", translate)
                min_cover_homothety(pts, body)


def test_cover_solves_no_lp_minimize(monkeypatch):
    def no_lp(*args):
        raise AssertionError("building a body and covering must solve no LP")

    monkeypatch.setattr("tverlab.exactlp._Tableau.__init__", no_lp)
    for n in range(1, 5):
        verts = [tuple(F(int(i == j)) for i in range(n + 1)) for j in range(n + 1)]
        body = standard_simplex_body(n)
        cert = min_cover_homothety([barycentric_to_centered(p) for p in verts], body)
        assert cert.delta == 1
    cert = min_cover_homothety([(F(1, 4),), (F(3, 4),)], interval_body())
    assert cert.delta == F(1, 2)


def solve_square(rows):
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


def reference_cover(points, body):
    """The covering kernel that solved the body system once per cover over
    Fractions: top_i and delta as Fractions, the translate by Gauss-Jordan,
    one Fraction bound per row.  Returns (delta, translate, tight)."""
    pts = [tuple(F(c) for c in p) for p in points]
    L, ints = integer_scaled(pts)
    scales, int_rows = [], []
    for a, b in body.rows:
        l, (row,) = integer_scaled([a + (b,)])
        scales.append(L * l)
        int_rows.append(row[:-1])
    dots = [[sum(c * v for c, v in zip(a, p)) for a in int_rows] for p in ints]
    top = [F(max(col), s) for col, s in zip(zip(*dots), scales)]
    delta = sum(top) / sum(b for _, b in body.rows)
    t = solve_square([(a, hi - delta * b) for (a, b), hi in zip(body.rows[:-1], top)])
    bounds = []
    for (a, b), s in zip(body.rows, scales):
        bound = s * (sum(c * v for c, v in zip(a, t)) + delta * b)
        bounds.append((bound.numerator, bound.denominator))
    tight = []
    for pi, row in enumerate(dots):
        for ri, (dot, (num, den)) in enumerate(zip(row, bounds)):
            assert dot * den <= num
            if dot * den == num:
                tight.append((pi, ri))
    return delta, t, tuple(tight)


def test_seeded_sets_match_the_fraction_reference():
    for pts, body in homothety_lp_cases():
        cert = min_cover_homothety(pts, body)
        assert (cert.delta, cert.translate, cert.tight) == reference_cover(pts, body)
    rng = SplitMix64(2719)
    for _ in range(40):  # barycentric sets, scaled once for the whole set
        n = rng.int_between(1, 4)
        pts = [random_barycentric(rng, n) for _ in range(rng.int_between(1, 5))]
        cert = min_cover_barycentric(pts)
        centered = [barycentric_to_centered(p) for p in pts]
        assert (cert.delta, cert.translate, cert.tight) == reference_cover(
            centered, standard_simplex_body(n)
        )


@settings(derandomize=True, database=None, deadline=None)
@given(bodies_and_points())
def test_random_bodies_match_the_fraction_reference(case):
    body, pts = case
    cert = min_cover_homothety(pts, body)
    assert (cert.delta, cert.translate, cert.tight) == reference_cover(pts, body)


def test_the_body_inverse_inverts_its_first_rows():
    rng = SplitMix64(3141)
    bodies = [standard_simplex_body(n) for n in range(1, 5)] + [interval_body()]
    bodies += [random_facet_sum_body(rng, rng.int_between(1, 4)) for _ in range(30)]
    for body in bodies:
        n = body.ambient_dim
        rows = [a for a, _ in body.int_rows[:-1]]
        product = [
            [sum(r[k] * v[k] for k in range(n)) for v in zip(*body.inverse)] for r in rows
        ]
        assert product == [[body.inverse_scale * (i == j) for j in range(n)] for i in range(n)]


def test_a_cover_builds_only_delta_and_the_translate():
    """Once its points and body exist, one cover builds n + 1 Fractions."""
    rng = SplitMix64(6180)
    cases = homothety_lp_cases() + [
        (
            [tuple(F(rng.int_between(-60, 60), d) for d in (3, 1024, 999983, 7)[:n]) for _ in range(4)],
            random_facet_sum_body(rng, n),
        )
        for n in range(1, 5)
    ]
    built = []
    new = vars(F)["__new__"]

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new.__func__(cls, *args, **kwargs)

    for pts, body in cases:
        built.clear()
        F.__new__ = staticmethod(counted)
        try:
            min_cover_homothety(pts, body)
        finally:
            F.__new__ = new
        assert len(built) <= body.ambient_dim + 1


def test_grid_point_counts():
    for n, density in ((1, 4), (2, 3), (3, 2)):
        pts = grid_points_in_simplex(n, density)
        assert len(pts) == comb(n + density, n)
        assert len(set(pts)) == len(pts)
        for p in pts:
            assert sum(p) == 1 and all(c >= 0 for c in p)


def test_fiber_demo_constant_map_needs_everything(capsys):
    report = fiber_width_demo(1, constant_map, 3, label="constant")
    assert len(report.cells) == 1
    assert report.max_delta == 1
    assert report.label == "constant"
    assert main(["fiber-demo", "--d", "1", "--trials", "3"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    at = next(i for i, rec in enumerate(records) if rec.get("evidence") == "constant map")
    header, *cells = records[at:]
    assert header["max_delta"] == "1/1"
    assert [(cell["map"], cell["count"]) for cell in cells] == [("constant map", 4)]


def test_fiber_demo_projection_cells():
    report = fiber_width_demo(2, coordinate_projection_map, 3)
    assert report.source_dim == 2 and report.density == 3
    assert sum(cell.count for cell in report.cells) == comb(2 + 3, 2)
    # the x0 = s fiber is a segment that shrinks as s grows: the s = 0
    # fiber is a whole edge (two coordinates still vanish somewhere, so
    # covering it costs a full-size homothet), then 2/3, 1/3, a point
    by_cell = {cell.cell: cell for cell in report.cells}
    assert [by_cell[(i,)].count for i in range(4)] == [4, 3, 2, 1]
    assert [by_cell[(i,)].certificate.delta for i in range(4)] == [
        F(1), F(2, 3), F(1, 3), F(0)
    ]
