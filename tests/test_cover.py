"""Covering-radius certificates against the closed-form simplex answer.

For a finite S inside the standard simplex (barycentric coordinates)
the smallest homothet delta*Delta + t containing S satisfies
t_i <= min_p p_i for every i with sum t = 1 - delta, hence
delta* = 1 - sum_i min_{p in S} p_i.  `min_cover_barycentric` computes
this from the column minima and checks it in integers.  The references it
is compared with are the facet-sum cover against a general simplex body,
over Fractions (`oracles.min_cover_homothety`), which must give the same
delta, translate and tight pairs on the standard simplex, and the
homothety LP over (delta, t), which the facet-sum cover must match on
every body.
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
    SplitMix64,
    constant_map,
    coordinate_projection_map,
    facet_touching_check,
    fiber_width_demo,
    lp_feasible,
    min_cover_barycentric,
)
from tverlab.cli import _random_facet_touching, main
from tverlab.cover import UnboundedBodyError
from tverlab.exactlp import OPTIMAL
from tverlab.rationals import Scaled, read_scaled

from oracles import (
    barycentric_to_centered,
    eq,
    fraction_witness,
    grid_points_in_simplex,
    h_polytope,
    interval_body,
    le,
    min_cover_homothety,
    standard_form,
    standard_simplex_body,
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
    """The closed-form cover of a barycentric set, checked equal to the
    facet-sum oracle's cover of its centered points."""
    n = len(points_barycentric[0]) - 1
    cert = min_cover_barycentric(points_barycentric)
    assert cert == min_cover_homothety(
        [barycentric_to_centered(p) for p in points_barycentric],
        standard_simplex_body(n),
    )
    return cert


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


def test_cover_follows_a_permutation_of_the_coordinates():
    """Relabelling the simplex's vertices moves coordinate i of every point
    to sigma(i): delta and touches_all_facets stay, the full lower-bound
    vector (the translate extended by -sum t, its last coordinate)
    permutes by sigma, and each tight pair (p, i) becomes (p, sigma(i)).
    The sets, at n = 2..4, are the cover subcommand's seeded draws, which
    touch every facet, and random sets, which here touch none; sigma comes
    from a second seed."""
    sets, perms = SplitMix64(19), SplitMix64(91)
    touching = []
    for n in (2, 3, 4):
        for i in range(8):
            if i % 2:
                L, rows = _random_facet_touching(n, sets)
            else:
                L, rows = read_scaled([random_barycentric(sets, n) for _ in range(sets.int_between(1, 5))])
            order = list(range(n + 1))
            for j in range(n, 0, -1):  # Fisher-Yates: new coordinate j is old coordinate order[j]
                k = perms.below(j + 1)
                order[j], order[k] = order[k], order[j]
            sigma = [order.index(c) for c in range(n + 1)]
            given, permuted = Scaled(L, rows), Scaled(L, [tuple(p[c] for c in order) for p in rows])
            cert, moved = min_cover_barycentric(given), min_cover_barycentric(permuted)
            assert moved.delta == cert.delta
            touching.append(tverlab.cover.touches_all_facets(given))
            assert tverlab.cover.touches_all_facets(permuted) == touching[-1]
            full = (*cert.translate, -sum(cert.translate))
            assert (*moved.translate, -sum(moved.translate)) == tuple(full[c] for c in order)
            assert set(moved.tight) == {(p, sigma[c]) for p, c in cert.tight}
    assert set(touching) == {False, True}


def test_empty_sets_and_densities_are_refused():
    with pytest.raises(ValueError, match="need at least one point to cover"):
        min_cover_barycentric([])
    with pytest.raises(ValueError, match="density must be positive"):
        fiber_width_demo(1, coordinate_projection_map, 0)


def test_body_validation():
    with pytest.raises(UnboundedBodyError):
        h_polytope([((1, 0), 1), ((-1, 0), 0), ((0, 1), 1)])
    with pytest.raises(UnboundedBodyError):  # facet-sum form, rank 1 < 2
        h_polytope([((1, 0), 1), ((-1, 0), 1), ((0, 0), 1)])
    with pytest.raises(UnboundedBodyError):  # Fraction rows, the second 3 times the first
        h_polytope([((F(1, 2), F(1, 3)), 1), ((F(3, 2), 1), 1), ((-2, F(-4, 3)), 1)])
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
    interval, a body with Fraction coefficients, and general simplex
    bodies in facet-sum form."""
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
    cases.append((  # a body with Fraction coefficients
        [(1, 2), (-1, 0)],
        h_polytope([((F(1, 2), 0), 1), ((0, F(1, 3)), 1), ((F(-1, 2), F(-1, 3)), 1)]),
    ))
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


@st.composite
def barycentric_sets(draw):
    """n = 1..5, one to six points over unrelated denominators, with some
    coordinates forced to 0."""
    n = draw(st.integers(1, 5))
    pts = []
    for _ in range(draw(st.integers(1, 6))):
        weights = draw(st.lists(st.integers(0, 40), min_size=n + 1, max_size=n + 1))
        for i in draw(st.sets(st.integers(0, n))):
            weights[i] = 0
        if not any(weights):
            weights[draw(st.integers(0, n))] = draw(st.integers(1, 40))
        total = sum(weights)
        pts.append(tuple(F(w, total) for w in weights))
    return pts


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(barycentric_sets())
def test_the_closed_form_matches_the_facet_sum_oracle(pts):
    n = len(pts[0]) - 1
    cert = min_cover_barycentric(pts)
    oracle = min_cover_homothety([barycentric_to_centered(p) for p in pts], standard_simplex_body(n))
    assert (cert.delta, cert.translate, cert.tight) == (oracle.delta, oracle.translate, oracle.tight)
    assert cert.delta == closed_form_delta(pts)


def test_the_row_check_rejects_a_shifted_translate():
    """Every row is tight at the true translate and the a_i sum to 0, so any
    shift lowers some row's bound below its tight point."""
    rng = SplitMix64(4242)
    # the closed form's check reads delta and the translate alone: a shift
    # of t_k raises facet k's bound (+) or the last facet's (-) past its
    # tight point, and a larger delta leaves every facet slack
    sets = [[(F(1, 2), F(1, 2), F(0)), (F(0), F(1, 3), F(2, 3)), (F(1, 4), F(0), F(3, 4))]]
    sets += [[random_barycentric(rng, n) for _ in range(3)] for n in (1, 2, 3)]
    for pts in sets:
        L, ints = read_scaled(pts)
        cert = min_cover_barycentric(pts)
        assert tverlab.cover._tight_pairs(L, ints, cert.delta, cert.translate) == cert.tight
        for k in range(len(cert.translate)):
            for step in (F(1, 1000), F(-3)):
                t = list(cert.translate)
                t[k] += step
                with pytest.raises(RuntimeError, match="violates a row"):
                    tverlab.cover._tight_pairs(L, ints, cert.delta, tuple(t))
        with pytest.raises(RuntimeError, match="no tight point"):
            tverlab.cover._tight_pairs(L, ints, cert.delta + F(1, 1000), cert.translate)


def test_cover_solves_no_lp_minimize(monkeypatch):
    def no_lp(*args):
        raise AssertionError("building a body and covering must solve no LP")

    monkeypatch.setattr("tverlab.exactlp.lp_feasible", no_lp)
    for n in range(1, 5):
        verts = [tuple(F(int(i == j)) for i in range(n + 1)) for j in range(n + 1)]
        body = standard_simplex_body(n)
        cert = min_cover_homothety([barycentric_to_centered(p) for p in verts], body)
        assert cert.delta == 1 and min_cover_barycentric(verts) == cert
    cert = min_cover_homothety([(F(1, 4),), (F(3, 4),)], interval_body())
    assert cert.delta == F(1, 2)


def fractions_built(call):
    """The number of Fractions that call() builds."""
    built = []
    new = vars(F)["__new__"]

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new.__func__(cls, *args, **kwargs)

    F.__new__ = staticmethod(counted)
    try:
        call()
    finally:
        F.__new__ = new
    return len(built)


def test_a_cover_builds_only_delta_and_the_translate():
    """Once its points exist, one closed-form cover of n + 1 coordinates
    builds exactly n + 1 Fractions: delta and the translate."""
    rng = SplitMix64(6180)
    for n in range(1, 6):
        pts = [random_barycentric(rng, n) for _ in range(4)]
        assert fractions_built(lambda: min_cover_barycentric(pts)) == n + 1


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
