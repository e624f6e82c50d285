"""Exact LP feasibility checked against a brute-force vertex-enumeration oracle."""
import itertools
from fractions import Fraction as F

import pytest

import tverlab.exactlp
from tverlab import (
    EQ,
    INFEASIBLE,
    OPTIMAL,
    LinearSystem,
    SplitMix64,
    check_farkas,
    check_witness,
    common_point_with_weights,
    eq,
    in_convex_hull,
    le,
    lp_feasible,
    strict_separator,
)


def solve_square(A, b):
    """Exact Gaussian elimination; None when the matrix is singular."""
    n = len(A)
    M = [list(row) + [b[i]] for i, row in enumerate(A)]
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col] != 0), None)
        if piv is None:
            return None
        M[col], M[piv] = M[piv], M[col]
        M[col] = [v / M[col][col] for v in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [vr - f * vc for vr, vc in zip(M[r], M[col])]
    return [M[r][n] for r in range(n)]


def oracle_minimum(system, objective):
    """Minimum over feasible basic points.  Sound for systems whose feasible
    region is bounded (every instance below carries box constraints)."""
    rows = system.constraints
    n = system.n_vars
    best = None
    for active in itertools.combinations(range(len(rows)), n):
        x = solve_square([rows[i][0] for i in active], [rows[i][2] for i in active])
        if x is None:
            continue
        ok = all(
            sum(c * v for c, v in zip(coeffs, x)) == rhs
            if rel == EQ
            else sum(c * v for c, v in zip(coeffs, x)) <= rhs
            for coeffs, rel, rhs in rows
        )
        if ok:
            val = sum(c * v for c, v in zip(objective, x))
            if best is None or val < best:
                best = val
    return best


def random_system(rng, n):
    rows = []
    for _ in range(rng.int_between(1, 4)):
        coeffs = [F(rng.int_between(-4, 4)) for _ in range(n)]
        rows.append(le(coeffs, F(rng.int_between(-6, 6))))
    K = F(10)
    for j in range(n):
        e = [F(0)] * n
        e[j] = F(1)
        rows.append(le(e, K))
        rows.append(le([-c for c in e], K))
    return LinearSystem(n, rows)


def test_feasibility_matches_vertex_oracle():
    rng = SplitMix64(2024)
    optimal_seen = infeasible_seen = 0
    for _ in range(120):
        n = rng.int_between(1, 3)
        system = random_system(rng, n)
        objective = [F(rng.int_between(-5, 5)) for _ in range(n)]
        expected = oracle_minimum(system, objective)
        out = lp_feasible(system)
        if expected is None:
            assert out.status == INFEASIBLE
            assert check_farkas(system, out.farkas)
            infeasible_seen += 1
        else:
            assert out.status == OPTIMAL
            assert check_witness(system, out.witness)
            optimal_seen += 1
    # the generator must actually exercise both outcomes
    assert optimal_seen > 60 and infeasible_seen > 5


def test_equality_rows_against_oracle():
    rng = SplitMix64(99)
    for _ in range(60):
        n = rng.int_between(2, 3)
        system = random_system(rng, n)
        coeffs = [F(rng.int_between(-3, 3)) for _ in range(n)]
        rows = list(system.constraints) + [eq(coeffs, F(rng.int_between(-2, 2)))]
        system = LinearSystem(n, rows)
        objective = [F(rng.int_between(-5, 5)) for _ in range(n)]
        expected = oracle_minimum(system, objective)
        out = lp_feasible(system)
        if expected is None:
            assert out.status == INFEASIBLE and check_farkas(system, out.farkas)
        else:
            assert out.status == OPTIMAL and check_witness(system, out.witness)


def test_one_bland_pass_per_feasible_call(monkeypatch):
    passes = []
    bland = tverlab.exactlp._Tableau._bland

    def counted(self, R):
        passes.append(1)
        return bland(self, R)

    monkeypatch.setattr("tverlab.exactlp._Tableau._bland", counted)
    rng = SplitMix64(2024)
    feasible = 0
    for _ in range(40):
        n = rng.int_between(1, 3)
        system = random_system(rng, n)
        passes.clear()
        if lp_feasible(system).status == OPTIMAL:
            assert len(passes) == 1
            feasible += 1
    assert feasible > 20


def test_infeasible_farkas_normalized():
    system = LinearSystem(1, [le([F(1)], F(0)), le([F(-1)], F(-1))])
    out = lp_feasible(system)
    assert out.status == INFEASIBLE
    nu = out.farkas.multipliers
    assert all(v >= 0 for v in nu)
    assert sum(v * rhs for v, (_, _, rhs) in zip(nu, system.constraints)) == F(-1)


def test_degenerate_cycling_guard():
    # classic degenerate square: many ties for the leaving variable, and
    # x + y >= 2 leaves the corner (1, 1) as the only feasible point
    rows = [
        le([F(1), F(0)], F(1)),
        le([F(0), F(1)], F(1)),
        le([F(1), F(1)], F(2)),
        le([F(-1), F(0)], F(0)),
        le([F(0), F(-1)], F(0)),
        le([F(-1), F(-1)], F(-2)),
    ]
    out = lp_feasible(LinearSystem(2, rows))
    assert out.status == OPTIMAL and out.witness == (F(1), F(1))


def test_exact_rational_pivoting():
    # tiny coefficients that float arithmetic would mangle; x == a is forced
    a = F(1, 10**12)
    system = LinearSystem(1, [le([F(-1)], F(0)), le([F(1)], a), le([F(-1)], -a)])
    out = lp_feasible(system)
    assert out.status == OPTIMAL and out.witness == (a,)


def test_malformed_systems_rejected():
    with pytest.raises(ValueError):
        LinearSystem(2, [le([F(1)], F(0))])
    with pytest.raises(ValueError):
        le([F(1)], "nonsense")


def test_hull_membership_square_center():
    sq = [(F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(1), F(1))]
    w = in_convex_hull((F(1, 2), F(1, 2)), sq)
    assert w is not None
    assert all(v >= 0 for v in w) and sum(w) == 1
    for k in range(2):
        assert sum(wi * p[k] for wi, p in zip(w, sq)) == F(1, 2)
    assert in_convex_hull((F(2), F(0)), sq) is None
    # boundary points belong to the (closed) hull
    assert in_convex_hull((F(1), F(1, 3)), sq) is not None


def test_hull_of_single_point():
    assert in_convex_hull((F(3),), [(F(3),)]) is not None
    assert in_convex_hull((F(2),), [(F(3),)]) is None


def test_separation_is_dual_to_membership():
    rng = SplitMix64(7)
    inside = outside = 0
    for _ in range(80):
        d = rng.int_between(1, 3)
        pts = [rng.rational_point(d) for _ in range(rng.int_between(1, 6))]
        x = rng.rational_point(d)
        member = in_convex_hull(x, pts) is not None
        sep = strict_separator(pts, x)
        assert member == (sep is None)
        if sep is not None:
            a, a0, margin = sep
            assert margin > 0
            assert all(sum(ai * bi for ai, bi in zip(a, b)) + a0 >= margin for b in pts)
            assert sum(ai * xi for ai, xi in zip(a, x)) + a0 <= -margin
            outside += 1
        else:
            inside += 1
    assert inside > 5 and outside > 5


def test_common_point_of_polytopes():
    tri1 = ((F(0), F(0)), (F(2), F(0)), (F(0), F(2)))
    tri2 = ((F(1), F(1)), (F(3), F(1)), (F(1), F(3)))
    got = common_point_with_weights([tri1, tri2])
    assert got is not None
    p, weights = got
    assert p == (F(1), F(1))
    for poly, w in zip([tri1, tri2], weights):
        assert all(v >= 0 for v in w) and sum(w) == 1
        for k in range(2):
            assert sum(wi * q[k] for wi, q in zip(w, poly)) == p[k]

    far = ((F(10), F(10)),)
    assert common_point_with_weights([tri1, far]) is None
