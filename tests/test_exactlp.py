"""Exact LP feasibility over x >= 0 checked against a brute-force
vertex-enumeration oracle over free variables (through x = u - v), and the
integer phase 1 against the general-form Fraction tableau it replaced.

The general-form systems here (<= and == rows) reach the kernel through
`standard_form`, which gives each <= row a slack column; a witness is
compared on its first n entries, the original variables."""
import itertools
from fractions import Fraction as F
from math import lcm
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tverlab.exactlp
from tverlab import (
    LinearSystem,
    SplitMix64,
    common_point_with_weights,
    lp_feasible,
    random_point_config,
    reduce_central_from_tverberg,
    reduction_plan,
    strict_separator,
    tverberg_partition,
)
from tverlab.depth import guaranteed_size
from tverlab.exactlp import INFEASIBLE, OPTIMAL, check_farkas, check_witness
from tverlab.rationals import Scaled

from oracles import (
    EQ,
    LE,
    eq,
    fraction_multipliers,
    fraction_partition_system,
    fraction_witness,
    hull_membership_depth,
    in_convex_hull,
    integer_multipliers,
    integer_witness,
    le,
    standard_form,
    subset,
)


class General(NamedTuple):
    """{x >= 0 : rows} over n_vars variables for general-form rows
    (coeffs, rel, rhs); the kernel solves standard_form(*system)."""

    n_vars: int
    constraints: tuple


def general(system: LinearSystem) -> General:
    """A standard-form system's rows as general-form == rows."""
    return General(system.n_vars, tuple((c, EQ, b) for c, b in system.constraints))


# ---------------------------------------------------------------------------
# the Fraction tableau, as the oracle of the integer kernel
# ---------------------------------------------------------------------------

class FractionTableau:
    """The general-form Fraction phase 1 that the integer kernel replaced,
    kept as its oracle; it reads General systems through `with_bounds`.
    Standard-form tableau  [A | I | b]  with artificial identity basis.

    Free variables are split x = u - v, except variables recognized as
    nonnegative from rows of the shape  -c*x_j <= 0  (c > 0), which keep a
    single column.  Artificial columns are never allowed to re-enter the
    basis, and they double as a running copy of B^-1 so that Farkas
    multipliers can be read off the phase-1 objective row exactly.
    """

    def __init__(self, system: General):
        self.system = system
        n = system.n_vars
        rows = system.constraints

        # nonnegative-variable detection
        self.nonneg_row: dict = {}  # var -> (row index, negative coefficient)
        kept = []
        for idx, (coeffs, rel, rhs) in enumerate(rows):
            nz = [(j, c) for j, c in enumerate(coeffs) if c != 0]
            if (
                rel == LE
                and rhs == 0
                and len(nz) == 1
                and nz[0][1] < 0
                and nz[0][0] not in self.nonneg_row
            ):
                self.nonneg_row[nz[0][0]] = (idx, nz[0][1])
                continue
            kept.append(idx)
        self.kept = kept

        # column layout: split/plain variable columns, then slacks
        self.cols = []  # (kind, payload): ("+", var) ("-", var) ("s", kept position)
        self.pos_col = {}
        self.neg_col = {}
        for j in range(n):
            self.pos_col[j] = len(self.cols)
            self.cols.append(("+", j))
            if j not in self.nonneg_row:
                self.neg_col[j] = len(self.cols)
                self.cols.append(("-", j))
        slack_col = {}
        for i, idx in enumerate(kept):
            if rows[idx][1] == LE:
                slack_col[i] = len(self.cols)
                self.cols.append(("s", i))
        self.nstruct = len(self.cols)
        m = len(kept)
        self.m_kept = m
        self.width = self.nstruct + m + 1  # + rhs

        zero = F(0)
        self.T = []
        self.sigma = []
        for i, idx in enumerate(kept):
            coeffs, rel, rhs = rows[idx]
            s = 1 if rhs >= 0 else -1
            self.sigma.append(s)
            row = [zero] * self.width
            for j, c in enumerate(coeffs):
                if c == 0:
                    continue
                row[self.pos_col[j]] += s * c
                if j in self.neg_col:
                    row[self.neg_col[j]] -= s * c
            if i in slack_col:
                row[slack_col[i]] = F(s)
            row[self.nstruct + i] = F(1)
            row[-1] = s * rhs
            self.T.append(row)
        self.basis = [self.nstruct + i for i in range(m)]

    # -- pivoting ----------------------------------------------------------

    def _pivot(self, R, i, j):
        T = self.T
        piv = T[i][j]
        T[i] = [v / piv for v in T[i]]
        row = T[i]
        for r in range(len(T)):
            if r != i:
                f = T[r][j]
                if f:
                    T[r] = [a - f * b for a, b in zip(T[r], row)]
        f = R[j]
        if f:
            R[:] = [a - f * b for a, b in zip(R, row)]
        self.basis[i] = j

    def _bland(self, R):
        """Run Bland-rule pivots until no reduced cost is negative."""
        T = self.T
        guard = 0
        limit = 1000 + 50 * self.width * (len(T) + 2)
        while True:
            guard += 1
            if guard > limit:  # Bland's rule terminates; this is a tripwire
                raise RuntimeError("simplex iteration limit exceeded")
            enter = None
            for j in range(self.nstruct):
                if R[j] < 0:
                    enter = j
                    break
            if enter is None:
                return
            leave = None
            best = None
            for i in range(len(T)):
                a = T[i][enter]
                if a > 0:
                    ratio = T[i][-1] / a
                    key = (ratio, self.basis[i])
                    if best is None or key < best:
                        best = key
                        leave = i
            if leave is None:  # the phase-1 objective is bounded below by 0
                raise RuntimeError("phase 1 cannot be unbounded")
            self._pivot(R, leave, enter)

    def phase1(self):
        """Minimise the sum of the artificials; returns the objective row,
        whose last entry is minus that minimum."""
        R = [F(0)] * self.nstruct + [F(1)] * self.m_kept + [F(0)]
        for row in self.T:  # price out the artificial starting basis
            R = [a - t for a, t in zip(R, row)]
        self._bland(R)
        return R

    # -- extraction ----------------------------------------------------------

    def witness(self):
        val = {}
        for i, b in enumerate(self.basis):
            val[b] = self.T[i][-1]
        x = []
        for j in range(self.system.n_vars):
            v = val.get(self.pos_col[j], F(0))
            if j in self.neg_col:
                v -= val.get(self.neg_col[j], F(0))
            x.append(v)
        return tuple(x)

    def farkas(self, R):
        """The Farkas multipliers from the phase-1 objective row R.

        The reduced cost under artificial column k is 1 - y_k, so
        y_k = 1 - R[k], and nu = -y combines the kept rows to 0 with a
        negative right-hand side.  Bound rows that were folded into plain
        columns get their multiplier reconstructed so the combined
        coefficient at each variable comes to 0 exactly.
        """
        rows = self.system.constraints
        nu = [F(0)] * len(rows)
        for i, idx in enumerate(self.kept):
            nu[idx] = self.sigma[i] * (R[self.nstruct + i] - 1)
        for j, (idx, c) in self.nonneg_row.items():
            g = sum(nu[k] * rows[k][0][j] for k in self.kept)
            nu[idx] = -g / c  # bound row coeff is c (< 0) at var j
        total = sum(v * rhs for v, (_, _, rhs) in zip(nu, rows))
        if total >= 0:
            raise RuntimeError("Farkas extraction failed")
        return tuple(v / -total for v in nu)


def oracle_feasible(system):
    """(status, witness, Farkas multipliers) from the Fraction tableau."""
    tab = FractionTableau(system)
    R = tab.phase1()
    if R[-1] != 0:
        return INFEASIBLE, None, tab.farkas(R)
    return OPTIMAL, tab.witness(), None


def with_bounds(system):
    """The general form of  {x >= 0 : rows}: a row  -x_j <= 0  for each j,
    then the rows."""
    n = system.n_vars
    bounds = [le([-int(i == j) for i in range(n)], 0) for j in range(n)]
    return General(n, (*bounds, *system.constraints))


def split_free(system):
    """The system over free x as one over u, v >= 0 with x = u - v: each
    row's coefficients c become (c, -c)."""
    return General(2 * system.n_vars, tuple(
        (coeffs + tuple(-c for c in coeffs), rel, rhs)
        for coeffs, rel, rhs in system.constraints
    ))


def assert_matches_oracle(system, std, out):
    """The kernel's outcome on std, the standard form of the general-form
    system, against the oracle on with_bounds(system), whose first n
    multipliers belong to the bound rows; the kernel's integer witness and
    multipliers are read as Fractions."""
    status, witness, farkas = oracle_feasible(with_bounds(system))
    assert out.status == status
    x = fraction_witness(out)
    assert (None if x is None else x[:system.n_vars]) == witness
    if farkas is None:
        assert out.farkas is None
    else:
        assert fraction_multipliers(std, out.farkas) == farkas[system.n_vars:]


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
    return General(n, tuple(rows))


def test_feasibility_matches_vertex_oracle():
    rng = SplitMix64(2024)
    optimal_seen = infeasible_seen = 0
    for _ in range(120):
        n = rng.int_between(1, 3)
        system = random_system(rng, n)
        objective = [F(rng.int_between(-5, 5)) for _ in range(n)]
        expected = oracle_minimum(system, objective)
        split = standard_form(*split_free(system))
        out = lp_feasible(split)
        if expected is None:
            assert out.status == INFEASIBLE
            assert check_farkas(split, out.farkas)
            infeasible_seen += 1
        else:
            assert out.status == OPTIMAL
            assert check_witness(split, out.denominator, out.witness)
            optimal_seen += 1
    # the generator must actually exercise both outcomes
    assert optimal_seen > 60 and infeasible_seen > 5


def test_equality_rows_against_oracle():
    rng = SplitMix64(99)
    for _ in range(60):
        n = rng.int_between(2, 3)
        system = random_system(rng, n)
        coeffs = [F(rng.int_between(-3, 3)) for _ in range(n)]
        system = General(n, (*system.constraints, eq(coeffs, F(rng.int_between(-2, 2)))))
        objective = [F(rng.int_between(-5, 5)) for _ in range(n)]
        expected = oracle_minimum(system, objective)
        split = standard_form(*split_free(system))
        out = lp_feasible(split)
        if expected is None:
            assert out.status == INFEASIBLE and check_farkas(split, out.farkas)
        else:
            assert out.status == OPTIMAL and check_witness(split, out.denominator, out.witness)


def test_one_bland_pass_per_feasible_call(monkeypatch):
    """A feasible solve runs phase 1 alone: its bareiss_pivot calls are the
    Fraction tableau's phase-1 pivots, one for one."""
    pivots = []
    pivot = tverlab.exactlp.bareiss_pivot

    def counted(*args):
        pivots.append(1)
        return pivot(*args)

    monkeypatch.setattr("tverlab.exactlp.bareiss_pivot", counted)
    oracle_pivots = []
    oracle_pivot = FractionTableau._pivot

    def oracle_counted(self, *args):
        oracle_pivots.append(1)
        return oracle_pivot(self, *args)

    monkeypatch.setattr(FractionTableau, "_pivot", oracle_counted)
    rng = SplitMix64(2024)
    feasible = pivoted = 0
    for _ in range(40):
        n = rng.int_between(1, 3)
        system = split_free(random_system(rng, n))
        pivots.clear()
        oracle_pivots.clear()
        if lp_feasible(standard_form(*system)).status == OPTIMAL:
            assert oracle_feasible(with_bounds(system))[0] == OPTIMAL
            assert len(pivots) == len(oracle_pivots)
            feasible += 1
            pivoted += bool(pivots)
    assert feasible > 20 and pivoted == feasible


def test_refused_certificates_raise(monkeypatch):
    """lp_feasible returns no certificate that its own check refuses."""
    feasible = LinearSystem(2, [(1, (1, 1), 1)])
    infeasible = LinearSystem(2, [(1, (1, 1), -1)])
    assert lp_feasible(feasible).status == OPTIMAL
    assert lp_feasible(infeasible).status == INFEASIBLE
    monkeypatch.setattr("tverlab.exactlp.check_witness", lambda system, D, X: False)
    with pytest.raises(RuntimeError, match="simplex witness failed exact verification"):
        lp_feasible(feasible)
    monkeypatch.setattr("tverlab.exactlp.check_farkas", lambda system, N: False)
    with pytest.raises(RuntimeError, match="Farkas certificate failed verification"):
        lp_feasible(infeasible)


def test_iteration_limit_is_a_tripwire(monkeypatch):
    """A pivot that leaves the rows as they are never ends phase 1; the
    limit 1000 + 50 (n + m + 1)(m + 2) stops it, 1600 pivots at n = 2,
    m = 1."""
    pivots = []

    def stuck(rows, i, j, D):
        pivots.append(1)
        return D

    monkeypatch.setattr("tverlab.exactlp.bareiss_pivot", stuck)
    with pytest.raises(RuntimeError, match="simplex iteration limit exceeded"):
        lp_feasible(LinearSystem(2, [(1, (1, 1), 1)]))
    assert len(pivots) == 1600


def recorded_systems(monkeypatch, run):
    """Every (system, outcome) that lp_feasible sees while run() runs."""
    seen = []
    solve = tverlab.exactlp.lp_feasible

    def recording(system):
        out = solve(system)
        seen.append((system, out))
        return out

    monkeypatch.setattr("tverlab.exactlp.lp_feasible", recording)
    run()
    return seen


def test_partition_systems_match_the_fraction_tableau(monkeypatch):
    """The partition-search systems of acceptance criterion 3, from its
    seeds: 676 solves in 3661 Bland pivots, as the general-form integer
    tableau took them, each one bareiss_pivot of the tableau.  The r = 2
    configurations go through the search, with their Radon step off."""
    monkeypatch.setattr("tverlab.depth._radon_partition", lambda config: None)
    pivots = []
    pivot = tverlab.exactlp.bareiss_pivot

    def counted(*args):
        pivots.append(1)
        return pivot(*args)

    monkeypatch.setattr("tverlab.exactlp.bareiss_pivot", counted)

    def criterion_3():
        for d, r in ((1, 2), (1, 3), (2, 2), (2, 3), (3, 2)):
            rng = SplitMix64(100 * d + r)
            n = guaranteed_size(d, r)
            for _ in range(50):
                config = random_point_config(d, n, rng, num_bound=6, den_bound=3)
                tverberg_partition(config, r)

    seen = recorded_systems(monkeypatch, criterion_3)
    assert (len(seen), len(pivots)) == (676, 3661)
    assert {out.status for _, out in seen} == {OPTIMAL, INFEASIBLE}
    for system, out in seen:
        assert_matches_oracle(general(system), system, out)


def test_the_kernel_pivots_only_the_variables_and_the_right_hand_side(monkeypatch):
    """On the 676 partition-search systems of acceptance criterion 3 (the
    r = 2 ones through the search, with their Radon step off), no row that
    bareiss_pivot touches, in the tableau or in the Farkas recovery, is
    wider than n_vars + 1 entries; the Bland pivots are still 3661; and the
    recovery's one bareiss_eliminate runs once per infeasible outcome and
    never on a feasible one."""
    monkeypatch.setattr("tverlab.depth._radon_partition", lambda config: None)
    widths, eliminations = [], []
    pivot, eliminate = tverlab.exactlp.bareiss_pivot, tverlab.exactlp.bareiss_eliminate

    def counted_pivot(rows, i, j, D):
        widths.append(max(map(len, rows)))
        return pivot(rows, i, j, D)

    def counted_eliminate(rows, ncols):
        eliminations.append(max(map(len, rows), default=0))
        return eliminate(rows, ncols)

    monkeypatch.setattr("tverlab.exactlp.bareiss_pivot", counted_pivot)
    monkeypatch.setattr("tverlab.exactlp.bareiss_eliminate", counted_eliminate)
    solve = tverlab.exactlp.lp_feasible
    pivots = outcomes = 0

    def solving(system):
        nonlocal pivots, outcomes
        widths.clear()
        eliminations.clear()
        out = solve(system)
        assert max(widths + eliminations, default=0) <= system.n_vars + 1
        assert len(eliminations) == (out.status == INFEASIBLE)
        pivots += len(widths)
        outcomes += 1
        return out

    monkeypatch.setattr("tverlab.exactlp.lp_feasible", solving)
    for d, r in ((1, 2), (1, 3), (2, 2), (2, 3), (3, 2)):
        rng = SplitMix64(100 * d + r)
        for _ in range(50):
            tverberg_partition(random_point_config(d, guaranteed_size(d, r), rng, num_bound=6, den_bound=3), r)
    assert (outcomes, pivots) == (676, 3661)


def test_hull_systems_match_the_fraction_tableau(monkeypatch):
    """The lift-partition and hull-membership systems of acceptance
    criterion 4, from its seeds.  The lift's pairing is certified without
    an LP, so its system is solved here, on the blocks of the certificate
    the pairing returns, and the LP's point must be the pairing's."""
    pairings = []
    pairing = tverlab.depth._lifted_partition_1d

    def recording(lifted, R):
        found = pairing(lifted, R)
        pairings.append((lifted, found[0]))
        return found

    monkeypatch.setattr("tverlab.depth._lifted_partition_1d", recording)

    def criterion_4():
        for r in (4, 6):
            rng = SplitMix64(4000 + r)
            plan = reduction_plan(r, 1)
            for _ in range(10):
                config = random_point_config(1, plan.m + 1, rng, num_bound=6, den_bound=3)
                pairings.clear()
                cert = reduce_central_from_tverberg(config, r)
                ((lifted, paired),) = pairings
                L, P = lifted.scaled
                point, _ = common_point_with_weights([Scaled(L, [P[l] for l in b]) for b in paired.blocks])
                assert point == paired.point == cert.point
                assert hull_membership_depth(cert.point, config, r)

    seen = recorded_systems(monkeypatch, criterion_4)
    assert len(seen) == 4990
    for system, out in seen:
        assert_matches_oracle(general(system), system, out)


def test_convex_combination_systems_have_no_bound_rows(monkeypatch):
    """lambda >= 0 is the kernel's contract: a hull system is its sum row and
    d coordinate rows, a partition system r sum rows and d(r - 1) coupling
    rows."""
    rng = SplitMix64(5)
    expected = []

    def run():
        for d in (1, 2, 3):
            pts = [rng.rational_point(d) for _ in range(4)]
            in_convex_hull(rng.rational_point(d), pts)
            strict_separator(pts, rng.rational_point(d))
            expected.extend([(4, 1 + d)] * 2)
            for r in (2, 3, 4):
                common_point_with_weights(
                    [[rng.rational_point(d) for _ in range(2)] for _ in range(r)]
                )
                expected.append((2 * r, r + d * (r - 1)))

    seen = recorded_systems(monkeypatch, run)
    assert [(system.n_vars, len(system)) for system, _ in seen] == expected


small_fractions = st.builds(F, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def small_systems(draw):
    """1-3 variables; LE and EQ rows with rational coefficients and
    right-hand sides of either sign; bound rows -c*x_j <= 0 (c > 0), some
    on the same variable, spliced in anywhere."""
    n = draw(st.integers(1, 3))
    rows = [
        (
            tuple(draw(st.lists(small_fractions, min_size=n, max_size=n))),
            draw(st.sampled_from((LE, EQ))),
            draw(small_fractions),
        )
        for _ in range(draw(st.integers(1, 5)))
    ]
    for j in draw(st.lists(st.integers(0, n - 1), max_size=n + 1)):
        coeffs = [F(0)] * n
        coeffs[j] = -draw(st.builds(F, st.integers(1, 5), st.integers(1, 3)))
        rows.insert(draw(st.integers(0, len(rows))), (tuple(coeffs), LE, F(0)))
    return General(n, tuple(rows))


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(small_systems())
def test_integer_phase1_matches_the_fraction_tableau(system):
    std = standard_form(*system)
    assert_matches_oracle(system, std, lp_feasible(std))


# ---------------------------------------------------------------------------
# the Fraction certificate checks, as the oracle of the integer ones
# ---------------------------------------------------------------------------

def fraction_check_witness(system, x):
    """check_witness as it was in Fractions, over the unscaled general-form
    rows."""
    if len(x) != system.n_vars or any(v < 0 for v in x):
        return False
    for coeffs, rel, rhs in system.constraints:
        lhs = sum(c * v for c, v in zip(coeffs, x))
        if rel == LE and lhs > rhs:
            return False
        if rel == EQ and lhs != rhs:
            return False
    return True


def fraction_check_farkas(system, mult):
    """check_farkas as it was in Fractions, over the unscaled general-form
    rows: nu >= 0 on the <= rows stands in for the slack columns."""
    if len(mult) != len(system.constraints):
        return False
    combo = [F(0)] * system.n_vars
    total = F(0)
    for nu, (coeffs, rel, rhs) in zip(mult, system.constraints):
        if rel == LE and nu < 0:
            return False
        for j, c in enumerate(coeffs):
            combo[j] += nu * c
        total += nu * rhs
    return all(c >= 0 for c in combo) and total < 0


TINY = F(1, 10**12)


def perturbed(vec):
    """vec, then per entry: vec with that entry moved by +-1/10^12, and
    with its sign flipped."""
    yield tuple(vec)
    for j, v in enumerate(vec):
        for w in (v + TINY, v - TINY, -v):
            yield tuple(vec[:j]) + (w,) + tuple(vec[j + 1:])


def with_slacks(system, x):
    """x followed by the slacks  b - a . x  of the system's <= rows, in row
    order: the point of standard_form(*system) that x stands for."""
    return tuple(x) + tuple(
        rhs - sum(c * v for c, v in zip(coeffs, x))
        for coeffs, rel, rhs in system.constraints if rel == LE
    )


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(small_systems())
def test_scaled_rows_are_the_rows_times_their_lcm(system):
    """Against the general-form rows standard_form was given: each row
    times the lcm of its denominators, its slack entry 1 times that lcm."""
    std = standard_form(*system)
    n = system.n_vars
    Ls = []
    for (coeffs, rel, rhs), (L, a, b) in zip(system.constraints, std.scaled, strict=True):
        assert L == lcm(*(c.denominator for c in coeffs + (rhs,)))
        assert all(type(c) is int for c in a + (b,))
        assert (a[:n], b) == (tuple(L * c for c in coeffs), L * rhs)
        assert sorted(a[n:]) == [0] * (len(a) - n - (rel == LE)) + [L] * (rel == LE)
        Ls.append(L)
    assert std.M == lcm(*Ls)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(small_systems())
def test_integer_checks_agree_with_the_fraction_checks(system):
    """On the kernel's answer and on copies of it perturbed by +-1/10^12 or
    a sign flip, the integer checks on the standard form and the Fraction
    ones on the general form agree; a perturbed x gets its slacks
    recomputed.  The answer is read as Fractions and perturbed there, and
    each copy goes to the integer checks scaled back to integers."""
    std = standard_form(*system)
    out = lp_feasible(std)
    if out.status == OPTIMAL:
        x = fraction_witness(out)[:system.n_vars]
        verdicts = [(check_witness(std, *integer_witness(with_slacks(system, y))),
                     fraction_check_witness(system, y))
                    for y in perturbed(x)]
        # a positive coordinate made negative leaves x >= 0
        assert all(not check_witness(std, *integer_witness(with_slacks(system, y)))
                   for y in perturbed(x) if min(y) < 0)
    else:
        nu = fraction_multipliers(std, out.farkas)
        verdicts = [(check_farkas(std, integer_multipliers(std, m)),
                     fraction_check_farkas(system, m))
                    for m in perturbed(nu)]
        # a multiplier made negative on an LE row certifies nothing: its
        # slack column combines to that multiplier
        assert not any(
            check_farkas(std, integer_multipliers(std, m)) for m in perturbed(nu)
            if any(v < 0 and rel == LE for v, (_, rel, _) in zip(m, system.constraints))
        )
    assert verdicts[0] == (True, True)
    assert all(a == b for a, b in verdicts)


def test_infeasible_farkas_normalized():
    system = standard_form(1, [le([F(1)], F(0)), le([F(-1)], F(-1))])
    out = lp_feasible(system)
    assert out.status == INFEASIBLE
    nu = fraction_multipliers(system, out.farkas)
    assert all(v >= 0 for v in nu)
    assert sum(v * rhs for v, (_, rhs) in zip(nu, system.constraints)) == F(-1)


def test_variables_are_nonnegative():
    # x_0 == -1 has no solution with x_0 >= 0
    system = standard_form(1, [eq([F(1)], F(-1))])
    out = lp_feasible(system)
    assert out.status == INFEASIBLE and check_farkas(system, out.farkas)
    assert not check_witness(standard_form(1, [le([F(1)], F(1))]), *integer_witness((F(-1), F(2))))


def test_farkas_combination_is_nonnegative_not_zero():
    # x_0 + x_1 <= -1 is empty over x >= 0 though its row is not 0
    empty = standard_form(2, [le([F(1), F(1)], F(-1))])
    assert check_farkas(empty, integer_multipliers(empty, (F(1),)))
    assert lp_feasible(empty).status == INFEASIBLE
    # x_0 - x_1 <= -1 holds at (0, 1): a negative entry certifies nothing
    feasible = standard_form(2, [le([F(1), F(-1)], F(-1))])
    assert not check_farkas(feasible, integer_multipliers(feasible, (F(1),)))


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
    out = lp_feasible(standard_form(2, rows))
    assert out.status == OPTIMAL and fraction_witness(out)[:2] == (F(1), F(1))


def test_exact_rational_pivoting():
    # tiny coefficients that float arithmetic would mangle; x == a is forced
    a = F(1, 10**12)
    system = standard_form(1, [le([F(-1)], F(0)), le([F(1)], a), le([F(-1)], -a)])
    out = lp_feasible(system)
    assert out.status == OPTIMAL and fraction_witness(out)[:1] == (a,)


def test_malformed_systems_rejected():
    """A row is integers (L, A, B) with L > 0 and one coefficient per
    variable."""
    with pytest.raises(ValueError):
        LinearSystem(2, [(1, (1,), 0)])
    for row in [
        (0, (1,), 1),  # L = 0
        (-1, (1,), 1),  # L < 0: the feasible row -x = -1
        (F(1), (1,), 1),
        (True, (1,), 1),
        (1, (F(1),), 1),
        (1, (1,), F(1)),
        (1, (True,), 1),
        (1, (1,), False),
    ]:
        with pytest.raises(ValueError):
            LinearSystem(1, [row])
    # the first bad row names the error
    good, short, fraction = (1, (1,), 1), (1, (), 1), (1, (F(1),), 1)
    with pytest.raises(ValueError, match="has 0 coefficients"):
        LinearSystem(1, [good, short, fraction])
    with pytest.raises(ValueError, match="must be integers"):
        LinearSystem(1, [good, fraction, short])
    with pytest.raises(ValueError):
        eq([F(1)], "nonsense")


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


def hull_system(x, pts):
    """The hull-membership system of x over pts as general-form rows:
    sum lambda == 1, then one row per coordinate."""
    k = len(pts)
    return General(k, (eq([1] * k, 1), *(eq([p[i] for p in pts], c) for i, c in enumerate(x))))


def test_separation_is_dual_to_membership():
    """Membership and separation exclude each other, and both return the
    Fraction tableau's values: in_convex_hull its witness, strict_separator
    (nu[1:], nu[0] + 1/2) for its multipliers nu on the hull rows."""
    rng = SplitMix64(7)
    inside = outside = 0
    for _ in range(80):
        d = rng.int_between(1, 3)
        pts = [rng.rational_point(d) for _ in range(rng.int_between(1, 6))]
        x = rng.rational_point(d)
        weights = in_convex_hull(x, pts)
        sep = strict_separator(pts, x)
        assert (weights is not None) == (sep is None)
        _, witness, farkas = oracle_feasible(with_bounds(hull_system(x, pts)))
        assert weights == witness
        if sep is not None:
            nu = farkas[len(pts):]
            assert sep[:2] == (nu[1:], nu[0] + F(1, 2))
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


# ---------------------------------------------------------------------------
# partition systems built in scaled form, against the Fraction rows
# ---------------------------------------------------------------------------

def assert_same_system(scaled_built, blocks):
    reference = fraction_partition_system(blocks)
    assert scaled_built.n_vars == reference.n_vars
    assert scaled_built.scaled == reference.scaled
    assert scaled_built.M == reference.M
    assert len(scaled_built) == len(reference)
    assert scaled_built.constraints == reference.constraints


def solving_into(record):
    """lp_feasible that passes each system it solves to record first."""
    solve = tverlab.exactlp.lp_feasible

    def recording(system):
        record(system)
        return solve(system)

    return recording


def test_scaled_partition_systems_equal_the_fraction_built_ones(monkeypatch):
    """The 676 partition-search systems of acceptance criterion 3, each
    against the system built from the configuration's Fraction points
    (the r = 2 ones through the search, with their Radon step off)."""
    monkeypatch.setattr("tverlab.depth._radon_partition", lambda config: None)
    cases = []
    certificate = tverlab.depth._partition_certificate

    def recording(config, blocks):
        cases.append(([subset(config, b) for b in blocks], []))
        return certificate(config, blocks)

    monkeypatch.setattr("tverlab.depth._partition_certificate", recording)
    monkeypatch.setattr(
        "tverlab.exactlp.lp_feasible", solving_into(lambda system: cases[-1][1].append(system))
    )
    for d, r in ((1, 2), (1, 3), (2, 2), (2, 3), (3, 2)):
        rng = SplitMix64(100 * d + r)
        n = guaranteed_size(d, r)
        for _ in range(50):
            tverberg_partition(random_point_config(d, n, rng, num_bound=6, den_bound=3), r)
    assert len(cases) == 676
    for blocks, (system,) in cases:
        assert_same_system(system, blocks)


mixed_scalars = st.builds(
    F, st.integers(-40, 40), st.sampled_from((1, 2, 3, 4, 6, 7, 12, 1024, 999983))
)


@st.composite
def scaled_partitions(draw):
    """A partition of 3-7 points in R^1..R^3 with widely mixed denominators
    into 2-3 blocks, and the blocks as one Scaled block each over a common
    denominator: the lcm of theirs times an extra factor, as when the
    configuration has denominators that these coordinates do not."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(3, 7))
    points = [tuple(draw(st.lists(mixed_scalars, min_size=d, max_size=d))) for _ in range(n)]
    r = draw(st.integers(2, 3))
    labels = draw(st.lists(st.integers(0, r - 1), min_size=n, max_size=n))
    blocks = [b for b in ([points[i] for i in range(n) if labels[i] == k] for k in range(r)) if b]
    L = lcm(*(c.denominator for p in points for c in p)) * draw(st.sampled_from((1, 2, 5, 12)))
    scaled = [Scaled(L, [tuple(int(c * L) for c in p) for p in b]) for b in blocks]
    return blocks, scaled


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(scaled_partitions())
def test_scaled_systems_of_mixed_denominators_equal_the_fraction_built_ones(case):
    blocks, scaled = case
    for given_blocks in (blocks, scaled):
        seen = []
        solve = tverlab.exactlp.lp_feasible
        tverlab.exactlp.lp_feasible = solving_into(seen.append)
        try:
            common_point_with_weights(given_blocks)
        finally:
            tverlab.exactlp.lp_feasible = solve
        (system,) = seen
        assert_same_system(system, blocks)
