"""Exact rational linear feasibility over nonnegative variables.

A system is the set  {x >= 0 : Ax = b}  in standard form, given by integer
rows (L_i, A_i, B_i): row i reads  (A_i / L_i) . x == B_i / L_i  with
L_i > 0.  Every system the package solves is a convex-combination system
whose variables are weights, so nonnegativity is the kernel's contract
rather than a row of its own, and an inequality is a row with a slack
variable of the caller's.  Phase 1 of the primal simplex with Bland's
rule, so termination is guaranteed and no tolerance ever enters.  The
tableau is integer and is pivoted fraction-free
(`rationals.bareiss_pivot`): its rows share one positive denominator and
every division is exact.  Every answer carries a certificate in integers,
re-verified against the integer rows before it is returned:

* feasible      -> a witness X over one positive denominator D, the
                   tableau's last pivot: x = X/D >= 0 satisfies every row;
* infeasible    -> Farkas multipliers N, one integer per row, combining
                   the rows (A_i, B_i) to  c . x == t  with every
                   c_j >= 0 and t < 0, which no x >= 0 satisfies.

`Fraction`s are built only by the two functions that hand values to
callers: `strict_separator` and `common_point_with_weights`.
Problem sizes here are tiny (tens of variables), which is the regime
where exact tableau simplex is perfectly practical.
"""
from __future__ import annotations

import functools
import itertools
import operator
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, NamedTuple, Optional, Sequence, Tuple

from .rationals import Point, bareiss_pivot, read_scaled

ScaledRow = Tuple[int, Tuple[int, ...], int]

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
_ZERO = Fraction(0)


class LinearSystem:
    """The set  {x >= 0 : (A_i / L_i) . x == B_i / L_i for each row i}
    over n_vars nonnegative variables, from integer rows (L_i, A_i, B_i)
    with L_i > 0; the builders here give each row as its own lcm scaling,
    gcd(L_i, A_i, B_i) = 1.  `scaled` keeps the rows, and M is the lcm of
    all L_i; the tableau and both certificate checks read these.  The
    Fraction `constraints` are derived only when something reads them."""

    def __init__(self, n_vars: int, rows: Iterable[ScaledRow]):
        if n_vars < 0:
            raise ValueError("n_vars must be nonnegative")
        self.n_vars = n_vars
        self.scaled = list(rows)
        for L, coeffs, rhs in self.scaled:
            if len(coeffs) != n_vars:
                raise ValueError(
                    f"constraint has {len(coeffs)} coefficients, expected {n_vars}"
                )
            if type(L) is not int or L <= 0 or any(type(c) is not int for c in (*coeffs, rhs)):
                raise ValueError("a row must be integers (L, A, B) with L > 0")
        self.M = lcm(*(L for L, _, _ in self.scaled))

    @functools.cached_property
    def constraints(self) -> Tuple[Tuple[Point, Fraction], ...]:
        """The rows as Fractions, (A_i / L_i, B_i / L_i)."""
        return tuple(
            (tuple(Fraction(c, L) for c in coeffs), Fraction(rhs, L))
            for L, coeffs, rhs in self.scaled
        )

    def __len__(self) -> int:
        return len(self.scaled)

    def __repr__(self) -> str:
        return f"LinearSystem(n_vars={self.n_vars}, m={len(self)})"


class LPOutcome(NamedTuple):
    """A witness X over its positive denominator D (x = X/D), or Farkas
    multipliers as integers on the system's rows (L_i, A_i, B_i)."""

    status: str
    witness: Optional[Tuple[int, ...]] = None
    denominator: Optional[int] = None
    farkas: Optional[Tuple[int, ...]] = None


# ---------------------------------------------------------------------------
# certificate checks (exact; the solver re-verifies everything it returns),
# in integers against the system's rows (L_i, A_i, B_i)
# ---------------------------------------------------------------------------

def check_witness(system: LinearSystem, D: int, X: Sequence[int]) -> bool:
    """x = X/D >= 0, with D > 0, satisfies every row: A_i . X == D B_i."""
    if len(X) != system.n_vars or D <= 0:
        return False
    return all(v >= 0 for v in X) and all(
        sum(map(operator.mul, coeffs, X)) == D * rhs for _, coeffs, rhs in system.scaled
    )


def check_farkas(system: LinearSystem, N: Sequence[int]) -> bool:
    """N certifies that no x >= 0 satisfies the rows: sum N_i A_i >= 0
    componentwise and sum N_i B_i < 0."""
    if len(N) != len(system):
        return False
    combo = [0] * system.n_vars
    total = 0
    for nu, (_, coeffs, rhs) in zip(N, system.scaled):
        if nu:
            combo = [c + nu * a for c, a in zip(combo, coeffs)]
            total += nu * rhs
    return all(c >= 0 for c in combo) and total < 0


# ---------------------------------------------------------------------------
# the simplex core
# ---------------------------------------------------------------------------

class _Tableau:
    """Integer tableau  [A | I | b]  for  {x >= 0 : Ax = b}: one column per
    variable and one artificial column per row, whose identity is the
    starting basis.  It is pivoted fraction-free (`bareiss_pivot`): every
    entry is an integer over the one positive common denominator D, the
    last pivot.

    Row i is the system's integer row (A_i, B_i), the row scaled by L_i,
    signed so that rhs >= 0; its artificial column stays a
    unit column, and artificial i costs M/L_i with M the lcm of all L_i.
    That objective is M times the plain sum of the unscaled artificials, so
    the pivots are those of the Fraction tableau.  Artificial columns are
    never allowed to re-enter the basis, and they double as a running copy
    of B^-1 so that Farkas multipliers can be read off the phase-1
    objective row exactly.
    """

    def __init__(self, system: LinearSystem):
        self.system = system
        n = system.n_vars
        m = len(system)
        self.T = []
        self.sigma = []
        for i, (_, coeffs, rhs) in enumerate(system.scaled):
            s = 1 if rhs >= 0 else -1
            self.sigma.append(s)
            row = [s * c for c in coeffs] + [0] * (m + 1)
            row[n + i] = 1
            row[-1] = s * rhs
            self.T.append(row)
        self.costs = [system.M // L for L, _, _ in system.scaled]
        self.D = 1
        self.basis = [n + i for i in range(m)]

    def _bland(self, R):
        """Run Bland-rule pivots until no reduced cost in the objective row
        R is negative; R is pivoted as one more row, and returned."""
        T = self.T
        m = len(T)
        n = self.system.n_vars
        T.append(R)
        guard = 0
        limit = 1000 + 50 * len(R) * (m + 2)
        while True:
            guard += 1
            if guard > limit:  # Bland's rule terminates; this is a tripwire
                raise RuntimeError("simplex iteration limit exceeded")
            R = T[m]
            enter = next((j for j in range(n) if R[j] < 0), None)
            if enter is None:
                return T.pop()
            # least ratio b_i / a_i over a_i > 0 (D cancels), ties to the
            # smaller basis index
            leave = None
            for i in range(m):
                a = T[i][enter]
                if a > 0:
                    if leave is None:
                        leave = i
                        continue
                    lhs = T[i][-1] * T[leave][enter]
                    rhs = T[leave][-1] * a
                    if lhs < rhs or (lhs == rhs and self.basis[i] < self.basis[leave]):
                        leave = i
            if leave is None:  # the phase-1 objective is bounded below by 0
                raise RuntimeError("phase 1 cannot be unbounded")
            self.D = bareiss_pivot(T, leave, enter, self.D)
            self.basis[leave] = enter

    def phase1(self):
        """Minimise M times the sum of the unscaled artificials; returns the
        objective row over D, whose last entry is minus that minimum."""
        R = [0] * self.system.n_vars + self.costs + [0]
        for row, c in zip(self.T, self.costs):  # price out the artificial basis
            R = [a - c * t for a, t in zip(R, row)]
        return self._bland(R)

    # -- extraction ----------------------------------------------------------

    def witness(self) -> Tuple[int, ...]:
        X = [0] * self.system.n_vars
        for i, b in enumerate(self.basis):
            if b < len(X):
                X[b] = self.T[i][-1]
        return tuple(X)

    def farkas(self, R) -> Tuple[int, ...]:
        """The Farkas multipliers on the system's rows (L_k, A_k, B_k), as
        integers, from the phase-1 objective row R.

        The reduced cost under artificial column k is R_k/D = (M/L_k)(1 - y_k)
        for the dual y of the unscaled rows, so y_k = 1 - L_k*R_k/(D*M), and
        nu = -y combines the rows with a negative right-hand side; the
        reduced costs of the variable columns, >= 0 at the optimum, make the
        combination >= 0.  On the rows as the tableau first scaled and
        signed them, nu is the integer mu_k = R_k - D*(M/L_k) over D*M, so
        on the system's rows the multipliers are sigma_k*mu_k; check_farkas
        verifies that they combine the rows to a negative right-hand side.
        """
        n = self.system.n_vars
        mu = [R[n + i] - self.D * c for i, c in enumerate(self.costs)]
        return tuple(map(operator.mul, self.sigma, mu))


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def lp_feasible(system: LinearSystem) -> LPOutcome:
    """A witness x >= 0 of the rows, or a verified Farkas certificate that
    none exists."""
    tab = _Tableau(system)
    R = tab.phase1()
    if R[-1] != 0:  # minimal artificial sum positive -> infeasible
        N = tab.farkas(R)
        if not check_farkas(system, N):
            raise RuntimeError("Farkas certificate failed verification")
        return LPOutcome(status=INFEASIBLE, farkas=N)
    X = tab.witness()
    if not check_witness(system, tab.D, X):
        raise RuntimeError("simplex witness failed exact verification")
    return LPOutcome(status=OPTIMAL, witness=X, denominator=tab.D)


def _fractions(X: Sequence[int], D: int) -> Point:
    """X/D as Fractions, its zero entries the one shared _ZERO."""
    return tuple(Fraction(v, D) if v else _ZERO for v in X)


def _hull_membership(p: Sequence, points: Sequence[Sequence]) -> Tuple[LinearSystem, LPOutcome]:
    """The system over the weights lambda >= 0 with the rows  sum lambda == 1,
    then  sum_j lambda_j points_j[i] == p[i]  per coordinate i, and its
    outcome.  p and the points are read by one read_scaled, over L; with
    g = gcd(L, X_i, P_j[i]), row i is its own lcm scaling (L, P_j[i], X_i)/g."""
    L, (X, *P) = read_scaled([p, *points])
    if not P:
        raise ValueError("need at least one point")
    if any(len(q) != len(X) for q in P):
        raise ValueError("point dimension mismatch")
    rows = [(1, (1,) * len(P), 1)]
    for x, coeffs in zip(X, zip(*P)):
        g = gcd(L, x, *coeffs)
        rows.append((L // g, tuple(c // g for c in coeffs), x // g))
    system = LinearSystem(len(P), rows)
    return system, lp_feasible(system)


def common_point_with_weights(
    blocks: Sequence[Sequence[Sequence]], separators: Optional[list] = None
):
    """A common point of the hulls of the point blocks, with exact convex
    weights per block writing it, as (point, weights); or None.

    Each block is read with read_scaled, so a block read already is used
    as it is, and the blocks are brought to one denominator L.  The
    variables are the weights lambda >= 0 of all blocks: one sum row per
    block, then per later block B and coordinate i the coupling row
    sum_{v in first block} lambda_v v[i] - sum_{v in B} lambda_v v[i] == 0.
    The system is built in its scaled form: a coupling row is R/L for the
    integer points, and with g = gcd(L, R) its own lcm scaling is
    (L/g, R/g), so no Fraction row is built.  With the witness X/D, the
    point is sum X_v P_v / (D L) over the first block and the weights are
    X_v / D.

    When the hulls share no point and `separators` is a list, the proof is
    appended to it: integer functionals u_1..u_r on R^d, one per block,
    with sum_j u_j = 0 and sum_j min_{v in block j} u_j.v > 0.  At a common
    point x each u_j.x would be at least block j's minimum while the u_j.x
    sum to 0, so the same test proves any other blocks' hulls disjoint
    too, block j read by u_j.  They come from the Farkas multipliers on
    the unscaled rows, nu_k = N_k L_k up to a positive factor:
    u_B = -nu on block B's coupling rows and u_1 = -(u_2 + ... + u_r);
    nu_j on block j's sum row bounds u_j's minimum over the block below
    by -nu_j, and the nu_j sum to a negative number."""
    read = [read_scaled(b) for b in blocks]
    if not read or not all(rows for _, rows in read):
        raise ValueError("need at least one block, each of at least one point")
    d = len(read[0].rows[0])
    if any(len(q) != d for _, rows in read for q in rows):
        raise ValueError("point dimension mismatch")
    L = lcm(*(s for s, _ in read))
    pts = [rows if s == L else [tuple(c * (L // s) for c in q) for q in rows] for s, rows in read]
    sizes = [len(b) for b in pts]
    total = sum(sizes)
    offsets = list(itertools.accumulate(sizes, initial=0))
    scaled = []
    for size, off in zip(sizes, offsets):
        coeffs = [0] * total
        coeffs[off:off + size] = [1] * size
        scaled.append((1, tuple(coeffs), 1))
    first = pts[0]
    for b, off in zip(pts[1:], offsets[1:]):
        for i in range(d):
            coeffs = [v[i] for v in first] + [0] * (total - len(first))
            coeffs[off:off + len(b)] = [-v[i] for v in b]
            g = gcd(L, *coeffs)
            scaled.append((L // g, tuple(c // g for c in coeffs), 0))
    out = lp_feasible(LinearSystem(total, scaled))
    if out.status != OPTIMAL:
        if separators is not None:
            nu = [N * row[0] for N, row in zip(out.farkas, scaled)]
            later = [tuple(-c for c in nu[k:k + d]) for k in range(len(pts), len(nu), d)]
            separators.append((tuple(-sum(c) for c in zip(*later)), *later))
        return None
    X, D = out.witness, out.denominator
    point = tuple(Fraction(sum(map(operator.mul, X, c)), D * L) for c in zip(*first))
    weights = tuple(_fractions(X[off:off + size], D) for size, off in zip(sizes, offsets))
    return point, weights


def strict_separator(points: Sequence[Sequence], x: Sequence):
    """Affine functional strictly positive on points, strictly negative at x.

    Read off the Farkas multipliers N of the hull-membership system, as
    nu_k = N_k L_k / (-sum N_k B_k) on its unscaled rows, whose combination
    c . lambda == -1 has c_b >= 0 at every point b:  a = nu on the
    coordinate rows and a0 = nu on the sum row + 1/2, so
    a . b + a0 = c_b + 1/2 >= 1/2 at every point b and a . x + a0 = -1/2.
    The margin is 1/2, not the largest possible.  Returns
    (coeffs, offset, margin), or None when x lies in the hull.
    """
    system, out = _hull_membership(x, points)
    if out.witness is not None:
        return None
    N = out.farkas
    total = -sum(v * rhs for v, (_, _, rhs) in zip(N, system.scaled))
    nu = tuple(Fraction(v * L, total) for v, (L, _, _) in zip(N, system.scaled))
    half = Fraction(1, 2)
    return nu[1:], nu[0] + half, half
