"""Exact rational linear feasibility over nonnegative variables.

A system is the set  {x >= 0 : Ax = b}  in standard form, given by integer
rows (L_i, A_i, B_i): row i reads  (A_i / L_i) . x == B_i / L_i  with
L_i > 0.  Every system the package solves is a convex-combination system
whose variables are weights, so nonnegativity is the kernel's contract
rather than a row of its own, and an inequality is a row with a slack
variable of the caller's.  The kernel is one function, `lp_feasible`:
phase 1 of the primal simplex with Bland's rule, so termination is
guaranteed and no tolerance ever enters.  The tableau is integer, the
rows [A | b] and the objective row with no column per artificial
variable, and is pivoted fraction-free (`rationals.bareiss_pivot`): its
rows share one positive denominator and every division is exact.  An
infeasible outcome recovers the dual of its final basis, and with it the
Farkas multipliers, by one `rationals.bareiss_eliminate` over the rows
whose artificial left the basis.  Every answer carries a certificate in
integers, re-verified against the integer rows before it is returned:

* feasible      -> a witness X over one positive denominator D, the
                   tableau's last pivot: x = X/D >= 0 satisfies every row;
* infeasible    -> Farkas multipliers N, one integer per row, combining
                   the rows (A_i, B_i) to  c . x == t  with every
                   c_j >= 0 and t < 0, which no x >= 0 satisfies.

`Fraction`s are built only by `strict_separator`, which hands values to
callers, by `_fractions`, which `depth` calls for a certificate's
weights, and by `LinearSystem.constraints`, a view that only the
benchmark's tracer (`perfbench/tracer.py`) reads.
`_common_point` is the one reader of the LP's variable layout: it returns
the common point of integer point blocks and each block's weights in
integers, or the functionals that separate the hulls, which the partition
search keeps as a cut.
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

from .rationals import Point, bareiss_eliminate, bareiss_pivot, read_scaled

ScaledRow = Tuple[int, Tuple[int, ...], int]

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
_ZERO = Fraction(0)
_INT = frozenset((int,))  # the one type a row's entries may have (not bool)


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
            if type(L) is not int or type(rhs) is not int or L <= 0 or not _INT.issuperset(map(type, coeffs)):
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
# public operations
# ---------------------------------------------------------------------------

def lp_feasible(system: LinearSystem) -> LPOutcome:
    """A witness x >= 0 of the rows, or a verified Farkas certificate that
    none exists.

    Phase 1 starts from the basis of one artificial variable per row and
    runs on the integer tableau  [A | b]  plus the objective row: Bland's
    rule enters only variable columns, so an artificial column, once it
    leaves, never re-enters, and the tableau keeps no column for it.  It is
    pivoted fraction-free (`bareiss_pivot`): every entry is an integer over
    the one positive common denominator D, the last pivot.  Row i is the
    system's integer row (A_i, B_i), the row scaled by L_i, signed by
    sigma_i so that rhs >= 0, and artificial i costs c_i = M/L_i with M the
    lcm of all L_i.  That objective is M times the plain sum of the
    unscaled artificials, so the pivots are those of the Fraction tableau.
    The objective row R, the artificial basis priced out, is pivoted as one
    more row; its last entry is minus the minimum over D.  A feasible
    outcome reads the witness X/D off the basic rows.

    An infeasible one reads the Farkas multipliers off the dual y of the
    final basis B, y.B = c_B, in integers q = -D y.  Over the signed rows
    A'_i = sigma_i A_i, an artificial k still basic sits in its own row k
    (it never re-entered), so q_k = -D c_k; each structural basic column b
    costs 0, so sum_i q_i A'_i[b] = 0.  These are the entries that an
    identity block's columns would hold in R, R_{n+k} - D c_k, and the
    structural equations, one per row whose artificial left, are one
    square system in those rows' unknowns, solved by one
    `bareiss_eliminate` with the known q_k moved to the right.  The reduced
    costs of the variable columns, >= 0 at the optimum, make the rows'
    combination by -y >= 0 and its right-hand side is minus the minimum,
    so on the system's rows the multipliers are N_k = sigma_k q_k;
    check_farkas verifies that they combine the rows to a negative
    right-hand side.
    """
    n, m = system.n_vars, len(system)
    T, sigma = [], []
    for _, coeffs, rhs in system.scaled:
        sigma.append(1 if rhs >= 0 else -1)
        T.append([*coeffs, rhs] if rhs >= 0 else [-c for c in coeffs] + [-rhs])
    signed = T[:]  # bareiss_pivot replaces rows, so these stay the signed rows
    costs = [system.M // L for L, _, _ in system.scaled]
    R = [0] * (n + 1)
    for row, c in zip(signed, costs):  # price out the artificial basis
        R = [a - c * t for a, t in zip(R, row)]
    T.append(R)
    D = 1
    basis = [n + i for i in range(m)]
    for _ in range(1000 + 50 * (n + m + 1) * (m + 2)):
        R = T[m]
        enter = next((j for j in range(n) if R[j] < 0), None)
        if enter is None:
            break
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
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave is None:  # the phase-1 objective is bounded below by 0
            raise RuntimeError("phase 1 cannot be unbounded")
        D = bareiss_pivot(T, leave, enter, D)
        basis[leave] = enter
    else:  # Bland's rule terminates; this is a tripwire
        raise RuntimeError("simplex iteration limit exceeded")
    if R[-1] != 0:  # minimal artificial sum positive -> infeasible
        q = [-D * c for c in costs]
        left = [i for i, b in enumerate(basis) if b < n]
        kept = [k for k, b in enumerate(basis) if b >= n]
        rows = [[signed[i][b] for i in left] + [-sum(q[k] * signed[k][b] for k in kept)]
                for b in (basis[i] for i in left)]
        E, pivots = bareiss_eliminate(rows, len(left))
        for j, i in pivots.items():
            q[left[j]] = rows[i][-1] // E
        N = tuple(s * v for s, v in zip(sigma, q))
        if not check_farkas(system, N):
            raise RuntimeError("Farkas certificate failed verification")
        return LPOutcome(status=INFEASIBLE, farkas=N)
    X = [0] * n
    for i, b in enumerate(basis):
        if b < n:
            X[b] = T[i][-1]
    if not check_witness(system, D, X):
        raise RuntimeError("simplex witness failed exact verification")
    return LPOutcome(status=OPTIMAL, witness=tuple(X), denominator=D)


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


def _common_point(
    L: int, pts: Sequence[Sequence[Tuple[int, ...]]]
) -> Tuple[Optional[int], ...]:
    """(K, X, weights): a common point X/K of the hulls of integer point
    blocks over one denominator L (at least one block, each of at least one
    point, all of one dimension) and per block the convex weights over K
    writing it; or (None, separators) when the blocks share no point.

    The variables are the weights lambda >= 0 of all blocks, in block
    order: one sum row per block, then per later block B and coordinate i
    the coupling row  sum_{v in first block} lambda_v v[i] - sum_{v in B}
    lambda_v v[i] == 0.  A coupling row is R/L for the integer points, and
    with g = gcd(L, R) its own lcm scaling is (L/g, R/g), so no Fraction
    row is built.  With the LP's witness W over D, K = D L, the weights
    are L W_v and X = sum W_v P_v over the first block.

    The separators prove that the hulls share no point: integer
    functionals u_1..u_r on R^d, one per block, with sum_j u_j = 0 and
    sum_j min_{v in block j} u_j.v > 0.  At a common
    point x each u_j.x would be at least block j's minimum while the u_j.x
    sum to 0, so the same test proves any other blocks' hulls disjoint
    too, block j read by u_j.  They come from the Farkas multipliers on
    the unscaled rows, nu_k = N_k L_k up to a positive factor:
    u_B = -nu on block B's coupling rows and u_1 = -(u_2 + ... + u_r);
    nu_j on block j's sum row bounds u_j's minimum over the block below
    by -nu_j, and the nu_j sum to a negative number."""
    d = len(pts[0][0])
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
        nu = [N * row[0] for N, row in zip(out.farkas, scaled)]
        later = [tuple(-c for c in nu[k:k + d]) for k in range(len(pts), len(nu), d)]
        return None, (tuple(-sum(c) for c in zip(*later)), *later)
    W = out.witness
    X = tuple(sum(map(operator.mul, W, c)) for c in zip(*first))
    weights = tuple(tuple(L * w for w in W[a:a + size]) for size, a in zip(sizes, offsets))
    return out.denominator * L, X, weights


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
