"""Exact rational linear feasibility over nonnegative variables.

A system is the set  {x >= 0 : Ax = b}  in standard form: each row
(coeffs, rhs) reads  coeffs . x == rhs.  Every system the package solves is
a convex-combination system whose variables are weights, so nonnegativity
is the kernel's contract rather than a row of its own, and an inequality
is a row with a slack variable of the caller's.  Phase 1 of the primal
simplex with Bland's rule, so termination is guaranteed and no tolerance
ever enters.  The tableau is integer and is pivoted fraction-free
(`rationals.bareiss_pivot`): its rows share one positive denominator and
every division is exact.  Every value returned is still a
`fractions.Fraction`, and every answer carries a certificate that is
re-verified, in integers over the system's rows scaled once by the lcm of
their denominators, before it is returned:

* feasible      -> a witness point x >= 0 satisfying every row exactly;
* infeasible    -> a Farkas combination: one multiplier per row, combining
                   the rows to  c . x == -1  with every c_j >= 0, which no
                   x >= 0 satisfies.

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

from .rationals import Point, bareiss_pivot, integer_scaled, rat, read_scaled

Row = Tuple[Tuple[Fraction, ...], Fraction]
ScaledRow = Tuple[int, Tuple[int, ...], int]

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"


def eq(coeffs: Sequence, rhs) -> Row:
    """Build the constraint row  coeffs . x == rhs."""
    return (tuple(rat(c) for c in coeffs), rat(rhs))


class LinearSystem:
    """The set  {x >= 0 : a_i . x == b_i for each row i}  over n_vars
    nonnegative variables, for a finite list of exact rows (a_i, b_i).

    Rows are taken as given, so their entries must already be Fractions,
    as `eq` and the builders below make them.  Each row is also kept
    scaled to integers once, as (L_i, L_i a_i, L_i b_i) with L_i the lcm
    of its denominators, and M is the lcm of all L_i; the tableau and both
    certificate checks read these.  `from_scaled` builds a system
    from such rows directly, and then the Fraction `constraints` are
    derived only when something reads them."""

    def __init__(self, n_vars: int, constraints: Sequence[Row]):
        self.constraints: Tuple[Row, ...] = tuple(constraints)
        self._set_scaled(n_vars, (_scaled_row(row) for row in self.constraints))

    @classmethod
    def from_scaled(cls, n_vars: int, scaled: Iterable[ScaledRow]) -> "LinearSystem":
        """The system of the rows (L_i, A_i, B_i) / L_i, each given as
        its own lcm scaling: L_i > 0 and gcd(L_i, A_i, B_i) = 1."""
        system = cls.__new__(cls)
        system._set_scaled(n_vars, scaled)
        return system

    def _set_scaled(self, n_vars: int, scaled: Iterable[ScaledRow]) -> None:
        if n_vars < 0:
            raise ValueError("n_vars must be nonnegative")
        self.n_vars = n_vars
        self.scaled = list(scaled)
        for _, coeffs, _ in self.scaled:
            if len(coeffs) != n_vars:
                raise ValueError(
                    f"constraint has {len(coeffs)} coefficients, expected {n_vars}"
                )
        self.M = lcm(*(L for L, _, _ in self.scaled))

    @functools.cached_property
    def constraints(self) -> Tuple[Row, ...]:
        """The rows as Fractions, (A_i / L_i, B_i / L_i); a system built
        from Fraction rows keeps the rows it was given."""
        return tuple(
            (tuple(Fraction(c, L) for c in coeffs), Fraction(rhs, L))
            for L, coeffs, rhs in self.scaled
        )

    def __len__(self) -> int:
        return len(self.scaled)

    def __repr__(self) -> str:
        return f"LinearSystem(n_vars={self.n_vars}, m={len(self)})"


def _scaled_row(row: Row) -> ScaledRow:
    coeffs, rhs = row
    L, (ints,) = integer_scaled([(*coeffs, rhs)])
    return L, ints[:-1], ints[-1]


class FarkasCertificate(NamedTuple):
    """Multipliers nu, one per constraint row, with sum nu_i * coeffs_i >= 0
    componentwise and sum nu_i * rhs_i == -1: no x >= 0 satisfies the
    rows."""

    multipliers: Tuple[Fraction, ...]


class LPOutcome(NamedTuple):
    """A witness, or a Farkas certificate together with its multipliers on
    the system's scaled rows as integers over one positive denominator
    (`scaled_farkas`), for callers that read the rows in integers."""

    status: str
    witness: Optional[Point] = None
    farkas: Optional[FarkasCertificate] = None
    scaled_farkas: Optional[Tuple[int, ...]] = None


# ---------------------------------------------------------------------------
# certificate checks (exact; the solver re-verifies everything it returns),
# in integers: x or nu is scaled by the lcm of its denominators and read
# against the system's scaled rows
# ---------------------------------------------------------------------------

def check_witness(system: LinearSystem, x: Sequence[Fraction]) -> bool:
    """x = X/D >= 0 satisfies every row: (L_i a_i).X == D L_i b_i."""
    if len(x) != system.n_vars:
        return False
    D, (X,) = integer_scaled([x])
    return all(v >= 0 for v in X) and all(
        sum(map(operator.mul, coeffs, X)) == D * rhs for _, coeffs, rhs in system.scaled
    )


def check_farkas(system: LinearSystem, cert: FarkasCertificate) -> bool:
    """nu = N/K certifies that no x >= 0 satisfies the rows: sum nu_i (a_i, b_i)
    is 1/(K M) times the scaled rows combined with weights N_i M/L_i."""
    mult = cert.multipliers
    if len(mult) != len(system):
        return False
    _, (N,) = integer_scaled([mult])
    combo = [0] * system.n_vars
    total = 0
    for nu, (L, coeffs, rhs) in zip(N, system.scaled):
        if nu:
            w = nu * (system.M // L)
            combo = [c + w * a for c, a in zip(combo, coeffs)]
            total += w * rhs
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

    Row i is the system's row scaled to integers by L_i, the lcm of its
    denominators, signed so that rhs >= 0; its artificial column stays a
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
        self.rhs0 = [row[-1] for row in self.T]  # for the Farkas total
        self.scale = [L for L, _, _ in system.scaled]
        self.M = system.M
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
        costs = [self.M // L for L in self.scale]
        R = [0] * self.system.n_vars + costs + [0]
        for row, c in zip(self.T, costs):  # price out the artificial basis
            R = [a - c * t for a, t in zip(R, row)]
        return self._bland(R)

    # -- extraction ----------------------------------------------------------

    def witness(self) -> Point:
        x = [Fraction(0)] * self.system.n_vars
        for i, b in enumerate(self.basis):
            if b < len(x):
                x[b] = Fraction(self.T[i][-1], self.D)
        return tuple(x)

    def farkas(self, R) -> Tuple[FarkasCertificate, Tuple[int, ...]]:
        """The Farkas certificate from the phase-1 objective row R, and its
        multipliers on the system's scaled rows as integers.

        The reduced cost under artificial column k is R_k/D = (M/L_k)(1 - y_k)
        for the dual y of the unscaled rows, so y_k = 1 - L_k*R_k/(D*M), and
        nu = -y combines the rows with a negative right-hand side; the
        reduced costs of the variable columns, >= 0 at the optimum, make the
        combination >= 0.  On the rows as the tableau first scaled and
        signed them (right-hand sides b_k), nu is the integer
        mu_k = R_k - D*(M/L_k) over D*M, so the total T = sum mu_k b_k is
        negative.  On the system's scaled rows the multipliers are the
        integers sigma_k*mu_k over -T; on its unscaled rows they are
        L_k*sigma_k*mu_k over -T, each made a Fraction once.
        """
        n = self.system.n_vars
        mu = [R[n + i] - self.D * (self.M // L) for i, L in enumerate(self.scale)]
        total = sum(map(operator.mul, mu, self.rhs0))
        if total >= 0:
            raise RuntimeError("Farkas extraction failed")
        scaled = tuple(map(operator.mul, self.sigma, mu))
        return FarkasCertificate(tuple(
            Fraction(L * v, -total) for L, v in zip(self.scale, scaled)
        )), scaled


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def lp_feasible(system: LinearSystem) -> LPOutcome:
    """A witness x >= 0 of the rows, or a verified Farkas certificate that
    none exists."""
    tab = _Tableau(system)
    R = tab.phase1()
    if R[-1] != 0:  # minimal artificial sum positive -> infeasible
        cert, scaled = tab.farkas(R)
        if not check_farkas(system, cert):
            raise RuntimeError("Farkas certificate failed verification")
        return LPOutcome(status=INFEASIBLE, farkas=cert, scaled_farkas=scaled)
    x = tab.witness()
    if not check_witness(system, x):
        raise RuntimeError("simplex witness failed exact verification")
    return LPOutcome(status=OPTIMAL, witness=x)


def _hull_membership(p: Sequence, points: Sequence[Sequence]) -> LPOutcome:
    """lp_feasible over the weights lambda >= 0 on the rows  sum lambda == 1,
    then  sum_j lambda_j points_j[i] == p[i]  for each coordinate i."""
    pp = tuple(rat(c) for c in p)
    pts = [tuple(rat(c) for c in q) for q in points]
    if not pts:
        raise ValueError("need at least one point")
    d = len(pp)
    for q in pts:
        if len(q) != d:
            raise ValueError("point dimension mismatch")
    k = len(pts)
    rows = [eq([Fraction(1)] * k, 1)]
    for i in range(d):
        rows.append(eq([pts[j][i] for j in range(k)], pp[i]))
    return lp_feasible(LinearSystem(k, rows))


def in_convex_hull(p: Sequence, points: Sequence[Sequence]) -> Optional[Point]:
    """Exact convex weights writing p from the given points, or None if p
    is outside their hull."""
    return _hull_membership(p, points).witness


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
    (L/g, R/g), so no Fraction row is built.

    When the hulls share no point and `separators` is a list, the proof is
    appended to it: integer functionals u_1..u_r on R^d, one per block,
    with sum_j u_j = 0 and sum_j min_{v in block j} u_j.v > 0.  At a common
    point x each u_j.x would be at least block j's minimum while the u_j.x
    sum to 0, so the same test proves any other blocks' hulls disjoint
    too, block j read by u_j.  They come from the Farkas multipliers nu
    scaled to integers (`scaled_farkas` times each row's scaling L_k):
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
    out = lp_feasible(LinearSystem.from_scaled(total, scaled))
    if out.status != OPTIMAL:
        if separators is not None:
            nu = [N * row[0] for N, row in zip(out.scaled_farkas, scaled)]
            later = [tuple(-c for c in nu[k:k + d]) for k in range(len(pts), len(nu), d)]
            separators.append((tuple(-sum(c) for c in zip(*later)), *later))
        return None
    lam = out.witness
    D, (w,) = integer_scaled([lam[:len(first)]])
    point = tuple(Fraction(sum(map(operator.mul, w, c)), D * L) for c in zip(*first))
    weights = tuple(tuple(lam[off:off + size]) for size, off in zip(sizes, offsets))
    return point, weights


def strict_separator(points: Sequence[Sequence], x: Sequence):
    """Affine functional strictly positive on points, strictly negative at x.

    Read off the Farkas certificate nu of the hull-membership system over
    lambda >= 0, whose combination c is >= 0 at every point b:  a = nu on
    the coordinate rows and a0 = nu on the sum row + 1/2, so
    a . b + a0 = c_b + 1/2 >= 1/2 at every point b and a . x + a0 = -1/2.
    The margin is 1/2, not the largest possible.  Returns
    (coeffs, offset, margin), or None when x lies in the hull.
    """
    out = _hull_membership(x, points)
    if out.witness is not None:
        return None
    nu = out.farkas.multipliers
    half = Fraction(1, 2)
    return nu[1:], nu[0] + half, half
