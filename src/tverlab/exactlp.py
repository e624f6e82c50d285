"""Exact rational linear programming.

A two-phase primal simplex over `fractions.Fraction` with Bland's rule,
so termination is guaranteed and no tolerance ever enters.  Every answer
carries a certificate that is re-verified before it is returned:

* feasible      -> a witness point satisfying every constraint exactly;
* infeasible    -> a Farkas combination: multipliers, nonnegative on the
                   inequality rows, combining the rows to 0 <= -1;
* optimal       -> row multipliers proving the optimum is a lower bound,
                   attained exactly by the primal witness;
* unbounded     -> an improving ray.

Problem sizes here are tiny (tens of variables), which is the regime
where exact tableau simplex is perfectly practical.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .rationals import Point, rat

LE = "<="
EQ = "=="

Row = Tuple[Tuple[Fraction, ...], str, Fraction]

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


def le(coeffs: Sequence, rhs) -> Row:
    """Build the constraint row  coeffs . x <= rhs."""
    return (tuple(rat(c) for c in coeffs), LE, rat(rhs))


def eq(coeffs: Sequence, rhs) -> Row:
    """Build the constraint row  coeffs . x == rhs."""
    return (tuple(rat(c) for c in coeffs), EQ, rat(rhs))


class LinearSystem:
    """A finite list of exact linear constraints over n_vars free variables."""

    def __init__(self, n_vars: int, constraints: Sequence[Row]):
        if n_vars < 0:
            raise ValueError("n_vars must be nonnegative")
        self.n_vars = n_vars
        rows = []
        for coeffs, rel, rhs in constraints:
            coeffs = tuple(rat(c) for c in coeffs)
            if len(coeffs) != n_vars:
                raise ValueError(
                    f"constraint has {len(coeffs)} coefficients, expected {n_vars}"
                )
            if rel not in (LE, EQ):
                raise ValueError(f"unknown relation {rel!r}")
            rows.append((coeffs, rel, rat(rhs)))
        self.constraints: Tuple[Row, ...] = tuple(rows)

    def __len__(self) -> int:
        return len(self.constraints)

    def __repr__(self) -> str:
        return f"LinearSystem(n_vars={self.n_vars}, m={len(self.constraints)})"


@dataclass(frozen=True)
class FarkasCertificate:
    """Multipliers nu (one per constraint row, >= 0 on the <= rows) with
    sum nu_i * coeffs_i == 0 and sum nu_i * rhs_i == -1."""

    multipliers: Tuple[Fraction, ...]


@dataclass(frozen=True)
class LPOutcome:
    status: str
    value: Optional[Fraction] = None
    witness: Optional[Point] = None
    duals: Optional[Tuple[Fraction, ...]] = None
    farkas: Optional[FarkasCertificate] = None
    ray: Optional[Point] = None


# ---------------------------------------------------------------------------
# certificate checks (exact; the solver re-verifies everything it returns)
# ---------------------------------------------------------------------------

def check_witness(system: LinearSystem, x: Sequence[Fraction]) -> bool:
    if len(x) != system.n_vars:
        return False
    for coeffs, rel, rhs in system.constraints:
        lhs = sum(c * v for c, v in zip(coeffs, x))
        if rel == LE and lhs > rhs:
            return False
        if rel == EQ and lhs != rhs:
            return False
    return True


def check_farkas(system: LinearSystem, cert: FarkasCertificate) -> bool:
    mult = cert.multipliers
    if len(mult) != len(system.constraints):
        return False
    combo = [Fraction(0)] * system.n_vars
    total = Fraction(0)
    for nu, (coeffs, rel, rhs) in zip(mult, system.constraints):
        if rel == LE and nu < 0:
            return False
        for j, c in enumerate(coeffs):
            combo[j] += nu * c
        total += nu * rhs
    return all(c == 0 for c in combo) and total < 0


def check_dual_bound(
    system: LinearSystem,
    objective: Sequence[Fraction],
    value: Fraction,
    duals: Sequence[Fraction],
) -> bool:
    """mu_i <= 0 on <= rows, sum mu_i coeffs_i == objective, sum mu_i rhs_i == value.

    For any feasible x this gives  objective . x >= value  exactly.
    """
    if len(duals) != len(system.constraints):
        return False
    combo = [Fraction(0)] * system.n_vars
    total = Fraction(0)
    for mu, (coeffs, rel, rhs) in zip(duals, system.constraints):
        if rel == LE and mu > 0:
            return False
        for j, c in enumerate(coeffs):
            combo[j] += mu * c
        total += mu * rhs
    return all(c == o for c, o in zip(combo, objective)) and total == value


# ---------------------------------------------------------------------------
# the simplex core
# ---------------------------------------------------------------------------

class _Tableau:
    """Standard-form tableau  [A | I | b]  with artificial identity basis.

    Free variables are split x = u - v, except variables recognized as
    nonnegative from rows of the shape  -c*x_j <= 0  (c > 0), which keep a
    single column.  Artificial columns are never allowed to re-enter the
    basis, and they double as a running copy of B^-1 so that row
    multipliers can be read off the objective row exactly.
    """

    def __init__(self, system: LinearSystem):
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

        zero = Fraction(0)
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
                row[slack_col[i]] = Fraction(s)
            row[self.nstruct + i] = Fraction(1)
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

    def _bland(self, R) -> str:
        """Run Bland-rule pivots until optimal or unbounded."""
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
                return OPTIMAL
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
            if leave is None:
                self._ray_col = enter
                return UNBOUNDED
            self._pivot(R, leave, enter)

    # -- objective rows ------------------------------------------------------

    def _reduced_row(self, c_std):
        R = list(c_std) + [Fraction(0)]
        for i, b in enumerate(self.basis):
            f = R[b]
            if f:
                R = [a - f * t for a, t in zip(R, self.T[i])]
        return R

    def phase1(self):
        c = [Fraction(0)] * (self.width - 1)
        for k in range(self.m_kept):
            c[self.nstruct + k] = Fraction(1)
        R = self._reduced_row(c)
        status = self._bland(R)
        if status != OPTIMAL:  # phase-1 objective is bounded below by zero
            raise RuntimeError("phase 1 cannot be unbounded")
        return R

    def drive_out_artificials(self):
        i = 0
        while i < len(self.T):
            if self.basis[i] >= self.nstruct:
                if self.T[i][-1] != 0:
                    raise RuntimeError("artificial basic at nonzero value")
                j = next(
                    (j for j in range(self.nstruct) if self.T[i][j] != 0), None
                )
                if j is None:  # redundant row
                    del self.T[i]
                    del self.basis[i]
                    continue
                dummy = [Fraction(0)] * self.width
                self._pivot(dummy, i, j)
            i += 1

    # -- extraction ----------------------------------------------------------

    def witness(self) -> Point:
        val = {}
        for i, b in enumerate(self.basis):
            val[b] = self.T[i][-1]
        x = []
        for j in range(self.system.n_vars):
            v = val.get(self.pos_col[j], Fraction(0))
            if j in self.neg_col:
                v -= val.get(self.neg_col[j], Fraction(0))
            x.append(v)
        return tuple(x)

    def row_multipliers(self, R, art_cost: Fraction, targets):
        """Multipliers over the original rows, from the artificial columns.

        The reduced cost under artificial column k is art_cost - y_k, so
        y_k = art_cost - R[k].  Bound rows that were folded into plain
        columns get their multiplier reconstructed so the combined
        coefficient at each variable comes to targets[j] exactly.
        """
        rows = self.system.constraints
        y = [art_cost - R[self.nstruct + k] for k in range(self.m_kept)]
        mu = [Fraction(0)] * len(rows)
        for i, idx in enumerate(self.kept):
            mu[idx] = self.sigma[i] * y[i]
        for j, (idx, c) in self.nonneg_row.items():
            g = sum(mu[k] * rows[k][0][j] for k in self.kept)
            mu[idx] = (targets[j] - g) / c  # bound row coeff is c (< 0) at var j
        return mu

    def solve(self, objective):
        """Full two-phase run; returns LPOutcome (not yet certificate-checked)."""
        system = self.system
        n = system.n_vars
        obj = [rat(c) for c in objective]
        if len(obj) != n:
            raise ValueError("objective dimension mismatch")

        R1 = self.phase1()
        if -R1[-1] > 0:  # minimal artificial sum positive -> infeasible
            mu = self.row_multipliers(R1, Fraction(1), [Fraction(0)] * n)
            nu = [-m for m in mu]
            total = sum(
                v * rhs for v, (_, _, rhs) in zip(nu, system.constraints)
            )
            if total >= 0:
                raise RuntimeError("Farkas extraction failed")
            scale = -1 / total
            nu = tuple(v * scale for v in nu)
            cert = FarkasCertificate(nu)
            if not check_farkas(system, cert):
                raise RuntimeError("Farkas certificate failed verification")
            return LPOutcome(status=INFEASIBLE, farkas=cert)

        self.drive_out_artificials()

        c_std = [Fraction(0)] * (self.width - 1)
        for col, (kind, payload) in enumerate(self.cols):
            if kind == "+":
                c_std[col] = obj[payload]
            elif kind == "-":
                c_std[col] = -obj[payload]
        R2 = self._reduced_row(c_std)
        status = self._bland(R2)

        if status == UNBOUNDED:
            j = self._ray_col
            d_std = [Fraction(0)] * self.nstruct
            d_std[j] = Fraction(1)
            for i, b in enumerate(self.basis):
                if b < self.nstruct:
                    d_std[b] = -self.T[i][j]
            ray = []
            for k in range(n):
                v = d_std[self.pos_col[k]]
                if k in self.neg_col:
                    v -= d_std[self.neg_col[k]]
                ray.append(v)
            ray = tuple(ray)
            self._verify_ray(obj, ray)
            return LPOutcome(status=UNBOUNDED, ray=ray)

        x = self.witness()
        if not check_witness(system, x):
            raise RuntimeError("simplex witness failed exact verification")
        value = sum(c * v for c, v in zip(obj, x))
        if value != -R2[-1]:
            raise RuntimeError("objective bookkeeping mismatch")
        mu = tuple(self.row_multipliers(R2, Fraction(0), obj))
        if not check_dual_bound(system, obj, value, mu):
            raise RuntimeError("dual certificate failed verification")
        return LPOutcome(status=OPTIMAL, value=value, witness=x, duals=mu)

    def _verify_ray(self, obj, ray):
        drop = sum(c * v for c, v in zip(obj, ray))
        if drop >= 0:
            raise RuntimeError("unbounded ray does not improve the objective")
        for coeffs, rel, _ in self.system.constraints:
            along = sum(c * v for c, v in zip(coeffs, ray))
            if rel == LE and along > 0:
                raise RuntimeError("ray exits a <= constraint")
            if rel == EQ and along != 0:
                raise RuntimeError("ray exits an == constraint")


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def lp_minimize(system: LinearSystem, objective: Sequence) -> LPOutcome:
    """Exact minimum of objective . x over the system (or infeasible/unbounded)."""
    return _Tableau(system).solve(objective)


def lp_feasible(system: LinearSystem) -> LPOutcome:
    """Feasibility with witness, or a verified Farkas certificate."""
    return _Tableau(system).solve([Fraction(0)] * system.n_vars)


def in_convex_hull(p: Sequence, points: Sequence[Sequence]) -> Optional[Point]:
    """Exact convex weights writing p from the given points, or None if p
    is outside their hull."""
    pp = tuple(rat(c) for c in p)
    pts = [tuple(rat(c) for c in q) for q in points]
    if not pts:
        raise ValueError("need at least one point")
    d = len(pp)
    for q in pts:
        if len(q) != d:
            raise ValueError("point dimension mismatch")
    k = len(pts)
    rows = []
    for j in range(k):
        coeffs = [Fraction(0)] * k
        coeffs[j] = Fraction(-1)
        rows.append((tuple(coeffs), LE, Fraction(0)))
    rows.append(eq([Fraction(1)] * k, 1))
    for i in range(d):
        rows.append(eq([pts[j][i] for j in range(k)], pp[i]))
    out = lp_feasible(LinearSystem(k, rows))
    return out.witness if out.status == OPTIMAL else None


def common_point_with_weights(blocks: Sequence[Sequence[Sequence]]):
    """A common point of the hulls of the point blocks, with exact convex
    weights per block writing it, as (point, weights); or None."""
    if not blocks or not all(blocks):
        raise ValueError("need at least one block, each of at least one point")
    pts = [[tuple(rat(c) for c in q) for q in b] for b in blocks]
    d = len(pts[0][0])
    if any(len(q) != d for b in pts for q in b):
        raise ValueError("point dimension mismatch")
    offsets = []
    total = 0
    for b in pts:
        offsets.append(total)
        total += len(b)
    rows = []
    for j in range(total):
        coeffs = [Fraction(0)] * total
        coeffs[j] = Fraction(-1)
        rows.append((tuple(coeffs), LE, Fraction(0)))
    for b, off in zip(pts, offsets):
        coeffs = [Fraction(0)] * total
        for j in range(len(b)):
            coeffs[off + j] = Fraction(1)
        rows.append((tuple(coeffs), EQ, Fraction(1)))
    first = pts[0]
    for b, off in zip(pts[1:], offsets[1:]):
        for i in range(d):
            coeffs = [Fraction(0)] * total
            for j, v in enumerate(first):
                coeffs[j] += v[i]
            for j, v in enumerate(b):
                coeffs[off + j] -= v[i]
            rows.append((tuple(coeffs), EQ, Fraction(0)))
    out = lp_feasible(LinearSystem(total, rows))
    if out.status != OPTIMAL:
        return None
    lam = out.witness
    point = tuple(
        sum(lam[j] * v[i] for j, v in enumerate(first)) for i in range(d)
    )
    weights = tuple(
        tuple(lam[off:off + len(b)]) for b, off in zip(pts, offsets)
    )
    return point, weights


def strict_separator(points: Sequence[Sequence], x: Sequence):
    """Affine functional strictly positive on points, strictly negative at x.

    Coefficients are confined to the box [-1, 1] and the slack of the two
    strict sides is maximized, so strict separability is exactly
    'maximal margin > 0'.  Returns (coeffs, offset, margin) or None.
    """
    xx = tuple(rat(c) for c in x)
    pts = [tuple(rat(c) for c in q) for q in points]
    d = len(xx)
    for q in pts:
        if len(q) != d:
            raise ValueError("point dimension mismatch")
    nv = d + 2  # a_0..a_{d-1}, a0, t
    rows = []
    for b in pts:  # a.b + a0 >= t
        rows.append(le(list(-c for c in b) + [-1, 1], 0))
    rows.append(le(list(xx) + [1, 1], 0))  # a.x + a0 <= -t
    for i in range(d):
        unit = [Fraction(0)] * nv
        unit[i] = Fraction(1)
        rows.append((tuple(unit), LE, Fraction(1)))
        rows.append((tuple(-u for u in unit), LE, Fraction(1)))
    unit = [Fraction(0)] * nv
    unit[d] = Fraction(1)
    rows.append((tuple(unit), LE, Fraction(1)))
    rows.append((tuple(-u for u in unit), LE, Fraction(1)))
    tcol = [Fraction(0)] * nv
    tcol[d + 1] = Fraction(-1)
    rows.append((tuple(tcol), LE, Fraction(0)))  # t >= 0
    objective = [Fraction(0)] * nv
    objective[d + 1] = Fraction(-1)  # maximize t
    out = lp_minimize(LinearSystem(nv, rows), objective)
    if out.status != OPTIMAL:
        raise RuntimeError("separation LP must be bounded and feasible")
    margin = -out.value
    if margin <= 0:
        return None
    w = out.witness
    return (w[:d], w[d], margin)

