"""Exact rational linear programming with dual certificates.

Every problem is one shape: maximize a linear objective over columns
that are each >= 0 or free, subject to sparse constraint rows (<=, >=,
==).  The objective, coefficients and right-hand sides are ints or
Fractions read over one positive int denominator, the statement's den:
a builder that holds its instance as ints over a common unit writes
those ints with den = unit, and a statement written in Fractions has
den = 1.
solve() runs a dense tableau simplex from the slack and artificial
basis: a >= row whose right-hand side is 0 is stated as a <= row, so
its slack starts basic, and phase 1 runs over the artificials of the
>= and == rows left in the tableau, if there are any.  A convexity row
(an == row summing disjoint columns to a positive constant, such as a
state's distribution row) is not held in the tableau at all: one of its
columns is the row's key, basic without a row (generalized upper
bounding), so the tableau of a persuasion LP holds only its incentive
and budget rows.
The simplex enters by Dantzig's rule and falls back to Bland's after a
run of degenerate pivots, so results are deterministic and free of
rounding.  The tableau is kept in integers (fraction-free pivoting, see
_pivot_py); only the final values become Fractions.

Dual values are extracted from the final tableau and reported per
constraint: <=-rows carry duals >= 0 and >=-rows carry duals <= 0;
equality rows are free.  certify_report() re-checks a claimed optimal
pair from scratch (primal feasibility, dual sign and finiteness
conditions, and a zero duality gap).  It too works in ints, but reads
only the problem and the claimed pair, never the tableau or solve()'s
row scaling, so it trusts nothing the solver did.
certified_solve() is the one boundary the package solves through: it
returns an optimum whose certificate holds or raises CertificateFailed.
check_fast_path() checks a closed-form answer with its own dual, lifted
to the full problem, and solves only where that dual fails;
require_claim() checks an answer against a dual already in hand.
"""

from __future__ import annotations

import contextlib
import contextvars
from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter
from typing import Optional

from . import _pivot_py
from .errors import CertificateFailed, CharacterizationMismatch, IterationLimit
from .rationals import over_common

ZERO = Fraction(0)
ONE = Fraction(1)

LE = "<="
GE = ">="
EQ = "=="

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LinearConstraint:
    """A sparse constraint row: sum of coeff * var  rel  rhs.

    coeffs holds (variable index, coefficient) pairs; duplicate indices
    are summed.  rel is one of "<=", ">=", "==".  Each coefficient and
    rhs is an int or a Fraction, read divided by the problem's den.
    """

    coeffs: tuple
    rel: str
    rhs: Fraction
    name: str = ""


@dataclass(frozen=True)
class LpProblem:
    """Maximize objective . x subject to constraints, over len(free) columns.

    Attributes:
        objective: dense coefficient tuple, one int or Fraction per
            column.
        free: one bool per column: True for a free column, False for a
            column >= 0.
        constraints: tuple of LinearConstraint.
        den: a positive int that the objective entries and every row's
            coefficients and rhs are divided by.  The same LP written
            times k over den = k solves to the same LpSolution.

    Raises ValueError at construction for a den that is not a positive
    int, an objective whose length differs from free's, a relation other
    than <=, >=, ==, or a row entry on a column outside [0, n).
    """

    objective: tuple
    free: tuple
    constraints: tuple
    den: int = 1

    def __post_init__(self):
        if type(self.den) is not int or self.den < 1:
            raise ValueError(f"den must be a positive int, got {self.den!r}")
        n = len(self.free)
        if len(self.objective) != n:
            raise ValueError("objective length does not match variable count")
        for constraint in self.constraints:
            if constraint.rel not in (LE, GE, EQ):
                raise ValueError(f"unknown relation {constraint.rel!r}")
            for j, _ in constraint.coeffs:
                if not 0 <= j < n:
                    raise ValueError(f"constraint references variable {j} of {n}")

    @property
    def num_vars(self) -> int:
        return len(self.free)


@dataclass(frozen=True)
class LpSolution:
    """Solver output.

    primal and dual are None unless status is "optimal".  dual has one
    entry per constraint: >= 0 on a <= row, <= 0 on a >= row.
    """

    status: str
    objective: Optional[Fraction]
    primal: Optional[tuple]
    dual: Optional[tuple]
    iterations: int


_recording: contextvars.ContextVar = contextvars.ContextVar(
    "persuade_lp_recording", default=None
)


@contextlib.contextmanager
def recording():
    """Record every optimal (problem, solution) pair solved in this context.

    Yields the list the pairs are appended to.  The log belongs to the
    current context (thread or asyncio task), so concurrent solves
    elsewhere do not land in it; an inner recording() takes the pairs
    solved inside it away from the outer one.
    """
    log: list = []
    token = _recording.set(log)
    try:
        yield log
    finally:
        _recording.reset(token)


def solve(problem: LpProblem) -> LpSolution:
    """Solve to proven optimality, infeasibility, or unboundedness.

    Each row is negated where that makes its right-hand side >= 0, and
    a >= row with right-hand side 0 is negated into a <= row.  A <= row
    starts with its slack basic and every other row with its artificial;
    phase 1 maximizes minus the sum of the artificials, each weighted so
    that its cost is -1 in the tableau's row scaling, and is skipped when
    there are none.  The pivots that drive an artificial left basic at 0
    out after phase 1 count in the solution's iterations.

    A user == row whose nonzero coefficients, scaled to coprime ints,
    are all one c > 0, whose right-hand side is beta * c with beta > 0
    and whose columns lie in no earlier such row is a convexity row.
    Each is keyed in row order on the column of largest phase-2 cost
    (lowest index on ties) whose pivot keeps every right-hand side >= 0,
    and then left out of the tableau (see _pivot_py); keying counts as
    one iteration.  A convexity row with no such column stays in the
    tableau, with its artificial, for phase 1.  The pivots are those of
    the full tableau.
    """
    # Internal columns, all >= 0: column j's first, and for a free
    # column a second one right after it that enters negated, x = tp - tn.
    free = problem.free
    first = []
    ncols_struct = 0
    for is_free in free:
        first.append(ncols_struct)
        ncols_struct += 2 if is_free else 1

    # Phase-2 costs in ints over the objective's common denominator
    # (times den), divided by their gcd: the objective row comes out
    # times k2 > 0.
    cost_den = lcm(*[c.denominator for c in problem.objective])
    struct_cost = [0] * ncols_struct
    for j, c in enumerate(problem.objective):
        v = c.numerator * (cost_den // c.denominator)
        col = first[j]
        struct_cost[col] = v
        if free[j]:
            struct_cost[col + 1] = -v
    cost_den *= problem.den
    g = gcd(*struct_cost)
    k2 = Fraction(cost_den, g) if g else ONE
    if g:
        struct_cost = [v // g for v in struct_cost]

    # Rows, in order, each (sparse ints over its common denominator den,
    # the statement's den included, rel, rhs times den, den, sign),
    # negated (sign -1) where that makes the right-hand side >= 0, and a
    # >= row whose right-hand side is 0 is stated as the negated <= row,
    # so its slack starts basic at 0 and the row needs no artificial.
    rows = []
    for constraint in problem.constraints:
        rhs = constraint.rhs
        den = lcm(rhs.denominator, *[a.denominator for _, a in constraint.coeffs])
        rel, sign = constraint.rel, 1
        if rhs < 0 or (rhs == 0 and rel == GE):
            rel, sign = {LE: GE, GE: LE}.get(rel, rel), -1
        acc: dict = {}  # duplicate indices are summed
        for j, a in constraint.coeffs:
            v = sign * a.numerator * (den // a.denominator)
            col = first[j]
            acc[col] = acc.get(col, 0) + v
            if free[j]:
                acc[col + 1] = acc.get(col + 1, 0) - v
        rhs_int = sign * rhs.numerator * (den // rhs.denominator)
        rows.append((acc, rel, rhs_int, den * problem.den, sign))

    m = len(rows)
    surplus_of = {}
    next_col = ncols_struct
    for i in range(m):
        if rows[i][1] == GE:
            surplus_of[i] = next_col
            next_col += 1
    id_base = next_col
    budget = 20000 + 200 * (id_base + 2 * m)

    # Integer tableau.  Row i is the stated row times scale[i] > 0, the
    # least factor that makes it integral (its ints over den, divided by
    # their gcd), and its identity column (slack or artificial) is
    # divided by scale[i] so that it keeps its 1: the substitution
    # x' = scale[i] * x.  The pivots are those of a Fraction tableau over
    # the same substituted columns.  The identity columns' reduced costs
    # come out divided by scale[i], which steers Dantzig's rule and which
    # the dual read-out undoes.
    ncols = id_base + m  # identity block, one column per row
    rows_int = []
    scale = []
    gs = []
    for i, (acc, rel, rhs, den, _sign) in enumerate(rows):
        surplus = -den if rel == GE else 0
        g = gcd(rhs, surplus, *acc.values()) or 1  # 0 for an all-zero row
        row = [0] * (ncols + 1)
        for col, v in acc.items():
            row[col] = v // g
        if rel == GE:
            row[surplus_of[i]] = surplus // g
        row[id_base + i] = 1
        row[-1] = rhs // g
        rows_int.append(row)
        scale.append(Fraction(den, g))
        gs.append(g)

    # Convexity rows: a user == row whose nonzero ints are all one c > 0,
    # with right-hand side r > 0 (so sum over its columns == r / c), on
    # columns no earlier convexity row has.
    convex = []
    claimed: set = set()
    for i in range(m):
        acc, rel, _, _, _ = rows[i]
        row = rows_int[i]
        r = row[-1]
        if rel != EQ or r <= 0:
            continue
        members = [col for col, v in acc.items() if v]
        c = row[members[0]] if members else 0
        if c > 0 and all(row[j] == c for j in members) and claimed.isdisjoint(members):
            claimed.update(members)
            convex.append((i, members, r, c))

    # Key each convexity row, in row order, on the column of largest
    # phase-2 cost, lowest index on ties, among those keeping every other
    # right-hand side >= 0.  That is the Bareiss pivot of the full tableau
    # on the row, which is then left out with its identity column; a row
    # with no such column stays.  Keying counts as an iteration.
    det = 1
    dens = [1] * m
    sets = []
    keyed_rows = []
    col_rows: dict = {}  # claimed column -> the other rows that have it
    if convex:
        convex_rows = {i for i, _, _, _ in convex}
        for i, (acc, _, _, _, _) in enumerate(rows):
            if i not in convex_rows:
                for col, v in acc.items():
                    if v and col in claimed:
                        col_rows.setdefault(col, []).append(i)
    for i, members, r, c in convex:
        key = -1
        for j in sorted(members, key=lambda j: (-struct_cost[j], j)):
            if all(
                rows_int[t][j] <= 0 or rows_int[t][-1] * c >= r * rows_int[t][j]
                for t in col_rows.get(j, ())
            ):
                key = j
                break
        if key < 0:
            continue
        keyed_rows.append(i)
        sets.append((key, members, r, c))
        for t in col_rows.get(key, ()):
            row = rows_int[t]
            f = row[key]
            if c != 1:
                # The row brought to det, times c, minus f * (c*1_S, r).
                cur = det // dens[t]
                f *= cur
                row[:] = [v * cur * c for v in row]
                f_c, dens[t] = f * c, c * det
            else:
                f_c = f
            for j in members:
                row[j] -= f_c
            row[-1] -= f * r
        det *= c

    keyed = set(keyed_rows)
    explicit = list(range(m))
    if keyed:
        explicit = [i for i in explicit if i not in keyed]
        ncols = id_base + len(explicit)
        kept = itemgetter(*range(id_base), *[id_base + i for i in explicit], -1)
        rows_int = [list(kept(rows_int[i])) for i in explicit]
    artificial_rows = []
    enterable = [True] * ncols
    for e, i in enumerate(explicit):
        if rows[i][1] != LE:
            artificial_rows.append(e)
            enterable[id_base + e] = False
    tab = _pivot_py.Tableau(rows_int, det, [dens[i] for i in explicit], sets)
    where = {i: e for e, i in enumerate(explicit)}
    basis = [id_base + e for e in range(len(explicit))]
    total_iters = len(sets)

    def append_objective(costs):
        # Reduced-cost row z - c for the current basis and integer costs.
        # A set's member costs its own cost minus its key's, and each key
        # adds beta times its cost to the value.
        det = tab.det
        value = 0
        for key, members, (r, c) in zip(tab.keys, tab.members, tab.betas):
            ck = costs[key]
            if ck:
                for j in members:
                    costs[j] -= ck
                value += r * det // c * ck
        obj = [-det * c for c in costs] + [value]
        for i, b in enumerate(basis):
            cb = costs[b]
            if cb:
                obj = [o + cb * v for o, v in zip(obj, tab.current(i))]
        tab.append(obj)

    if artificial_rows:
        # Maximize minus the sum of the artificials, each with cost -1 in
        # its substituted column: any positive weights find a feasible
        # basis.
        phase1 = [0] * ncols
        for e in artificial_rows:
            phase1[id_base + e] = -1
        append_objective(phase1)
        status, iters = _pivot_py.run_simplex(tab, basis, enterable, budget)
        total_iters += iters
        if status == _pivot_py.ITERATION_LIMIT:
            raise IterationLimit(f"simplex exceeded {budget} pivots in phase 1")
        if status != _pivot_py.OPTIMAL or tab.rows[-1][-1] < 0:
            return LpSolution(INFEASIBLE, None, None, None, total_iters)
        tab.delete(len(basis))  # phase-1 objective row

        # Drive surviving artificials out of the basis, or drop rows that
        # reduced to 0 == 0 (dependent equality rows).
        artificial_cols = {id_base + e for e in artificial_rows}
        pos = 0
        while pos < len(basis):
            if basis[pos] not in artificial_cols:
                pos += 1
                continue
            prow = tab.rows[pos]
            enter = -1
            for j in range(ncols):
                if j not in artificial_cols and prow[j]:
                    enter = j
                    break
            if enter < 0:
                # Row reduced to 0 == 0: a dependent equality row.  Its
                # identity column stays, so its dual is still read out of
                # the final objective row like every other row's.
                tab.delete(pos)
                del basis[pos]
                continue
            tab.pivot(pos, enter)
            basis[pos] = enter
            total_iters += 1
            pos += 1

    append_objective(struct_cost + [0] * (ncols - ncols_struct))
    status, iters = _pivot_py.run_simplex(tab, basis, enterable, budget)
    total_iters += iters
    if status == _pivot_py.ITERATION_LIMIT:
        raise IterationLimit(f"simplex exceeded {budget} pivots in phase 2")
    if status == _pivot_py.UNBOUNDED:
        return LpSolution(UNBOUNDED, None, None, None, total_iters)

    # Only the right-hand sides and the objective row become Fractions.
    # A key's value is beta minus its set's basic members.
    internal_x = [ZERO] * ncols
    det = tab.det
    taken = [0] * len(sets)
    for i, b in enumerate(basis):
        internal_x[b] = tab.fraction(i, -1)
        k = tab.set_of.get(b)
        if k is not None:
            taken[k] += tab.rows[i][-1] * det // tab.dens[i]
    for key, (r, c), total in zip(tab.keys, tab.betas, taken):
        internal_x[key] = Fraction(r * det - c * total, c * det)

    primal = [
        internal_x[col] - internal_x[col + 1] if is_free else internal_x[col]
        for col, is_free in zip(first, free)
    ]

    # Row i's dual is its identity column's reduced cost times scale[i]
    # / k2, with the row's sign.  A convexity row's, over its c, makes
    # its key's reduced cost 0: the key's cost minus the other rows'
    # duals times their entries in the key's column.
    obj, obj_den = tab.rows[-1], tab.dens[-1]
    set_of_row = {i: k for k, i in enumerate(keyed_rows)}
    dual = []
    for i in range(m):
        k = scale[i]
        e = where.get(i)
        if e is not None:
            w, c = obj[id_base + e], 1
        else:
            k_set = set_of_row[i]
            key, c = tab.keys[k_set], tab.betas[k_set][1]
            w = struct_cost[key] * obj_den - sum(
                obj[id_base + where[t]] * (rows[t][0][key] // gs[t])
                for t in col_rows.get(key, ())
            )
        dual.append(
            Fraction(
                rows[i][4] * w * k.numerator * k2.denominator,
                obj_den * c * k.denominator * k2.numerator,
            )
        )

    solution = LpSolution(
        OPTIMAL,
        tab.fraction(-1, -1) / k2,
        tuple(primal),
        tuple(dual),
        total_iters,
    )
    log = _recording.get()
    if log is not None:
        log.append((problem, solution))
    return solution


def certify_report(problem: LpProblem, solution: LpSolution) -> list:
    """All reasons the claimed optimal pair fails to certify (empty = valid).

    Checks, from the problem and the claimed pair alone: primal
    feasibility against every constraint and every >= 0 column, dual sign
    conventions, finiteness side conditions on reduced costs,
    complementary slackness, an exactly zero duality gap and the
    objective field.  Computed in ints over common denominators, one per
    row and the statement's den included; Fractions are built only for
    the failure messages.
    """
    if solution.status != OPTIMAL:
        return [f"status is {solution.status}, nothing to certify"]
    x, duals = solution.primal, solution.dual
    if x is None or duals is None:
        return ["optimal solution is missing primal or dual values"]
    if len(x) != problem.num_vars or len(duals) != len(problem.constraints):
        return ["primal or dual vector has the wrong length"]
    failures = []

    # x[j] = xs[j] / x_den, duals ys[k] / y_den, costs cs[j] / c_den.
    xs, x_den = over_common(x)
    ys, y_den = over_common(duals)
    cs, c_den = over_common(problem.objective)
    c_den *= problem.den

    for j, is_free in enumerate(problem.free):
        if not is_free and xs[j] < 0:
            failures.append(f"x[{j}]={x[j]} below lower bound 0")

    priced = []  # (dual, row ints, rhs int, row den) of rows with a dual
    for k, constraint in enumerate(problem.constraints):
        rhs, rel = constraint.rhs, constraint.rel
        den = lcm(rhs.denominator, *[a.denominator for _, a in constraint.coeffs])
        ints = [(j, a.numerator * (den // a.denominator)) for j, a in constraint.coeffs]
        b = rhs.numerator * (den // rhs.denominator)
        den *= problem.den
        # Activity minus right-hand side, over den * x_den.
        slack = sum(v * xs[j] for j, v in ints) - b * x_den
        if (slack > 0) if rel == LE else (slack < 0) if rel == GE else slack != 0:
            failures.append(
                f"constraint {k} {constraint.name!r} violated: "
                f"{Fraction(slack + b * x_den, den * x_den)} {rel} "
                f"{Fraction(b, den)} fails"
            )
        y = ys[k]
        if (rel == LE and y < 0) or (rel == GE and y > 0):
            failures.append(
                f"dual {k} should be {'>=' if rel == LE else '<='} 0 in max "
                f"convention, got {Fraction(y, y_den)}"
            )
        if y:
            if slack:
                failures.append(
                    f"complementary slackness: dual {k} is {Fraction(y, y_den)} "
                    "but row is slack"
                )
            priced.append((y, ints, b, den))

    # Reduced costs and the dual objective b.y as ints over y_den * r_den.
    r_den = lcm(c_den, *[den for _, _, _, den in priced])
    rc = [c * (r_den // c_den) * y_den for c in cs]
    dual_b = 0
    for y, ints, b, den in priced:
        w = y * (r_den // den)
        dual_b += w * b
        for j, v in ints:
            rc[j] -= w * v
    rc_den = y_den * r_den

    # A reduced cost is 0, or < 0 on a >= 0 column at 0.
    for j, is_free in enumerate(problem.free):
        r = rc[j]
        if not r:
            continue
        if r > 0 or is_free:
            cmp, side = (">", "upper") if r > 0 else ("<", "lower")
            failures.append(
                f"reduced cost {j} is {Fraction(r, rc_den)} {cmp} 0 "
                f"with no {side} bound"
            )
        elif xs[j]:
            failures.append(
                f"complementary slackness: rc[{j}]={Fraction(r, rc_den)} < 0 "
                f"but x[{j}]={x[j]} != lower bound 0"
            )

    # Primal value over p_den; the dual bound is b.y, over rc_den.
    p_den = c_den * x_den
    primal = sum(c * v for c, v in zip(cs, xs))
    if primal * rc_den != dual_b * p_den:
        failures.append(
            f"duality gap: primal {Fraction(primal, p_den)} != dual bound "
            f"{Fraction(dual_b, rc_den)}"
        )

    claimed = solution.objective
    if claimed is None or claimed.numerator * p_den != primal * claimed.denominator:
        failures.append(
            f"objective field {claimed} != recomputed {Fraction(primal, p_den)}"
        )
    return failures


def require_certificate(problem: LpProblem, solution: LpSolution) -> None:
    """Raise CertificateFailed unless certify_report finds no fault in the pair."""
    report = certify_report(problem, solution)
    if report:
        raise CertificateFailed("optimality certificate failed: " + "; ".join(report))


def certified_solve(problem: LpProblem) -> LpSolution:
    """Solve, and return the answer only if certify_report finds no fault.

    Otherwise, a non-optimal status included, raise CertificateFailed.
    """
    solution = solve(problem)
    require_certificate(problem, solution)
    return solution


def require_claim(problem: LpProblem, claim: LpSolution, what: str) -> None:
    """Raise CharacterizationMismatch unless certify_report accepts the claim.

    For an answer a fast path derived, where a failed certificate means
    the derivation, not the solver, is wrong.
    """
    report = certify_report(problem, claim)
    if report:
        raise CharacterizationMismatch(
            f"{what} fails its certificate: " + "; ".join(report)
        )


def check_fast_path(problem: LpProblem, claim: LpSolution, what: str) -> None:
    """Accept a claimed optimal pair that certifies, without solving.

    A closed-form dual can fail where the claimed primal is still optimal
    (dual degeneracy); then the problem is solved once.  The claimed
    value must equal the optimum, and the claimed primal must certify
    with the solved dual, as every optimal primal does; otherwise
    CharacterizationMismatch is raised.
    """
    if certify_report(problem, claim):
        reference = certified_solve(problem)
        if reference.objective != claim.objective:
            raise CharacterizationMismatch(
                f"{what} {claim.objective} != LP optimum {reference.objective}"
            )
        require_claim(problem, replace(claim, dual=reference.dual), what)

