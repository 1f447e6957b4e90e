"""Exact rational linear programming with dual certificates.

Problems are stated over variables with optional rational bounds, sparse
constraint rows (<=, >=, ==), and a linear objective in either sense.
The objective, coefficients and right-hand sides are ints or Fractions
read over one positive int denominator, the statement's den: a builder
that holds its instance as ints over a common unit writes those ints
with den = unit, and a statement written in Fractions has den = 1.
solve() runs a dense tableau simplex from a crash basis: a >= row whose
right-hand side is 0 is stated as a <= row, so its slack starts basic;
the artificial of every other >= or == row is pivoted out at once where
a feasible pivot exists, and phase 1 runs only over the artificials
left, if any.  A convexity row (an == row summing disjoint columns to a
positive constant, such as a state's distribution row) is not held in
the tableau at all: its crash pivot makes one of its columns the row's
key, basic without a row (generalized upper bounding), so the tableau
of a persuasion LP holds only its incentive, budget and bound rows.
The simplex enters by Dantzig's rule and falls back to Bland's after a
run of degenerate pivots, so results are deterministic and free of
rounding.  The tableau is kept in integers (fraction-free pivoting, see
_pivot_py); only the final values become Fractions.

Dual values are extracted from the final tableau and reported per
constraint, in the stated sense's convention: for a maximization,
<=-rows carry duals >= 0 and >=-rows carry duals <= 0; for a
minimization the signs flip; equality rows are free.  certify()
re-checks a claimed optimal pair from scratch (primal feasibility, dual
sign and finiteness conditions, and a zero duality gap).  It too works
in ints, but reads only the problem and the claimed pair, never the
tableau or solve()'s row scaling, so it trusts nothing the solver did.
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
    """A linear program over len(bounds) variables.

    Attributes:
        sense: "max" or "min".
        objective: dense coefficient tuple, one int or Fraction per
            variable.
        bounds: per-variable (lower, upper) with None for unbounded sides.
        constraints: tuple of LinearConstraint.
        constant: added to the objective value after solving.
        den: a positive int that the objective entries and every row's
            coefficients and rhs are divided by; bounds and constant are
            read as they stand.  The same LP written times k over den = k
            solves to the same LpSolution.
    """

    sense: str
    objective: tuple
    bounds: tuple
    constraints: tuple
    constant: Fraction = ZERO
    den: int = 1

    def __post_init__(self):
        if type(self.den) is not int or self.den < 1:
            raise ValueError(f"den must be a positive int, got {self.den!r}")

    @property
    def num_vars(self) -> int:
        return len(self.bounds)


@dataclass(frozen=True)
class LpSolution:
    """Solver output.

    primal and dual are None unless status is "optimal".  dual has one
    entry per constraint, in the problem's stated-sense convention.
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


def solve(problem: LpProblem, max_iter: Optional[int] = None) -> LpSolution:
    """Solve to proven optimality, infeasibility, or unboundedness.

    The start is a crash basis.  Each row is negated where that makes its
    right-hand side >= 0, and a >= row with right-hand side 0 is negated
    into a <= row; <= rows start with their slack basic.  Each remaining
    row's artificial is pivoted out in row order on the structural or
    surplus column of largest phase-2 cost (lowest index on ties) whose
    pivot keeps the basis feasible.  Phase 1 then minimizes the sum of
    the artificials still basic and is skipped when there are none.
    Crash pivots, and the pivots that drive an artificial left basic at
    0 out after phase 1, count in the solution's iterations.

    A user == row whose nonzero coefficients, scaled to coprime ints,
    are all one c > 0, whose right-hand side is beta * c with beta > 0
    and whose columns lie in no earlier such row is a convexity row.
    Before any other crash pivot, each is keyed in row order on the
    column its crash pivot would take, and then left out of the tableau
    (see _pivot_py); keying counts as one iteration.  A convexity row
    with no feasible key stays in the tableau, with its artificial, for
    phase 1.  The pivots are those of the full tableau, except where an
    artificial row before a convexity row would have been crash-pivoted
    first; there another optimal vertex can come out.
    """
    n = problem.num_vars
    sense_max = problem.sense == "max"
    if problem.sense not in ("max", "min"):
        raise ValueError(f"unknown sense {problem.sense!r}")
    if len(problem.objective) != n:
        raise ValueError("objective length does not match variable count")

    for lo, up in problem.bounds:
        if lo is not None and up is not None and lo > up:
            return LpSolution(INFEASIBLE, None, None, None, 0)

    # Variable transforms onto internal columns, all >= 0:
    #   ("shift", col, lo): x = lo + t
    #   ("flip", col, up):  x = up - t
    #   ("free", cp, cn):   x = tp - tn
    trans = []
    ncols_struct = 0
    extra_upper_rows = []  # (col, up - lo) rows appended after user rows
    for j, (lo, up) in enumerate(problem.bounds):
        if lo is not None:
            trans.append(("shift", ncols_struct, lo))
            if up is not None:
                extra_upper_rows.append((ncols_struct, up - lo))
            ncols_struct += 1
        elif up is not None:
            trans.append(("flip", ncols_struct, up))
            ncols_struct += 1
        else:
            trans.append(("free", ncols_struct, ncols_struct + 1))
            ncols_struct += 2
    # Internal columns of each variable, with the sign it enters them by.
    columns = [
        ((kind[1], 1),)
        if kind[0] == "shift"
        else ((kind[1], -1),)
        if kind[0] == "flip"
        else ((kind[1], 1), (kind[2], -1))
        for kind in trans
    ]

    # Phase-2 costs (maximized) in ints over the objective's common
    # denominator (times den), divided by their gcd: the objective row
    # comes out times k2 > 0.
    direction = 1 if sense_max else -1
    cost_den = lcm(*[c.denominator for c in problem.objective])
    struct_cost = [0] * ncols_struct
    shift_const = ZERO
    for j, c in enumerate(problem.objective):
        v = direction * c.numerator * (cost_den // c.denominator)
        for col, s in columns[j]:
            struct_cost[col] = s * v  # each column belongs to one variable
        kind = trans[j]
        if kind[0] != "free" and kind[2] and c:
            shift_const += direction * c * kind[2]
    shift_const /= problem.den
    cost_den *= problem.den
    g = gcd(*struct_cost)
    k2 = Fraction(cost_den, g) if g else ONE
    if g:
        struct_cost = [v // g for v in struct_cost]

    # Rows: user constraints in order, then internal upper-bound rows.
    # Each is (sparse ints over its common denominator den, the
    # statement's den included, rel, rhs times den, den, sign), negated
    # (sign -1) where that makes the right-hand side >= 0, and a >= row
    # whose right-hand side is 0 is stated as the negated <= row, so its
    # slack starts basic at 0 and the row needs no artificial.
    rows = []
    num_user = len(problem.constraints)
    for constraint in problem.constraints:
        if constraint.rel not in (LE, GE, EQ):
            raise ValueError(f"unknown relation {constraint.rel!r}")
        rhs = constraint.rhs
        den = 1
        for j, a in constraint.coeffs:
            if not 0 <= j < n:
                raise ValueError(f"constraint references variable {j} of {n}")
            kind = trans[j]
            if kind[0] != "free" and kind[2]:
                rhs -= a * kind[2]
            den = lcm(den, a.denominator)
        den = lcm(den, rhs.denominator)
        rel, sign = constraint.rel, 1
        if rhs < 0 or (rhs == 0 and rel == GE):
            rel, sign = {LE: GE, GE: LE}.get(rel, rel), -1
        acc: dict = {}  # duplicate indices are summed
        for j, a in constraint.coeffs:
            v = sign * a.numerator * (den // a.denominator)
            for col, s in columns[j]:
                acc[col] = acc.get(col, 0) + s * v
        rhs_int = sign * rhs.numerator * (den // rhs.denominator)
        rows.append((acc, rel, rhs_int, den * problem.den, sign))
    for col, cap in extra_upper_rows:
        rows.append(({col: cap.denominator}, LE, cap.numerator, cap.denominator, 1))

    m = len(rows)
    surplus_of = {}
    next_col = ncols_struct
    for i in range(m):
        if rows[i][1] == GE:
            surplus_of[i] = next_col
            next_col += 1
    id_base = next_col
    budget = max_iter if max_iter is not None else 20000 + 200 * (id_base + 2 * m)

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
    for i in range(num_user):
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

    # Key each convexity row, in row order, on the column the crash would
    # pivot its artificial out on: largest phase-2 cost, lowest index on
    # ties, among those keeping every other right-hand side >= 0.  That
    # is the Bareiss pivot of the full tableau on the row, which is then
    # left out with its identity column; a row with no such column stays.
    # Keying counts as an iteration, as the crash pivot it stands for.
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

    # Crash (see the docstring).  A pivot keeps every right-hand side >= 0
    # on any nonzero entry of a row whose right-hand side is 0, and on a
    # positive entry of another row when no row, explicit or key, has a
    # smaller ratio (a row's denominator cancels in its ratio).
    tab_rows = tab.rows
    by_cost = sorted(
        range(id_base),
        key=lambda j: (-struct_cost[j] if j < ncols_struct else 0, j),
    )
    # A convexity row left explicit failed the same test at its turn.
    unkeyed = {where[i] for i, _, _, _ in convex if i not in keyed}
    still_basic = []  # artificial rows the crash could not pivot out
    for r in artificial_rows:
        if r in unkeyed:
            still_basic.append(r)
            continue
        prow = tab_rows[r]
        rhs = prow[-1]
        enter = -1
        for j in by_cost:
            a = prow[j]
            if not a:
                continue
            if rhs and (
                a < 0
                or any(row[j] > 0 and row[-1] * a < rhs * row[j] for row in tab_rows)
                or any(
                    num * a < rhs * den
                    for _, num, den in _pivot_py.key_rows(tab, basis, j)
                )
            ):
                continue
            enter = j
            break
        if enter < 0:
            still_basic.append(r)
            continue
        tab.pivot(r, enter)
        basis[r] = enter
        total_iters += 1

    if still_basic:
        # Maximize minus the sum of the artificials still basic: cost
        # -1/scale[i] in the substituted columns, brought to coprime ints
        # by one positive factor.
        ks = [scale[explicit[e]] for e in still_basic]
        den = lcm(*[k.numerator for k in ks])
        costs = {
            id_base + e: -(den // k.numerator) * k.denominator
            for e, k in zip(still_basic, ks)
        }
        g = gcd(*costs.values())
        phase1 = [0] * ncols
        for col, v in costs.items():
            phase1[col] = v // g
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

    primal = []
    for j in range(n):
        kind = trans[j]
        if kind[0] == "shift":
            x = internal_x[kind[1]]
            primal.append(kind[2] + x if kind[2] else x)
        elif kind[0] == "flip":
            primal.append(kind[2] - internal_x[kind[1]])
        else:
            primal.append(internal_x[kind[1]] - internal_x[kind[2]])

    # Row i's dual is its identity column's reduced cost times scale[i]
    # / k2, with the row's sign and the sense's.  A convexity row's,
    # over its c, makes its key's reduced cost 0: the key's cost minus
    # the other rows' duals times their entries in the key's column.
    obj, obj_den = tab.rows[-1], tab.dens[-1]
    set_of_row = {i: k for k, i in enumerate(keyed_rows)}
    dual = []
    for i in range(num_user):
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
                direction * rows[i][4] * w * k.numerator * k2.denominator,
                obj_den * c * k.denominator * k2.numerator,
            )
        )

    value_max = tab.fraction(-1, -1) / k2 + shift_const
    value = value_max if sense_max else -value_max
    solution = LpSolution(
        OPTIMAL,
        value + problem.constant,
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
    feasibility against every constraint and bound, dual sign
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

    # x[j] = xs[j] / x_den; in max convention, duals ys[k] / y_den and
    # costs cs[j] / c_den.
    direction = 1 if problem.sense == "max" else -1
    xs, x_den = over_common(x)
    ys, y_den = over_common(duals)
    cs, c_den = over_common(problem.objective)
    c_den *= problem.den
    if direction < 0:
        ys, cs = [-v for v in ys], [-c for c in cs]

    for j, (lo, up) in enumerate(problem.bounds):
        if lo is not None and xs[j] * lo.denominator < lo.numerator * x_den:
            failures.append(f"x[{j}]={x[j]} below lower bound {lo}")
        if up is not None and xs[j] * up.denominator > up.numerator * x_den:
            failures.append(f"x[{j}]={x[j]} above upper bound {up}")

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

    gap = []  # (reduced cost, the bound it prices)
    for j, (lo, up) in enumerate(problem.bounds):
        r = rc[j]
        if not r:
            continue
        bnd, cmp, side = (up, ">", "upper") if r > 0 else (lo, "<", "lower")
        if bnd is None:
            failures.append(
                f"reduced cost {j} is {Fraction(r, rc_den)} {cmp} 0 "
                f"with no {side} bound"
            )
            continue
        gap.append((r, bnd))
        if xs[j] * bnd.denominator != bnd.numerator * x_den:
            failures.append(
                f"complementary slackness: rc[{j}]={Fraction(r, rc_den)} {cmp} 0 "
                f"but x[{j}]={x[j]} != {side} bound {bnd}"
            )

    # Primal value over p_den, dual bound over d_den.
    p_den = c_den * x_den
    primal = sum(c * v for c, v in zip(cs, xs))
    g_den = lcm(*[bnd.denominator for _, bnd in gap])
    d_den = rc_den * g_den
    dual = dual_b * g_den + sum(
        r * bnd.numerator * (g_den // bnd.denominator) for r, bnd in gap
    )
    if primal * d_den != dual * p_den:
        failures.append(
            f"duality gap: primal {Fraction(primal, p_den)} != dual bound "
            f"{Fraction(dual, d_den)}"
        )

    constant, claimed = problem.constant, solution.objective
    stated = direction * primal * constant.denominator + constant.numerator * p_den
    s_den = p_den * constant.denominator
    if claimed is None or claimed.numerator * s_den != stated * claimed.denominator:
        failures.append(
            f"objective field {claimed} != recomputed {Fraction(stated, s_den)}"
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


def certify(problem: LpProblem, solution: LpSolution) -> bool:
    """True iff the claimed optimal (primal, dual) pair proves optimality."""
    return not certify_report(problem, solution)
