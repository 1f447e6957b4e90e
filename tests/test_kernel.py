"""The integer pivot kernel against a Fraction oracle.

The oracle below is a two-phase simplex on exact ``Fraction``
tableaux, built over the same column scaling as
``lp.solve``: each row times the factor that makes it integral, and its
slack or artificial column divided by that factor so it keeps its 1.
That scaling changes which reduced cost is most negative, so Dantzig's
rule needs it; Bland's rule and the ratio test read only signs and
ratios, which it leaves alone.  A ``>=`` row whose right-hand side is
0 is stated as the negated ``<=`` row.  Each convexity row (an
``==`` row whose scaled entries are one c > 0 on columns no earlier such
row has, with right-hand side > 0) is then pivoted, in row order, on
its key: the column of largest phase-2 cost whose pivot keeps the basis
feasible.  Phase 1 runs over every artificial left, each at cost -1 in
its scaled column, and is skipped when there are none.  The oracle
keeps every row in its tableau; the kernel keeps the keyed rows
implicit, so the two are compared basis change for basis change
(entering column, leaving variable), not row for row.
The oracle enters by Dantzig's rule until ``degenerate_run`` degenerate
pivots come in a row and by Bland's rule after that, as the kernel does;
``degenerate_run=0`` makes it the Bland oracle the integer kernel first
replaced.  The integer kernel must make the same basis changes, end in
the same basis and report the same solution under both rules.  The
campaigns on random LPs are what guard the kernel's unchecked exact
divisions.
"""

from fractions import Fraction as F
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persuade import _pivot_py, lp, model, multi, reduction, single
from persuade.model import PaymentModel

from test_lp import fraction_view, restate

# ---------------------------------------------------------------------------
# Fraction oracle

ORACLE_OPTIMAL, ORACLE_UNBOUNDED, ORACLE_ITERATION_LIMIT = 0, 1, 2
BLAND = 0  # degenerate_run that makes the oracle (and the kernel) Bland's


def oracle_run_simplex(
    tab, basis, enterable, budget, degenerate_run, pivots, cases=None
):
    """Dantzig's rule with the Bland fallback on a Fraction tableau.

    Appends each basis change (entering column, leaving variable) to
    pivots, and "bland_fallback" to cases when Dantzig's rule hands over
    to Bland's; returns (status, iterations).
    """
    m = len(basis)
    obj = tab[m]
    ncols = len(obj) - 1
    iters = 0
    run = 0
    while True:
        enter = -1
        if run < degenerate_run:
            # Dantzig: most negative reduced cost, lowest index on ties.
            for j in range(ncols):
                if enterable[j] and obj[j] < 0:
                    if enter < 0 or obj[j] < obj[enter]:
                        enter = j
        else:
            # Bland: lowest index with a negative reduced cost.
            for j in range(ncols):
                if enterable[j] and obj[j] < 0:
                    enter = j
                    break
        if enter < 0:
            return ORACLE_OPTIMAL, iters
        if iters >= budget:
            return ORACLE_ITERATION_LIMIT, iters
        iters += 1

        leave = -1
        best_ratio = None
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                ratio = tab[i][-1] / a
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leave])
                ):
                    best_ratio = ratio
                    leave = i
        if leave < 0:
            return ORACLE_UNBOUNDED, iters
        if run < degenerate_run:
            run = run + 1 if best_ratio == 0 else 0
            if run == degenerate_run and cases is not None:
                cases.add("bland_fallback")
        oracle_pivot(tab, basis, leave, enter, pivots)


def oracle_pivot(tab, basis, row, col, pivots):
    pivots.append((col, basis[row]))
    basis[row] = col
    prow = tab[row]
    pivot = prow[col]
    if pivot != 1:
        prow[:] = [v / pivot for v in prow]
    for i, other in enumerate(tab):
        factor = other[col]
        if i != row and factor:
            other[:] = [v - factor * w for v, w in zip(other, prow)]


def _row_scale(values):
    """The smallest positive factor that makes every rational in values an int."""
    den = lcm(*(v.denominator for v in values))
    num = gcd(*(v.numerator * (den // v.denominator) for v in values))
    return F(den, num) if num else F(1)


def oracle_solve(problem, degenerate_run, cases=None):
    """The Fraction two-phase simplex.

    Returns (solution, sorted final basis, basis changes, layout), the
    layout holding id_base, the keyed rows in order and the rows left
    explicit after keying, as the tableau then reads ("keyed_tableau").
    When cases is a set, the solve adds to it what it met:
    "blocked_by_zero_rhs_le" (a candidate key turned away by a <= row at
    right-hand side 0), "unkeyed" (a convexity row without a feasible
    key), "one_member", "c_not_1" and "bounded_member" (a keyed row of
    one column, with c != 1, or with a member bounded above by a row
    named "upper[j]", as test_lp.restate writes it), "bland_fallback" (a
    phase hands over to Bland's rule) and "drive_out" (an artificial
    basic at 0 after phase 1 pivoted out).
    """
    if cases is None:
        cases = set()
    # Column j is internal column first[j], and a free column also
    # first[j] + 1, entering negated.
    first, ncols_struct = [], 0
    for free in problem.free:
        first.append(ncols_struct)
        ncols_struct += 2 if free else 1

    struct_cost = [F(0)] * ncols_struct
    for j, c in enumerate(problem.objective):
        struct_cost[first[j]] += c
        if problem.free[j]:
            struct_cost[first[j] + 1] -= c

    rows = []
    for constraint in problem.constraints:
        srow = [F(0)] * ncols_struct
        rhs = constraint.rhs
        for j, a in constraint.coeffs:
            srow[first[j]] += a
            if problem.free[j]:
                srow[first[j] + 1] -= a
        rel, sign = constraint.rel, 1
        if rhs < 0 or (rhs == 0 and rel == lp.GE):
            srow, rhs, sign = [-v for v in srow], -rhs, -1
            rel = {lp.LE: lp.GE, lp.GE: lp.LE}.get(rel, rel)
        rows.append((srow, rel, rhs, sign))
    bounded_above = {
        first[j]
        for c in problem.constraints
        if c.name.startswith("upper[")
        for j, _ in c.coeffs
    }

    m = len(rows)
    surplus_of, next_col = {}, ncols_struct
    for i, (_, rel, _, _) in enumerate(rows):
        if rel == lp.GE:
            surplus_of[i] = next_col
            next_col += 1
    id_base = next_col
    ncols = id_base + m

    # Row i times scale[i]; its identity column keeps its 1, so that
    # column's variable is scale[i] times the stated slack or artificial.
    tab, scale, artificial_rows, enterable = [], [], [], [True] * ncols
    for i, (srow, rel, rhs, _) in enumerate(rows):
        row = srow + [F(0)] * (ncols - ncols_struct) + [rhs]
        if rel == lp.GE:
            row[surplus_of[i]] = F(-1)
        k = _row_scale(row)
        row = [k * v for v in row]
        row[id_base + i] = F(1)
        if rel != lp.LE:
            artificial_rows.append(i)
            enterable[id_base + i] = False
        tab.append(row)
        scale.append(k)
    basis = [id_base + i for i in range(m)]
    budget = 20000 + 200 * (m + ncols)
    total = 0
    pivots = []

    def objective_row(costs):
        obj = [-c for c in costs] + [F(0)]
        for row, b in zip(tab, basis):
            if costs[b]:
                obj = [o + costs[b] * v for o, v in zip(obj, row)]
        return obj

    # Key: the feasible entering column of largest phase-2 cost (the
    # lowest index on ties).  A convexity row's right-hand side is > 0, so
    # a feasible column has a positive entry whose ratio no row undercuts.
    key_cost = struct_cost + [F(0)] * (id_base - ncols_struct)

    def key_column(r):
        rhs = tab[r][-1]
        feasible = []
        for j in range(id_base):
            a = tab[r][j]
            if a <= 0:
                continue
            least = min(tab[i][-1] / tab[i][j] for i in range(m) if tab[i][j] > 0)
            if least < rhs / a:
                if any(
                    rows[i][1] == lp.LE and tab[i][-1] == 0 and tab[i][j] > 0
                    for i in range(m)
                ):
                    cases.add("blocked_by_zero_rhs_le")
                continue
            feasible.append(j)
        if not feasible:
            return -1
        return max(feasible, key=lambda j: (key_cost[j], -j))

    convex, claimed = [], set()
    for i in range(len(problem.constraints)):
        members = [j for j in range(ncols_struct) if tab[i][j]]
        c = tab[i][members[0]] if members else 0
        if (
            rows[i][1] == lp.EQ
            and tab[i][-1] > 0
            and c > 0
            and all(tab[i][j] == c for j in members)
            and claimed.isdisjoint(members)
        ):
            claimed.update(members)
            convex.append(i)
    keyed = []
    for r in convex:
        enter = key_column(r)
        if enter < 0:
            cases.add("unkeyed")
            continue
        members = [j for j in range(ncols_struct) if tab[r][j]]
        if len(members) == 1:
            cases.add("one_member")
        if tab[r][enter] != 1:
            cases.add("c_not_1")
        if bounded_above.intersection(members):
            cases.add("bounded_member")
        oracle_pivot(tab, basis, r, enter, pivots)
        keyed.append(r)
        total += 1
    explicit = [i for i in range(m) if i not in keyed]
    kept = list(range(id_base)) + [id_base + i for i in explicit] + [ncols]
    layout = {
        "id_base": id_base,
        "keyed": keyed,
        "keyed_tableau": [[tab[i][j] for j in kept] for i in explicit],
    }

    still_basic = [r for r in artificial_rows if r not in keyed]
    if still_basic:
        phase1 = [F(0)] * ncols
        for i in still_basic:
            phase1[id_base + i] = F(-1)
        tab.append(objective_row(phase1))
        status, iters = oracle_run_simplex(
            tab, basis, enterable, budget, degenerate_run, pivots, cases
        )
        total += iters
        assert status != ORACLE_ITERATION_LIMIT
        if status != ORACLE_OPTIMAL or tab[-1][-1] < 0:
            return (lp.INFEASIBLE, None, None, None, total), sorted(basis), pivots, layout
        tab.pop()
        artificial_cols = {id_base + i for i in artificial_rows}
        pos = 0
        while pos < len(basis):
            if basis[pos] not in artificial_cols:
                pos += 1
                continue
            enter = next(
                (j for j in range(ncols) if j not in artificial_cols and tab[pos][j]),
                -1,
            )
            if enter < 0:
                del tab[pos]
                del basis[pos]
                continue
            cases.add("drive_out")
            oracle_pivot(tab, basis, pos, enter, pivots)
            total += 1
            pos += 1

    tab.append(objective_row(struct_cost + [F(0)] * (ncols - ncols_struct)))
    status, iters = oracle_run_simplex(
        tab, basis, enterable, budget, degenerate_run, pivots, cases
    )
    total += iters
    assert status != ORACLE_ITERATION_LIMIT
    if status == ORACLE_UNBOUNDED:
        return (lp.UNBOUNDED, None, None, None, total), sorted(basis), pivots, layout

    obj = tab[-1]
    x = [F(0)] * ncols
    for i, b in enumerate(basis):
        x[b] = tab[i][-1]
    primal = [
        x[col] - x[col + 1] if free else x[col]
        for col, free in zip(first, problem.free)
    ]
    dual = [obj[id_base + i] * scale[i] * rows[i][3] for i in range(m)]
    return (
        (lp.OPTIMAL, obj[-1], tuple(primal), tuple(dual), total),
        sorted(basis),
        pivots,
        layout,
    )


# ---------------------------------------------------------------------------
# Helpers


def integer_solve(problem, degenerate_run, layout=None, events=None):
    """lp.solve under the given fallback constant, with its basis changes.

    Returns the solution, the sorted final basis (explicit rows' and
    keys) and the basis changes (entering column, leaving variable),
    replayed from the kernel's pivots and key steps.  The kernel's
    tableau leaves the keyed rows and their identity columns out, so its
    identity columns are renamed to the oracle's through the oracle's
    layout, and keying row i on column j reads as j replacing row i's
    artificial.  events, when a list, receives "swap" and "shift" for
    each key step the kernel took.
    """
    if events is None:
        events = []
    id_base = layout["id_base"] if layout else 0
    keyed = layout["keyed"] if layout else []
    m = len(problem.constraints)
    explicit = [i for i in range(m) if i not in keyed]

    def rename(col):
        return col if col < id_base else id_base + explicit[col - id_base]

    changes = []
    state = {}  # "basis" and "keys", replayed
    real_init, real_pivot = _pivot_py.Tableau.__init__, _pivot_py.Tableau.pivot
    real_swap, real_shift = _pivot_py.Tableau.swap_key, _pivot_py.Tableau.shift_key
    real_delete = _pivot_py.Tableau.delete

    def init_spy(tab, rows, *args):
        real_init(tab, rows, *args)
        state["basis"] = [rename(id_base + e) for e in range(len(rows))]
        state["keys"] = list(tab.keys)
        changes.extend((key, id_base + i) for key, i in zip(tab.keys, keyed))
        if len(tab.keys) != len(keyed):
            changes.append(("keys", len(tab.keys)))

    def pivot_spy(tab, row, col):
        basis = state["basis"]
        changes.append((rename(col), basis[row]))
        basis[row] = rename(col)
        return real_pivot(tab, row, col)

    def swap_spy(tab, k, basis):
        old = tab.keys[k]
        i = real_swap(tab, k, basis)
        if i >= 0:
            events.append("swap")
            replay = state["basis"]
            state["keys"][k], replay[i] = replay[i], old
        return i

    def shift_spy(tab, k, s):
        events.append("shift")
        changes.append((s, state["keys"][k]))
        state["keys"][k] = s
        return real_shift(tab, k, s)

    def delete_spy(tab, i):
        if i < len(state["basis"]):
            del state["basis"][i]
        return real_delete(tab, i)

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(_pivot_py, "DEGENERATE_RUN", degenerate_run)
        monkeypatch.setattr(_pivot_py.Tableau, "__init__", init_spy)
        monkeypatch.setattr(_pivot_py.Tableau, "pivot", pivot_spy)
        monkeypatch.setattr(_pivot_py.Tableau, "swap_key", swap_spy)
        monkeypatch.setattr(_pivot_py.Tableau, "shift_key", shift_spy)
        monkeypatch.setattr(_pivot_py.Tableau, "delete", delete_spy)
        solution = lp.solve(problem)
    basis = sorted(state["basis"] + state["keys"]) if state else None
    return solution, basis, changes


# Bland's rule from the first pivot; a hand-over after five degenerate
# pivots in a row, which the persuasion LPs among the samples reach in
# mid-phase, some after a nondegenerate pivot has cut a shorter run; the
# shipped constant.
RULES = (BLAND, 5, _pivot_py.DEGENERATE_RUN)


def assert_matches_oracle(problem, rules=RULES, events=None):
    """Compare the kernel with the oracle under each rule; return the last solution."""
    for degenerate_run in rules:
        expected, expected_basis, expected_changes, layout = oracle_solve(
            fraction_view(problem), degenerate_run
        )
        solution, basis, changes = integer_solve(
            problem, degenerate_run, layout, events
        )
        assert solution.status == expected[0]
        assert solution.objective == expected[1]
        assert solution.primal == expected[2]
        assert solution.dual == expected[3]
        # Same rule on the same exact tableau: the walk must match basis
        # change for basis change and end in the same basis.
        assert solution.iterations == expected[4]
        assert changes == expected_changes
        assert basis == expected_basis
    return solution


def _sample_problems():
    problems = []
    for seed in (1, 2, 3):
        inst = model.random_instance(seed, actions=3, states=3)
        problems.append(single.build_lp(inst, PaymentModel.ARBITRARY)[0])
    minst = model.random_multi_instance(4, receivers=2, states=3)
    problems.append(multi.build_lp_binary(minst, PaymentModel.BUDGET_BALANCED)[0])
    return problems


def _run_both(tab, degenerate_run):
    """Drive one int tableau with a unit basis through the kernel and the oracle."""
    m = len(tab) - 1
    ncols = len(tab[0]) - 1
    basis = [ncols - m + i for i in range(m)]
    enterable = [True] * ncols
    int_tab = _pivot_py.Tableau([row[:] for row in tab])
    frac_tab = [[F(v) for v in row] for row in tab]
    int_basis, frac_basis = basis[:], basis[:]
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(_pivot_py, "DEGENERATE_RUN", degenerate_run)
        status, iters = _pivot_py.run_simplex(int_tab, int_basis, enterable, 100)
    frac_status, frac_iters = oracle_run_simplex(
        frac_tab, frac_basis, enterable, 100, degenerate_run, []
    )
    assert status == frac_status
    assert iters == frac_iters
    assert int_basis == frac_basis
    exact = [
        [int_tab.fraction(i, j) for j in range(ncols + 1)] for i in range(m + 1)
    ]
    assert exact == frac_tab
    return status, iters


# ---------------------------------------------------------------------------
# Tests


def test_kernels_produce_identical_solutions():
    problems = _sample_problems()
    # A 16-state action-symmetric LP: 4 actions, 2 iid types.
    typed = model.random_instance(5, actions=4, symmetric=True, types=2)
    problems.append(
        single.build_lp(model.expand_typed(typed), PaymentModel.ARBITRARY)[0]
    )
    # Phase 1 ends with the artificial of row 0 basic at zero; driving it
    # out pivots on a negative entry, and phase 2 pivots after that.
    problems.append(
        lp.LpProblem(
            objective=(F(-1), F(-2)),
            free=(False, False),
            constraints=(
                lp.LinearConstraint(((1, F(-1)), (0, F(1))), lp.EQ, F(2)),
                lp.LinearConstraint(((1, F(-3)),), lp.GE, F(0)),
            ),
        )
    )
    for problem in problems:
        assert assert_matches_oracle(problem).status == lp.OPTIMAL


# Beale's cycling example, rows scaled to integers: every ratio test of
# the first pivots ties at 0, so only the leaving rule picks the row.
BEALE = [
    [1, -32, -4, 36, 1, 0, 0, 0],
    [1, -24, -1, 6, 0, 1, 0, 0],
    [0, 0, 1, 0, 0, 0, 1, 1],
    [-3, 80, -2, 24, 0, 0, 0, 0],
]


def test_kernel_twins_agree_on_a_raw_tableau():
    for degenerate_run in RULES:
        _run_both(
            [
                [1, 1, 1, 0, 4],
                [3, 1, 0, 1, 6],
                [-1, -1, 0, 0, 0],
            ],
            degenerate_run,
        )
        status, iters = _run_both(BEALE, degenerate_run)
        assert status == _pivot_py.OPTIMAL
        assert iters > 2


@pytest.mark.parametrize("degenerate_run", [_pivot_py.DEGENERATE_RUN, 1, 2])
def test_degenerate_lp_reaches_a_certified_optimum(degenerate_run):
    # Beale's LP as stated: its first pivots are degenerate, so with the
    # constant at 1 or 2 the phase hands over to Bland's rule midway.
    beale = lp.LpProblem(
        objective=(F(3, 4), F(-20), F(1, 2), F(-6)),
        free=(False,) * 4,
        constraints=(
            lp.LinearConstraint(
                ((0, F(1, 4)), (1, F(-8)), (2, F(-1)), (3, F(9))), lp.LE, F(0)
            ),
            lp.LinearConstraint(
                ((0, F(1, 2)), (1, F(-12)), (2, F(-1, 2)), (3, F(3))), lp.LE, F(0)
            ),
            lp.LinearConstraint(((2, F(1)),), lp.LE, F(1)),
        ),
    )
    solution = assert_matches_oracle(beale, rules=(degenerate_run,))
    assert solution.objective == F(5, 4)
    assert not lp.certify_report(beale, solution)


def test_seed_108_lp_takes_few_pivots():
    # 81 states, 93 rows: 1,326 pivots under Bland's rule alone.
    typed = model.random_instance(108, actions=4, symmetric=True, types=3)
    problem = single.build_lp(model.expand_typed(typed), PaymentModel.ARBITRARY)[0]
    solution = lp.solve(problem)
    assert solution.iterations <= 200
    assert not lp.certify_report(problem, solution)


def _single_receiver_instances():
    for seed in range(1, 9):
        yield model.random_instance(seed, actions=3, states=4)
        yield model.expand_typed(
            model.random_instance(seed, actions=3, symmetric=True, types=2)
        )
        yield model.expand_typed(
            model.random_instance(
                seed, actions=3, symmetric=True, types=2, joint=True
            )
        )


def _phase1_rows(problem, explicit):
    """The rows lp.solve's phase 1 prices, by name, after checking its start.

    explicit names the rows left in the tableau after keying, in order.
    The first simplex run must start with only identity columns basic
    (each row's slack or artificial) beside the keys, and phase 1 must
    run exactly when an artificial is basic there: the rows it prices
    are those whose identity column may not enter.
    """
    runs = []
    real_run = _pivot_py.run_simplex

    def run_spy(tab, basis, enterable, budget):
        runs.append((list(basis), list(enterable)))
        return real_run(tab, basis, enterable, budget)

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(_pivot_py, "run_simplex", run_spy)
        solution = lp.solve(problem)
    assert not lp.certify_report(problem, solution)
    basis, enterable = runs[0]
    id_base = len(enterable) - len(explicit)
    assert basis == list(range(id_base, len(enterable)))
    priced = [name for e, name in enumerate(explicit) if not enterable[id_base + e]]
    assert len(runs) == (2 if priced else 1)
    return priced


@pytest.mark.parametrize("payment_model", list(PaymentModel), ids=lambda pm: pm.value)
def test_single_receiver_lps_start_feasible(payment_model):
    # Every simplex row is keyed and stays out of the tableau, and every
    # follow row is a >= row at right-hand side 0, stated as a <= row
    # with its slack basic.  So phase 2 is the only simplex run, except
    # under budget balance, where phase 1 prices the budget row alone.
    expected = ["budget"] if payment_model is PaymentModel.BUDGET_BALANCED else []
    for instance in _single_receiver_instances():
        problem = single.build_lp(instance, payment_model)[0]
        _, _, keys = _initial_tableau(problem)
        assert len(keys) == instance.num_states
        explicit = [
            c.name for c in problem.constraints if not c.name.startswith("simplex[")
        ]
        assert _phase1_rows(problem, explicit) == expected


def test_restricted_dual_phase1_prices_the_positive_cuts():
    # A cut row is a >= row with no convexity rows around it: at a right-
    # hand side <= 0 it is stated as a <= row with its slack basic, and
    # phase 1 prices exactly the rest.
    seen = 0
    for seed in range(1, 6):
        inst = model.random_multi_instance(
            seed,
            receivers=3,
            states=3,
            positive_externalities=True,
            monotone_sender=True,
        )
        with lp.recording() as log:
            reduction.cutting_plane_solve(inst)
        for problem, _ in log:
            names = [c.name for c in problem.constraints]
            assert all(name.startswith("cut[") for name in names)
            expected = [c.name for c in problem.constraints if c.rhs > 0]
            assert _phase1_rows(problem, names) == expected
            seen += bool(expected)
    assert seen


_rational = st.builds(F, st.integers(-6, 6), st.integers(1, 4))


def _stated(sense, objective, bounds, constraints):
    """test_lp.restate, with a min problem stated as max of its negation."""
    if sense == "min":
        objective = [-c for c in objective]
    return restate(objective, bounds, constraints)


# Zero right-hand sides and zero lower bounds make degenerate vertices:
# ratio ties, and artificials left basic at zero after phase 1.
_rhs = st.one_of(st.just(F(0)), _rational)


@st.composite
def _random_problem(draw):
    n = draw(st.integers(1, 4))
    bounds = []
    for _ in range(n):
        lo = draw(st.one_of(st.none(), st.just(F(0)), _rational))
        up = draw(st.one_of(st.none(), _rational))
        if lo is not None and up is not None and up < lo:
            lo, up = up, lo
        bounds.append((lo, up))
    constraints = []
    for _ in range(draw(st.integers(0, 4))):
        cols = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n))
        coeffs = tuple((j, draw(_rational)) for j in cols)
        constraints.append(
            lp.LinearConstraint(
                coeffs=coeffs,
                rel=draw(st.sampled_from([lp.LE, lp.GE, lp.EQ])),
                rhs=draw(_rhs),
            )
        )
    sense = draw(st.sampled_from(["max", "min"]))
    objective = [draw(_rational) for _ in range(n)]
    return _stated(sense, objective, bounds, constraints)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_random_problem())
def test_integer_kernel_matches_fraction_oracle_on_random_lps(problem):
    solution = assert_matches_oracle(problem)
    if solution.status == lp.OPTIMAL:
        assert not lp.certify_report(problem, solution)


_positive = st.builds(F, st.integers(1, 6), st.integers(1, 4))
_nonzero = st.one_of(_positive, _positive.map(lambda v: -v))
_nonneg = (F(0), None)


@st.composite
def _blocked_key_problem(draw):
    """A convexity row whose only key is blocked by a zero-rhs <= row.

    The row a*x0 - b*x1 <= 0 (or its >= 0 negation) has its slack basic
    at 0 and a positive entry on x0, the only column of the convexity
    row c*x0 == e > 0, so that row stays unkeyed, with its artificial,
    for phase 1; the row d*x2 (== or >=) f > 0 is keyed on x2 when it
    is an == row and priced in phase 1 when it is a >= row.
    """
    a, b, c, d, e, f = (draw(_positive) for _ in range(6))
    if draw(st.booleans()):
        zero_row = lp.LinearConstraint(((0, a), (1, -b)), lp.LE, F(0))
    else:
        zero_row = lp.LinearConstraint(((0, -a), (1, b)), lp.GE, F(0))
    others = [
        lp.LinearConstraint(((0, c),), lp.EQ, e),
        lp.LinearConstraint(((2, d),), draw(st.sampled_from([lp.EQ, lp.GE])), f),
    ]
    rows = draw(st.permutations([zero_row] + others))
    sense = draw(st.sampled_from(["max", "min"]))
    objective = [draw(_rational) for _ in range(3)]
    return _stated(sense, objective, (_nonneg,) * 3, rows)


@st.composite
def _zero_rhs_equality_problem(draw):
    """An == row at right-hand side 0, first: its artificial starts basic at 0.

    Half the time the row's coefficients are all negative on columns
    >= 0, so no ratio test picks it: phase 1 leaves its artificial basic
    at 0, to be driven out after.
    """
    n = draw(st.integers(2, 3))
    cols = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    one_signed = draw(st.booleans())
    bounds = tuple(
        _nonneg
        if one_signed and j in cols
        else draw(st.sampled_from([_nonneg, (None, None)]))
        for j in range(n)
    )
    entry = _positive.map(lambda v: -v) if one_signed else _nonzero
    rows = [
        lp.LinearConstraint(tuple((j, draw(entry)) for j in cols), lp.EQ, F(0)),
        lp.LinearConstraint(
            tuple((j, draw(_nonzero)) for j in range(n)),
            draw(st.sampled_from([lp.LE, lp.GE, lp.EQ])),
            draw(_rational),
        ),
    ]
    sense = draw(st.sampled_from(["max", "min"]))
    objective = [draw(_rational) for _ in range(n)]
    return _stated(sense, objective, bounds, rows)


@pytest.mark.parametrize(
    "strategy, every, some",
    [
        (_blocked_key_problem(), {"blocked_by_zero_rhs_le", "unkeyed"}, set()),
        (_zero_rhs_equality_problem(), set(), {"drive_out"}),
    ],
    ids=["blocked-key", "zero-rhs-equality"],
)
def test_start_cases_match_fraction_oracle(strategy, every, some):
    # every: the cases each LP meets; some: those the campaign must reach
    # (a zero-rhs row's artificial can be priced out in phase 1, or stay
    # basic at 0 and be driven out after it).
    seen = set()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(strategy)
    def check(problem):
        cases = set()
        oracle_solve(problem, _pivot_py.DEGENERATE_RUN, cases)
        assert every <= cases
        seen.update(cases)
        solution = assert_matches_oracle(problem)
        if solution.status == lp.OPTIMAL:
            assert not lp.certify_report(problem, solution)

    check()
    assert some <= seen


_bound = st.one_of(
    st.just((F(0), None)),
    st.builds(lambda lo: (lo, None), _rational),
    st.builds(lambda up: (F(0), up), _positive),
)


@st.composite
def _convexity_problem(draw):
    """Convexity rows over disjoint groups of columns, among general rows.

    A group's row has one coefficient c on each of its columns (negated
    with its right-hand side at times, which sign normalization undoes)
    and a positive right-hand side; members may be shifted (the
    substitution moves the right-hand sides) or bounded above by a row
    after all the others.  General rows over any columns, in any order with the
    convexity rows, can block a key, meet keyed columns and leave
    artificials before or after a convexity row.
    """
    n = draw(st.integers(1, 6))
    cols = draw(st.permutations(range(n)))
    groups, start = [], 0
    while start < n and len(groups) < 3:
        size = draw(st.integers(1, min(3, n - start)))
        groups.append(cols[start : start + size])
        start += size
    rows = []
    for group in groups:
        c, rhs = draw(_positive), draw(_positive)
        if draw(st.booleans()):
            c, rhs = -c, -rhs
        rows.append(lp.LinearConstraint(tuple((j, c) for j in group), lp.EQ, rhs))
    for _ in range(draw(st.integers(0, 3))):
        picked = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n))
        rows.append(
            lp.LinearConstraint(
                tuple((j, draw(_rational)) for j in picked),
                draw(st.sampled_from([lp.LE, lp.GE, lp.EQ])),
                draw(_rhs),
            )
        )
    sense = draw(st.sampled_from(["max", "min"]))
    objective = [draw(_rational) for _ in range(n)]
    bounds = [draw(_bound) for _ in range(n)]
    return _stated(sense, objective, bounds, draw(st.permutations(rows)))


def test_convexity_rows_match_fraction_oracle():
    # Keyed rows stay out of the kernel's tableau; the walk must still be
    # the full tableau's, through every kind of key step.
    seen = set()

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(_convexity_problem())
    def check(problem):
        oracle_solve(problem, 1, seen)
        bland = []
        assert_matches_oracle(problem, rules=(BLAND,), events=bland)
        seen.update(f"{event}_under_bland" for event in bland)
        other = []
        solution = assert_matches_oracle(
            problem, rules=(1, _pivot_py.DEGENERATE_RUN), events=other
        )
        seen.update(other)
        if solution.status == lp.OPTIMAL:
            assert not lp.certify_report(problem, solution)

    check()
    assert {
        "unkeyed",
        "one_member",
        "c_not_1",
        "bounded_member",
        "bland_fallback",
        "swap",
        "shift",
        "swap_under_bland",
        "shift_under_bland",
    } <= seen


def _initial_tableau(problem):
    """The Tableau lp.solve hands the kernel, as built, or None."""
    captured = []
    real_init = _pivot_py.Tableau.__init__

    def init_spy(tab, rows, *args):
        real_init(tab, rows, *args)
        captured.append(
            ([row[:] for row in rows], list(tab.dens), list(tab.keys))
        )

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(_pivot_py.Tableau, "__init__", init_spy)
        lp.solve(problem)
    return captured[0] if captured else None


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_random_problem())
def test_tableau_rows_are_coprime_ints(problem):
    # Each row, its identity column left out, is the stated row times the
    # least positive factor that makes it integral: its ints are coprime.
    # A common factor left in a row would rescale its identity column's
    # reduced cost and so could change Dantzig's choice.  Keying a
    # convexity row rewrites the rows that meet its key, so the rows are
    # checked, exactly, against the oracle's tableau after keying.
    built = _initial_tableau(problem)
    if built is None:
        return
    rows, dens, keys = built
    layout = oracle_solve(problem, _pivot_py.DEGENERATE_RUN)[3]
    assert len(keys) == len(layout["keyed"])
    assert [
        [F(v, den) for v in row] for row, den in zip(rows, dens)
    ] == layout["keyed_tableau"]
    if not keys:
        m = len(rows)
        for i, row in enumerate(rows):
            rest = row[: len(row) - 1 - m + i] + row[len(row) - m + i :]
            assert gcd(*rest) in (0, 1)


def test_row_whose_duplicates_cancel_is_all_zero():
    # x0/2 - x0/2 == 0 sums to an all-zero row (over the denominator 2),
    # a dependent equality row that phase 1 drops.  (2/3 + 1/3) x1 == 1
    # is a convexity row of one column, keyed on x1.
    problem = lp.LpProblem(
        objective=(F(-1), F(1)),
        free=(False, False),
        constraints=(
            lp.LinearConstraint(((0, F(1, 2)), (0, F(-1, 2))), lp.EQ, F(0)),
            lp.LinearConstraint(((1, F(1)), (0, F(-1, 3))), lp.LE, F(2)),
            lp.LinearConstraint(((1, F(2, 3)), (1, F(1, 3))), lp.EQ, F(1)),
        ),
    )
    rows, _, keys = _initial_tableau(problem)
    assert keys == [1]
    assert rows[0] == [0, 0, 1, 0, 0]
    assert assert_matches_oracle(problem).status == lp.OPTIMAL


def test_drive_out_pivots_count_as_iterations():
    # The two rows 2*x0 == 2 are dependent.  2*x0 - 2*x1 <= 1 has a
    # smaller ratio on x0 than they do, so the first, a convexity row,
    # gets no key, and phase 1 runs over both.  It ends with an
    # artificial basic at 0 whose row has a nonzero entry outside the
    # artificial columns, so it is driven out by a pivot; the other row
    # reduces to 0 == 0 and is dropped.
    problem = lp.LpProblem(
        objective=(F(2), F(0)),
        free=(False, False),
        constraints=(
            lp.LinearConstraint(((0, F(1)),), lp.LE, F(1)),
            lp.LinearConstraint(((0, F(2)),), lp.EQ, F(2)),
            lp.LinearConstraint(((0, F(2)),), lp.EQ, F(2)),
            lp.LinearConstraint(((0, F(2)), (1, F(-2))), lp.LE, F(1)),
        ),
    )
    events = []
    real_run, real_pivot = _pivot_py.run_simplex, _pivot_py.Tableau.pivot
    real_delete = _pivot_py.Tableau.delete

    def run_spy(tab, basis, enterable, budget):
        events.append("run")
        status, iters = real_run(tab, basis, enterable, budget)
        events.append(("end", iters))
        return status, iters

    def pivot_spy(tab, row, col):
        events.append("pivot")
        return real_pivot(tab, row, col)

    def delete_spy(tab, row):
        events.append("delete")
        return real_delete(tab, row)

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(_pivot_py, "run_simplex", run_spy)
        monkeypatch.setattr(_pivot_py.Tableau, "pivot", pivot_spy)
        monkeypatch.setattr(_pivot_py.Tableau, "delete", delete_spy)
        solution = lp.solve(problem)

    phase1_end = next(k for k, e in enumerate(events) if isinstance(e, tuple))
    phase2 = events.index("run", phase1_end)
    # After phase 1: its objective row, then a drive-out pivot and a
    # dropped dependent row.
    assert events[phase1_end + 1 : phase2] == ["delete", "pivot", "delete"]
    simplex_pivots = sum(e[1] for e in events if isinstance(e, tuple))
    assert solution.iterations == events.count("pivot") == simplex_pivots + 1
    assert solution.objective == 2
    assert not lp.certify_report(problem, solution)
    assert assert_matches_oracle(problem).iterations == solution.iterations
