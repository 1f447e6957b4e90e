"""Exact LP solver tests: known optima, statuses, duals, and certificates."""

import random
import threading
from dataclasses import replace
from fractions import Fraction as F

import pytest

from persuade import _pivot_py, lp
from persuade.errors import IterationLimit
from persuade.lp import LinearConstraint, LpProblem


def make(objective, free, constraints):
    return LpProblem(
        objective=tuple(F(c) for c in objective),
        free=tuple(free),
        constraints=tuple(constraints),
    )


def row(coeffs, rel, rhs, name=""):
    return LinearConstraint(
        coeffs=tuple((j, F(c)) for j, c in coeffs),
        rel=rel,
        rhs=F(rhs),
        name=name,
    )


def restate(objective, bounds, constraints):
    """An LP over columns with (lower, upper) bounds, stated over columns >= 0 or free.

    A column with a lower bound lo is lo + t and one with only an upper
    bound up is up - t, over t >= 0; the upper bound of a column with
    both becomes the row t <= up - lo, named "upper[j]", after all the
    others.  A column with neither is free.
    """
    offset, sign, free, upper = [], [], [], []
    for j, (lo, up) in enumerate(bounds):
        if lo is not None:
            offset.append(lo)
            sign.append(1)
            if up is not None:
                upper.append(row([(j, 1)], "<=", up - lo, f"upper[{j}]"))
        elif up is not None:
            offset.append(up)
            sign.append(-1)
        else:
            offset.append(F(0))
            sign.append(1)
        free.append(lo is None and up is None)
    rows = [
        replace(
            c,
            coeffs=tuple((j, sign[j] * a) for j, a in c.coeffs),
            rhs=c.rhs - sum((a * offset[j] for j, a in c.coeffs), F(0)),
        )
        for c in constraints
    ]
    return LpProblem(
        objective=tuple(s * c for s, c in zip(sign, objective)),
        free=tuple(free),
        constraints=tuple(rows + upper),
    )


def fraction_view(problem):
    """The statement with every entry a Fraction, read over den = 1."""
    den = problem.den
    return replace(
        problem,
        objective=tuple(F(c) / den for c in problem.objective),
        constraints=tuple(
            replace(
                c,
                coeffs=tuple((j, F(a) / den) for j, a in c.coeffs),
                rhs=F(c.rhs) / den,
            )
            for c in problem.constraints
        ),
        den=1,
    )


def test_simple_max():
    # max x + y st x + 2y <= 4, 3x + y <= 6; optimum at (8/5, 6/5) = 14/5
    p = make(
        [1, 1],
        [False, False],
        [row([(0, 1), (1, 2)], "<=", 4), row([(0, 3), (1, 1)], "<=", 6)],
    )
    s = lp.solve(p)
    assert s.status == lp.OPTIMAL
    assert s.objective == F(14, 5)
    assert s.primal == (F(8, 5), F(6, 5))
    assert not lp.certify_report(p, s)


def test_equality_and_min():
    # min 2x + 3y st x + y == 5, x <= 3 -> x=3, y=2, value 12, stated as
    # max -2x - 3y, whose value is -12.
    p = make(
        [-2, -3],
        [False, False],
        [row([(0, 1), (1, 1)], "==", 5), row([(0, 1)], "<=", 3)],
    )
    s = lp.solve(p)
    assert s.status == lp.OPTIMAL
    assert s.objective == F(-12)
    assert s.primal == (F(3), F(2))
    assert not lp.certify_report(p, s)
    # The == row is free and prices y's cost: -3.  Raising x's cap by
    # one trades a unit of y for one of x, worth 1.
    assert s.dual == (F(-3), F(1))


def test_free_variable():
    # max 2y - x, x free above -2, y >= 0, x + y <= 3 -> x=-2, y=5, value 12
    p = make(
        [-1, 2],
        [True, False],
        [row([(0, 1), (1, 1)], "<=", 3), row([(0, 1)], ">=", -2)],
    )
    s = lp.solve(p)
    assert s.status == lp.OPTIMAL
    assert s.objective == F(12)
    assert s.primal == (F(-2), F(5))
    assert not lp.certify_report(p, s)
    # <= rows carry nonnegative duals, >= rows nonpositive ones.
    assert s.dual[0] >= 0 and s.dual[1] <= 0


def test_infeasible():
    p = make(
        [1],
        [False],
        [row([(0, 1)], "<=", 1), row([(0, 1)], ">=", 2)],
    )
    assert lp.solve(p).status == lp.INFEASIBLE


def test_unbounded():
    p = make([1, 0], [False, False], [row([(1, 1)], "<=", 1)])
    assert lp.solve(p).status == lp.UNBOUNDED


def test_negative_rhs_row_flips():
    # -x - y <= -2 is x + y >= 2 in disguise.  min x + 2y, stated as
    # max -x - 2y.
    p = make(
        [-1, -2],
        [False, False],
        [row([(0, -1), (1, -1)], "<=", -2)],
    )
    s = lp.solve(p)
    assert s.status == lp.OPTIMAL
    assert s.objective == F(-2)
    assert s.primal == (F(2), F(0))
    assert not lp.certify_report(p, s)


def test_redundant_equality_rows_dropped():
    p = make(
        [1, 1],
        [False, False],
        [
            row([(0, 1), (1, 1)], "==", 2),
            row([(0, 2), (1, 2)], "==", 4),
            row([(0, 1)], "<=", 1),
        ],
    )
    s = lp.solve(p)
    assert s.status == lp.OPTIMAL
    assert s.objective == F(2)
    assert not lp.certify_report(p, s)


def test_duplicate_coefficients_merge():
    p = make(
        [1],
        [False],
        [row([(0, 1), (0, 1)], "<=", 4)],
    )
    s = lp.solve(p)
    assert s.objective == F(2)
    assert not lp.certify_report(p, s)


def test_determinism():
    p = make(
        [3, 1, 4],
        [False] * 3,
        [
            row([(0, 1), (1, 2), (2, 1)], "<=", 7),
            row([(0, 2), (2, 3)], "<=", 9),
            row([(1, 1), (2, 1)], ">=", 1),
        ],
    )
    a = lp.solve(p)
    b = lp.solve(p)
    assert a == b


def test_row_scaling_scales_dual():
    base_rows = [
        row([(0, 1), (1, 2)], "<=", 4),
        row([(0, 3), (1, 1)], "<=", 6),
    ]
    p = make([1, 1], [False, False], base_rows)
    s = lp.solve(p)
    c = F(5, 3)
    scaled = [
        LinearConstraint(
            coeffs=tuple((j, v * c) for j, v in base_rows[0].coeffs),
            rel="<=",
            rhs=base_rows[0].rhs * c,
        ),
        base_rows[1],
    ]
    p2 = make([1, 1], [False, False], scaled)
    s2 = lp.solve(p2)
    assert s2.objective == s.objective
    assert s2.primal == s.primal
    assert s2.dual[0] == s.dual[0] / c
    assert s2.dual[1] == s.dual[1]
    assert not lp.certify_report(p2, s2)


def _random_problem(rng):
    """A random LP over bounded columns, restated; a min one as max of its negation."""
    n = rng.randint(1, 5)
    m = rng.randint(1, 5)
    sense = rng.choice(["max", "min"])
    objective = [F(rng.randint(-4, 4), rng.choice([1, 1, 2])) for _ in range(n)]
    if sense == "min":
        objective = [-c for c in objective]
    bounds = []
    for _ in range(n):
        kind = rng.randrange(4)
        if kind == 0:
            bounds.append((F(0), None))
        elif kind == 1:
            bounds.append((None, None))
        elif kind == 2:
            lo = F(rng.randint(-3, 0))
            bounds.append((lo, lo + F(rng.randint(0, 5))))
        else:
            bounds.append((None, F(rng.randint(0, 4))))
    constraints = []
    for _ in range(m):
        support = rng.sample(range(n), rng.randint(1, n))
        coeffs = [(j, F(rng.randint(-3, 3))) for j in support]
        coeffs = [(j, c) for j, c in coeffs if c] or [(support[0], F(1))]
        rel = rng.choice(["<=", ">=", "=="])
        constraints.append(row(coeffs, rel, F(rng.randint(-6, 6))))
    return restate(objective, bounds, constraints)


def test_random_lps_certify():
    rng = random.Random(20260823)
    statuses = {lp.OPTIMAL: 0, lp.INFEASIBLE: 0, lp.UNBOUNDED: 0}
    for _ in range(400):
        p = _random_problem(rng)
        s = lp.solve(p)
        statuses[s.status] += 1
        if s.status == lp.OPTIMAL:
            report = lp.certify_report(p, s)
            assert not report, (p, report)
    # The generator must exercise every status.
    assert min(statuses.values()) > 10, statuses


def test_random_lps_deterministic():
    rng = random.Random(7)
    for _ in range(50):
        p = _random_problem(rng)
        assert lp.solve(p) == lp.solve(p)


def test_audit_log_records_solves():
    with lp.recording() as entries:
        p = make([1], [False], [row([(0, 1)], "<=", 2)])
        lp.solve(p)
    assert len(entries) == 1
    assert entries[0][1].objective == F(2)


def test_recording_is_scoped_to_its_thread():
    mine = make([1], [False], [row([(0, 1)], "<=", 2)])
    theirs = make([1], [False], [row([(0, 1)], "<=", 3)])
    with lp.recording() as entries:
        worker = threading.Thread(target=lp.solve, args=(theirs,))
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        lp.solve(mine)
    lp.solve(mine)
    assert [sol.objective for _, sol in entries] == [F(2)]


def test_certify_rejects_tampering():
    p = make(
        [1, 1],
        [False, False],
        [row([(0, 1), (1, 2)], "<=", 4), row([(0, 3), (1, 1)], "<=", 6)],
    )
    s = lp.solve(p)
    worse = lp.LpSolution(
        status=s.status,
        objective=s.objective,
        primal=(F(0), F(0)),
        dual=s.dual,
        iterations=s.iterations,
    )
    assert lp.certify_report(p, worse)
    weak_dual = lp.LpSolution(
        status=s.status,
        objective=s.objective,
        primal=s.primal,
        dual=(F(0), F(0)),
        iterations=s.iterations,
    )
    assert lp.certify_report(p, weak_dual)


def test_iteration_limit_raises(monkeypatch):
    def out_of_pivots(tab, basis, enterable, budget):
        return _pivot_py.ITERATION_LIMIT, budget

    monkeypatch.setattr(_pivot_py, "run_simplex", out_of_pivots)
    # Every row starts with its slack basic: only phase 2 runs.
    p = make([1, 1, 1], [False] * 3, [row([(0, 1), (1, 1), (2, 1)], "<=", 30)])
    with pytest.raises(IterationLimit, match="pivots in phase 2"):
        lp.solve(p)
    # x0 + x1 >= 2 starts with its artificial basic: phase 1 runs.
    p = make(
        [1, 1],
        [False, False],
        [
            row([(0, 1), (1, 1)], ">=", 2),
            row([(0, 1)], "<=", 1),
            row([(1, 1)], "<=", 1),
        ],
    )
    with pytest.raises(IterationLimit, match="pivots in phase 1"):
        lp.solve(p)


@pytest.mark.parametrize("den", [0, -3, 2.0, F(2), True, None])
def test_den_must_be_a_positive_int(den):
    # A den <= 0 would flip every row's sign without a word.
    with pytest.raises(ValueError, match="den must be a positive int"):
        LpProblem((F(1),), (False,), (), den=den)


_GOOD = make([1, 1], [False, True], [row([(0, 1), (1, 1)], "<=", 4)])


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"objective": (F(1), F(1), F(1))}, "objective length does not match"),
        (
            {"constraints": (row([(-1, 1)], "<=", 4),)},
            "constraint references variable -1 of 2",
        ),
        ({"constraints": (row([(0, 1)], "=<", 4),)}, "unknown relation '=<'"),
    ],
    ids=["extra-objective-entry", "column-minus-1", "relation"],
)
def test_statement_is_checked_at_construction(fields, message):
    # A statement solve would refuse cannot be made, so certify_report
    # never reads one.
    with pytest.raises(ValueError, match=message):
        replace(_GOOD, **fields)
    stated = {
        "objective": _GOOD.objective,
        "free": _GOOD.free,
        "constraints": _GOOD.constraints,
        **fields,
    }
    with pytest.raises(ValueError, match=message):
        LpProblem(**stated)
