"""Exact LP solver tests: known optima, statuses, duals, and certificates."""

import random
import threading
from fractions import Fraction as F

import pytest

from persuade import lp
from persuade.lp import LinearConstraint, LpProblem


def make(sense, objective, bounds, constraints, constant=F(0)):
    return LpProblem(
        sense=sense,
        objective=tuple(F(c) for c in objective),
        bounds=tuple(bounds),
        constraints=tuple(constraints),
        constant=F(constant),
    )


def row(coeffs, rel, rhs, name=""):
    return LinearConstraint(
        coeffs=tuple((j, F(c)) for j, c in coeffs),
        rel=rel,
        rhs=F(rhs),
        name=name,
    )


def test_simple_max():
    # max x + y st x + 2y <= 4, 3x + y <= 6; optimum at (8/5, 6/5) = 14/5
    p = make(
        "max",
        [1, 1],
        [(F(0), None), (F(0), None)],
        [row([(0, 1), (1, 2)], "<=", 4), row([(0, 3), (1, 1)], "<=", 6)],
    )
    s = lp.solve(p)
    assert s.status == lp.OPTIMAL
    assert s.objective == F(14, 5)
    assert s.primal == (F(8, 5), F(6, 5))
    assert lp.certify(p, s)


def test_equality_and_min():
    # min 2x + 3y st x + y == 5, x <= 3 -> x=3, y=2, value 12
    p = make(
        "min",
        [2, 3],
        [(F(0), F(3)), (F(0), None)],
        [row([(0, 1), (1, 1)], "==", 5)],
    )
    s = lp.solve(p)
    assert s.status == lp.OPTIMAL
    assert s.objective == F(12)
    assert s.primal == (F(3), F(2))
    assert lp.certify(p, s)
    # For a minimization the >=0-dual side is the >= rows; equality free.
    # Here shadow price of the == row is 3 (y is the marginal variable).
    assert s.dual == (F(3),)


def test_free_variable():
    # max 2y - x, x free above -2, y >= 0, x + y <= 3 -> x=-2, y=5, value 12
    p = make(
        "max",
        [-1, 2],
        [(None, None), (F(0), None)],
        [row([(0, 1), (1, 1)], "<=", 3), row([(0, 1)], ">=", -2)],
    )
    s = lp.solve(p)
    assert s.status == lp.OPTIMAL
    assert s.objective == F(12)
    assert s.primal == (F(-2), F(5))
    assert lp.certify(p, s)
    # Max-sense convention: <= rows carry nonnegative duals, >= rows
    # nonpositive ones.
    assert s.dual[0] >= 0 and s.dual[1] <= 0


def test_infeasible():
    p = make(
        "max",
        [1],
        [(F(0), None)],
        [row([(0, 1)], "<=", 1), row([(0, 1)], ">=", 2)],
    )
    assert lp.solve(p).status == lp.INFEASIBLE


def test_bound_conflict_infeasible():
    p = make("max", [1], [(F(1), F(0))], [])
    assert lp.solve(p).status == lp.INFEASIBLE


def test_unbounded():
    p = make("max", [1, 0], [(F(0), None), (F(0), None)], [row([(1, 1)], "<=", 1)])
    assert lp.solve(p).status == lp.UNBOUNDED


def test_fixed_variable_bounds():
    p = make(
        "max",
        [5, 1],
        [(F(2), F(2)), (F(0), F(1))],
        [row([(0, 1), (1, 1)], "<=", 10)],
    )
    s = lp.solve(p)
    assert s.status == lp.OPTIMAL
    assert s.primal[0] == F(2)
    assert s.objective == F(11)
    assert lp.certify(p, s)


def test_negative_rhs_row_flips():
    # -x - y <= -2 is x + y >= 2 in disguise.
    p = make(
        "min",
        [1, 2],
        [(F(0), None), (F(0), None)],
        [row([(0, -1), (1, -1)], "<=", -2)],
    )
    s = lp.solve(p)
    assert s.status == lp.OPTIMAL
    assert s.objective == F(2)
    assert s.primal == (F(2), F(0))
    assert lp.certify(p, s)


def test_redundant_equality_rows_dropped():
    p = make(
        "max",
        [1, 1],
        [(F(0), None), (F(0), None)],
        [
            row([(0, 1), (1, 1)], "==", 2),
            row([(0, 2), (1, 2)], "==", 4),
            row([(0, 1)], "<=", 1),
        ],
    )
    s = lp.solve(p)
    assert s.status == lp.OPTIMAL
    assert s.objective == F(2)
    assert lp.certify(p, s)


def test_duplicate_coefficients_merge():
    p = make(
        "max",
        [1],
        [(F(0), None)],
        [row([(0, 1), (0, 1)], "<=", 4)],
    )
    s = lp.solve(p)
    assert s.objective == F(2)
    assert lp.certify(p, s)


def test_constant_offset():
    p = make("max", [1], [(F(0), F(1))], [], constant=F(7, 2))
    s = lp.solve(p)
    assert s.objective == F(9, 2)
    assert lp.certify(p, s)


def test_determinism():
    p = make(
        "max",
        [3, 1, 4],
        [(F(0), None)] * 3,
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
    p = make("max", [1, 1], [(F(0), None), (F(0), None)], base_rows)
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
    p2 = make("max", [1, 1], [(F(0), None), (F(0), None)], scaled)
    s2 = lp.solve(p2)
    assert s2.objective == s.objective
    assert s2.primal == s.primal
    assert s2.dual[0] == s.dual[0] / c
    assert s2.dual[1] == s.dual[1]
    assert lp.certify(p2, s2)


def _random_problem(rng):
    n = rng.randint(1, 5)
    m = rng.randint(1, 5)
    sense = rng.choice(["max", "min"])
    objective = [F(rng.randint(-4, 4), rng.choice([1, 1, 2])) for _ in range(n)]
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
    return make(sense, objective, bounds, constraints)


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
        p = make("max", [1], [(F(0), F(2))], [])
        lp.solve(p)
    assert len(entries) == 1
    assert entries[0][1].objective == F(2)


def test_recording_is_scoped_to_its_thread():
    mine = make("max", [1], [(F(0), F(2))], [])
    theirs = make("max", [1], [(F(0), F(3))], [])
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
        "max",
        [1, 1],
        [(F(0), None), (F(0), None)],
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
    assert not lp.certify(p, worse)
    weak_dual = lp.LpSolution(
        status=s.status,
        objective=s.objective,
        primal=s.primal,
        dual=(F(0), F(0)),
        iterations=s.iterations,
    )
    assert not lp.certify(p, weak_dual)


def test_iteration_limit_raises():
    p = make(
        "max",
        [1, 1, 1],
        [(F(0), None)] * 3,
        [row([(0, 1), (1, 1), (2, 1)], "<=", 30)],
    )
    with pytest.raises(Exception):
        lp.solve(p, max_iter=0)
