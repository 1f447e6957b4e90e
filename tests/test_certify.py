"""The integer certificates against their Fraction oracles.

The oracles below are lp.certify_report and
single.verify_support_optimality as first written: every row activity,
reduced cost, objective value and dual-adjusted payoff a Fraction.  The
package makes the same checks in ints over common denominators.  On
every pair, honest or tampered, both must return the same verdict and
the identical list of failure messages.  The solve boundary
lp.certified_solve raises CertificateFailed, as does a fast path whose
lifted dual fails and whose fallback solve does; a budget-balanced
reconstruction its LP dual refuses raises CharacterizationMismatch; and
no statement in the package is an assert that python -O would strip.
"""

import ast
import os
import random
import subprocess
import sys
import textwrap
from dataclasses import replace
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from persuade import lp, model, multi, reduction, single, verify
from persuade.errors import CertificateFailed
from persuade.model import PaymentModel, SignalingScheme
from persuade.single import SingleDual

from test_lp import _random_problem, fraction_view

ZERO = F(0)
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# ---------------------------------------------------------------------------
# Fraction oracles


def oracle_certify_report(problem, solution):
    failures = []
    if solution.status != lp.OPTIMAL:
        return [f"status is {solution.status}, nothing to certify"]
    if solution.primal is None or solution.dual is None:
        return ["optimal solution is missing primal or dual values"]
    n = problem.num_vars
    x = solution.primal
    if len(x) != n or len(solution.dual) != len(problem.constraints):
        return ["primal or dual vector has the wrong length"]

    for j, (lo, up) in enumerate(problem.bounds):
        if lo is not None and x[j] < lo:
            failures.append(f"x[{j}]={x[j]} below lower bound {lo}")
        if up is not None and x[j] > up:
            failures.append(f"x[{j}]={x[j]} above upper bound {up}")

    sense_max = problem.sense == "max"
    cmax = [c if sense_max else -c for c in problem.objective]
    ymax = [y if sense_max else -y for y in solution.dual]

    rc = list(cmax)
    dual_b = ZERO
    for k, constraint in enumerate(problem.constraints):
        value = ZERO
        for j, coeff in constraint.coeffs:
            value += coeff * x[j]
        ok = (
            value <= constraint.rhs
            if constraint.rel == lp.LE
            else value >= constraint.rhs
            if constraint.rel == lp.GE
            else value == constraint.rhs
        )
        if not ok:
            failures.append(
                f"constraint {k} {constraint.name!r} violated: "
                f"{value} {constraint.rel} {constraint.rhs} fails"
            )
        y = ymax[k]
        if constraint.rel == lp.LE and y < 0:
            failures.append(f"dual {k} should be >= 0 in max convention, got {y}")
        if constraint.rel == lp.GE and y > 0:
            failures.append(f"dual {k} should be <= 0 in max convention, got {y}")
        if y and value != constraint.rhs:
            failures.append(
                f"complementary slackness: dual {k} is {y} but row is slack"
            )
        dual_b += y * constraint.rhs
        if y:
            for j, coeff in constraint.coeffs:
                rc[j] = rc[j] - y * coeff

    gap_terms = ZERO
    for j, (lo, up) in enumerate(problem.bounds):
        r = rc[j]
        if r > 0:
            if up is None:
                failures.append(f"reduced cost {j} is {r} > 0 with no upper bound")
            else:
                gap_terms += r * up
                if x[j] != up:
                    failures.append(
                        f"complementary slackness: rc[{j}]={r} > 0 but "
                        f"x[{j}]={x[j]} != upper bound {up}"
                    )
        elif r < 0:
            if lo is None:
                failures.append(f"reduced cost {j} is {r} < 0 with no lower bound")
            else:
                gap_terms += r * lo
                if x[j] != lo:
                    failures.append(
                        f"complementary slackness: rc[{j}]={r} < 0 but "
                        f"x[{j}]={x[j]} != lower bound {lo}"
                    )

    primal_value = sum((cmax[j] * x[j] for j in range(n)), ZERO)
    dual_value = dual_b + gap_terms
    if primal_value != dual_value:
        failures.append(
            f"duality gap: primal {primal_value} != dual bound {dual_value}"
        )

    stated = primal_value if sense_max else -primal_value
    if solution.objective != stated + problem.constant:
        failures.append(
            f"objective field {solution.objective} != recomputed "
            f"{stated + problem.constant}"
        )
    return failures


def oracle_dual_adjusted_payoff(instance, dual, theta, i):
    state = instance.states[theta]
    total = ZERO
    weight = ZERO
    for j in range(instance.actions):
        if j == i:
            continue
        lam = dual.lam[i][j]
        if lam:
            weight += lam
            total -= lam * state.receiver[j]
    return state.receiver[i] * weight + total


def oracle_verify_support_optimality(instance, scheme, dual):
    n = instance.actions
    for t, state in enumerate(instance.states):
        if not state.prob:
            continue
        values = [
            state.sender[i] + oracle_dual_adjusted_payoff(instance, dual, t, i)
            for i in range(n)
        ]
        best = max(values)
        for i in range(n):
            if scheme.distribution[t][i] and values[i] != best:
                return False
    x = model.cross_utility(instance, scheme.distribution)
    for i in range(n):
        for j in range(n):
            if i != j and dual.lam[i][j]:
                if x.entry(i, i) + scheme.payments[i] != x.entry(i, j):
                    return False
    return True


def oracle_build_lp(instance, payment_model):
    """single.build_lp's problem with every coefficient a Fraction product."""
    n, m = instance.actions, instance.num_states
    with_pay = payment_model is not PaymentModel.ZERO
    objective = [s.prob * s.sender[i] for s in instance.states for i in range(n)]
    bounds = [(ZERO, None)] * (m * n)
    if with_pay:
        objective += [F(-1)] * n
        free = payment_model is not PaymentModel.NONNEGATIVE
        bounds += [(None if free else ZERO, None)] * n
    rows = []
    for i in range(n):
        for j in range(n):
            if i != j:
                coeffs = [
                    (t * n + i, s.prob * (s.receiver[i] - s.receiver[j]))
                    for t, s in enumerate(instance.states)
                ]
                coeffs = [(k, c) for k, c in coeffs if c]
                if with_pay:
                    coeffs.append((m * n + i, F(1)))
                name = f"follow[{i}->{j}]"
                rows.append(lp.LinearConstraint(tuple(coeffs), lp.GE, ZERO, name))
    for t in range(m):
        ones = tuple((t * n + i, F(1)) for i in range(n))
        rows.append(lp.LinearConstraint(ones, lp.EQ, F(1), f"simplex[{t}]"))
    if payment_model is PaymentModel.BUDGET_BALANCED:
        pays = tuple((m * n + i, F(1)) for i in range(n))
        rows.append(lp.LinearConstraint(pays, lp.EQ, ZERO, "budget"))
    return lp.LpProblem("max", tuple(objective), tuple(bounds), tuple(rows))


# ---------------------------------------------------------------------------
# Tampering


def _slack_rows(problem, x):
    rows = []
    for k, c in enumerate(problem.constraints):
        value = sum((a * x[j] for j, a in c.coeffs), ZERO)
        if value != c.rhs:
            rows.append(k)
    return rows


def tamper(problem, solution, kind, rng):
    """One of the tamperings, or None where the pair offers no place for it."""
    x, y = list(solution.primal), list(solution.dual)
    priced = [k for k, v in enumerate(y) if v]
    if kind == "primal":
        if not x:
            return None
        j = rng.randrange(len(x))
        x[j] += F(rng.choice((1, -1)), rng.choice((1, 3, 7)))
    elif kind == "dual_sign":
        if not priced:
            return None
        k = rng.choice(priced)
        y[k] = -y[k]
    elif kind == "dual_to_slack":
        slack = _slack_rows(problem, x)
        if not priced or not slack:
            return None
        k, s = rng.choice(priced), rng.choice(slack)
        y[s], y[k] = y[k], ZERO
    elif kind == "objective":
        return replace(solution, objective=solution.objective + 1)
    else:
        raise ValueError(kind)
    return replace(solution, primal=tuple(x), dual=tuple(y))


TAMPERINGS = ("primal", "dual_sign", "dual_to_slack", "objective")


def _same_report(problem, solution):
    got = lp.certify_report(problem, solution)
    assert got == oracle_certify_report(fraction_view(problem), solution)
    return got


# ---------------------------------------------------------------------------
# lp.certify_report


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 2**32), st.sampled_from(TAMPERINGS))
def test_certify_report_matches_oracle_on_random_lps(seed, kind):
    rng = random.Random(seed)
    problem = _random_problem(rng)
    solution = lp.solve(problem)
    honest = _same_report(problem, solution)
    if solution.status != lp.OPTIMAL:
        assert honest == [f"status is {solution.status}, nothing to certify"]
        return
    assert honest == []
    problem = replace(problem, constant=F(rng.randint(-3, 3), rng.choice((1, 2))))
    solution = replace(solution, objective=solution.objective + problem.constant)
    assert _same_report(problem, solution) == []
    bad = tamper(problem, solution, kind, rng)
    if bad is not None:
        _same_report(problem, bad)


_MODELS = tuple(PaymentModel)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    st.integers(0, 10**6),
    st.integers(2, 4),
    st.integers(1, 4),
    st.sampled_from(_MODELS),
    st.sampled_from(TAMPERINGS),
)
def test_certify_report_matches_oracle_on_single_lps(seed, actions, states, pm, kind):
    inst = model.random_instance(seed, actions=actions, states=states)
    result = single.solve_optimal(inst, pm)
    assert _same_report(result.problem, result.solution) == []
    bad = tamper(result.problem, result.solution, kind, random.Random(seed))
    if bad is not None:
        _same_report(result.problem, bad)


def test_tampering_is_caught_by_the_integer_check():
    # Each tampering on a small LP with a slack row and priced rows.
    problem = lp.LpProblem(
        sense="max",
        objective=(F(1), F(1)),
        bounds=((ZERO, None), (ZERO, None)),
        constraints=(
            lp.LinearConstraint(((0, F(1)), (1, F(2))), lp.LE, F(4)),
            lp.LinearConstraint(((0, F(3)), (1, F(1))), lp.LE, F(6)),
            lp.LinearConstraint(((0, F(1)),), lp.LE, F(10)),
        ),
    )
    solution = lp.solve(problem)
    assert lp.certify_report(problem, solution) == []
    rng = random.Random(1)
    for kind in TAMPERINGS:
        bad = tamper(problem, solution, kind, rng)
        assert _same_report(problem, bad), kind


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(0, 10**6), st.integers(1, 4), st.integers(1, 4), st.booleans())
def test_build_lp_matches_oracle(seed, actions, states, typed):
    if typed:
        inst = model.expand_typed(
            model.random_instance(seed, actions=actions, symmetric=True, joint=seed % 2)
        )
    else:
        inst = model.random_instance(seed, actions=actions, states=states)
    for pm in _MODELS:
        problem, _ = single.build_lp(inst, pm)
        assert fraction_view(problem) == oracle_build_lp(inst, pm)
        # The builder writes the ints of its coding, over code.unit.
        assert problem.den == single._coding(inst).unit
        assert all(type(c) is int for c in problem.objective)
        assert all(
            type(a) is int and type(c.rhs) is int
            for c in problem.constraints
            for _, a in c.coeffs
        )


def _times(problem, k):
    """The same LP written times k over den * k; integral entries as ints."""

    def scaled(v):
        v = F(v) * k
        return v.numerator if v.denominator == 1 else v

    return replace(
        problem,
        objective=tuple(scaled(c) for c in problem.objective),
        constraints=tuple(
            replace(
                c,
                coeffs=tuple((j, scaled(a)) for j, a in c.coeffs),
                rhs=scaled(c.rhs),
            )
            for c in problem.constraints
        ),
        den=problem.den * k,
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 2**32), st.integers(2, 12), st.sampled_from(TAMPERINGS))
def test_any_den_states_the_same_lp(seed, k, kind):
    # Shifted, flipped, bounded and free columns, and a constant, which
    # den does not divide.
    rng = random.Random(seed)
    problem = replace(
        _random_problem(rng), constant=F(rng.randint(-3, 3), rng.choice((1, 2)))
    )
    stated = _times(problem, k)
    solution = lp.solve(problem)
    assert lp.solve(stated) == solution
    assert lp.certify_report(stated, solution) == lp.certify_report(problem, solution)
    if solution.status == lp.OPTIMAL:
        bad = tamper(problem, solution, kind, rng)
        if bad is not None:
            assert lp.certify_report(stated, bad) == lp.certify_report(problem, bad)


def _built_problems(seed):
    inst = model.random_instance(seed, actions=3, states=4)
    typed = model.expand_typed(
        model.random_instance(seed, actions=3, symmetric=True, joint=seed % 2)
    )
    minst = model.random_multi_instance(seed, receivers=2, states=3)
    for pm in _MODELS:
        yield single.build_lp(inst, pm)[0]
        yield single.build_lp(typed, pm)[0]
        yield multi.build_lp_binary(minst, pm)[0]
    rinst = model.random_multi_instance(
        seed, receivers=2, states=3, positive_externalities=True, monotone_sender=True
    )
    yield reduction.build_lp_dropped(rinst)[0]
    rows = [(t, subset) for t in range(3) for subset in range(4)]
    yield reduction._restricted_dual(multi._coding(rinst), rows)


@pytest.mark.parametrize("seed", range(1, 7))
def test_built_statements_solve_as_their_fraction_view(seed):
    dens = []
    for problem in _built_problems(seed):
        solution = lp.solve(problem)
        assert solution == lp.solve(fraction_view(problem))
        assert solution.status == lp.OPTIMAL
        assert lp.certify_report(problem, solution) == []
        dens.append(problem.den)
    assert max(dens) > 1


# ---------------------------------------------------------------------------
# single.verify_support_optimality


def _check_support(inst, scheme, dual):
    got = single.verify_support_optimality(inst, scheme, dual)
    assert got is oracle_verify_support_optimality(inst, scheme, dual)
    return got


_TAMPERINGS = ("payment", "lam_sign", "lam_scale", "support")


def _tampered(seed, actions, states, pm, kind):
    """(instance, LP optimum, tampered (scheme, dual) pair).

    The pair is None where the tampering does not apply (no priced
    follow row to move or flip).
    """
    rng = random.Random(seed)
    inst = model.random_instance(seed, actions=actions, states=states)
    result = single.solve_optimal(inst, pm)
    scheme, dual = result.scheme, result.dual
    n = inst.actions
    lam = [list(row) for row in dual.lam]
    priced = [(i, j) for i in range(n) for j in range(n) if lam[i][j]]
    payments = list(scheme.payments)
    dist = [list(row) for row in scheme.distribution]
    if kind == "payment":
        # A payment off the tight row of a priced follow constraint.
        if not priced:
            return inst, result, None
        i, _ = rng.choice(priced)
        payments[i] += F(rng.choice((1, -1)), rng.choice((1, 2, 5)))
    elif kind == "lam_sign":
        if not priced:
            return inst, result, None
        i, j = rng.choice(priced)
        lam[i][j] = -lam[i][j]
    elif kind == "lam_scale":
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            return inst, result, None
        lam[i][j] = lam[i][j] * 2 + F(1, 3)
    else:
        # Move one state's recommendation mass onto another action.
        t = rng.randrange(inst.num_states)
        i, j = rng.randrange(n), rng.randrange(n)
        dist[t][i], dist[t][j] = ZERO, dist[t][j] + dist[t][i]
    tampered = SignalingScheme(
        distribution=tuple(tuple(row) for row in dist), payments=tuple(payments)
    )
    return inst, result, (tampered, SingleDual(lam=tuple(tuple(r) for r in lam)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.integers(0, 10**6),
    st.integers(2, 4),
    st.integers(1, 4),
    st.sampled_from(_MODELS),
    st.sampled_from(_TAMPERINGS),
)
def test_support_check_matches_oracle(seed, actions, states, pm, kind):
    inst, result, pair = _tampered(seed, actions, states, pm, kind)
    assert _check_support(inst, result.scheme, result.dual)
    if pair is not None:
        _check_support(inst, *pair)


def test_support_failures_fail_the_lp_certificate():
    # solve_optimal runs no support check of its own: its LP certificate
    # implies it.  Every tampered pair the support check refuses, written
    # on the LP with the tampered multipliers on the follow rows and the
    # solve's other duals, fails certify_report.
    refused = 0
    for seed in range(40):
        for pm in _MODELS:
            for kind in _TAMPERINGS:
                if pm is PaymentModel.ZERO and kind == "payment":
                    continue  # the zero-payment LP has no payment column
                inst, result, pair = _tampered(
                    seed, 2 + seed % 3, 1 + seed % 4, pm, kind
                )
                if pair is None or single.verify_support_optimality(inst, *pair):
                    continue
                scheme, dual = pair
                refused += 1
                n = inst.actions
                follow = [-dual.lam[i][j] for i in range(n) for j in range(n) if i != j]
                primal = [p for row in scheme.distribution for p in row]
                if pm is not PaymentModel.ZERO:
                    primal += scheme.payments
                claim = replace(
                    result.solution,
                    primal=tuple(primal),
                    dual=tuple(follow) + result.solution.dual[len(follow) :],
                )
                assert lp.certify_report(result.problem, claim), (seed, pm, kind)
    assert refused > 100


def test_support_check_on_a_typed_instance():
    typed = model.random_instance(5, actions=3, symmetric=True, types=2)
    inst = model.expand_typed(typed)
    for pm in _MODELS:
        result = single.solve_optimal(typed, pm)
        assert _check_support(inst, result.scheme, result.dual)
        off = replace(
            result.scheme,
            payments=tuple(p + 1 for p in result.scheme.payments),
        )
        _check_support(inst, off, result.dual)


# ---------------------------------------------------------------------------
# The certified-solve boundary


def _break_certificate(monkeypatch):
    honest = lp.solve

    def nudged(problem, max_iter=None):
        solution = honest(problem, max_iter)
        x = list(solution.primal)
        x[0] += 1
        return replace(solution, primal=tuple(x))

    monkeypatch.setattr(lp, "solve", nudged)


def test_certified_solve_raises_on_a_tampered_answer(monkeypatch):
    inst = model.random_instance(3, actions=3, states=3)
    problem, _ = single.build_lp(inst, PaymentModel.NONNEGATIVE)
    assert lp.certify(problem, lp.certified_solve(problem))
    _break_certificate(monkeypatch)
    with pytest.raises(CertificateFailed, match="optimality certificate failed"):
        lp.certified_solve(problem)
    with pytest.raises(CertificateFailed):
        single.solve_optimal(inst, PaymentModel.NONNEGATIVE)


def test_certified_solve_raises_on_a_non_optimal_status():
    problem = lp.LpProblem(
        sense="max",
        objective=(F(1),),
        bounds=((ZERO, None),),
        constraints=(),
    )
    with pytest.raises(CertificateFailed, match="status is unbounded"):
        lp.certified_solve(problem)


def test_campaign_records_a_failed_certificate(monkeypatch):
    monkeypatch.setattr(lp, "certify_report", lambda problem, solution: ["forged"])
    report = verify.two_action_arbitrary_campaign(3)
    assert report.runs == 3
    assert [seed for seed, _ in report.failures] == [1, 2, 3]
    for _, message in report.failures:
        assert message.startswith("CertificateFailed: ")
        assert "forged" in message


_UNDER_O = textwrap.dedent(
    """
    from dataclasses import replace
    from persuade import lp, model, multi, single
    from persuade.errors import PersuadeError
    from persuade.model import PaymentModel

    assert False, "asserts are stripped under -O"
    honest = lp.solve

    def nudged(problem, max_iter=None):
        solution = honest(problem, max_iter)
        return replace(solution, objective=solution.objective + 1)

    lp.solve = nudged
    # A lifted dual that fails sends the fast path to the nudged solve.
    lift = single.lift

    def failing_lift(*args):
        problem, claim = lift(*args)
        return problem, replace(claim, dual=None)

    single.lift = failing_lift
    # A budget-balanced reconstruction moved off receiver 0's follow row,
    # checked against the honest LP's dual.
    normalize = multi._normalize_dead_branches

    def off_the_rows(*args):
        q_one, q_zero = normalize(*args)
        return (q_one[0] - 1000,) + q_one[1:], (q_zero[0] + 1000,) + q_zero[1:]

    def budget(inst):
        lp.solve = honest
        multi._normalize_dead_branches = off_the_rows
        return multi.solve_budget_balanced(inst)

    single_inst = model.random_instance(2, actions=3, states=3)
    multi_inst = model.random_multi_instance(2, receivers=2, states=3)
    typed = model.random_instance(2, actions=3, symmetric=True, types=2)
    for name, call in (
        ("single", lambda: single.solve_optimal(single_inst, PaymentModel.ZERO)),
        ("multi", lambda: multi.solve_lp(multi_inst, PaymentModel.ZERO)),
        ("fast", lambda: single.canonical_symmetric_scheme(typed)),
        ("budget", lambda: budget(multi_inst)),
    ):
        try:
            call()
        except PersuadeError as exc:
            print(name, "raised", type(exc).__name__)
        else:
            print(name, "returned a tampered answer")
    """
)


def test_certificate_survives_python_O():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-O", "-c", _UNDER_O],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n")[:4] == [
        "single raised CertificateFailed",
        "multi raised CertificateFailed",
        "fast raised CertificateFailed",
        "budget raised CharacterizationMismatch",
    ]


def test_package_has_no_assert_statements():
    package = os.path.join(SRC, "persuade")
    found = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(package, name)
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), filename=path)
        found += [
            f"{name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []
