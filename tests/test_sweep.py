"""The integer fast paths in single.py against a Fraction oracle.

The oracle below is the scalar-lambda sweep, the threshold scheme and
the dichotomy's paid branch as first written: every value a Fraction,
and each sweep candidate checked with the full model.is_persuasive.  The
package computes the same things in ints on the instance's orbits and
tests each candidate by the sign of one sum, the orbit follow row's
activity.  Every returned value must be equal, and every answer must
certify on the full LP with the dual it reports.
"""

import itertools
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from persuade import lp, model, single
from persuade.errors import WrongActionCount
from persuade.model import (
    ActionType,
    PaymentModel,
    PersuasionInstance,
    SignalingScheme,
    State,
    TypedInstance,
)

ZERO = F(0)
ONE = F(1)

# ---------------------------------------------------------------------------
# Fraction oracle


def _uniform_over(indices, n):
    share = F(1, len(indices))
    return tuple(share if i in indices else ZERO for i in range(n))


def oracle_welfare_weighted_scheme(inst, weight):
    n = inst.actions
    rows = []
    for state in inst.states:
        values = [state.sender[i] + weight * state.receiver[i] for i in range(n)]
        best = max(values)
        rows.append(_uniform_over({i for i in range(n) if values[i] == best}, n))
    return tuple(rows)


def oracle_lambda_candidates(inst):
    n = inst.actions
    points = set()
    for state in inst.states:
        for i in range(n):
            for j in range(i + 1, n):
                dr = state.receiver[j] - state.receiver[i]
                if dr:
                    lam = F(state.sender[i] - state.sender[j], n) / dr
                    if lam > 0:
                        points.add(lam)
    grid = [ZERO] + sorted(points)
    out = [grid[0]]
    for prev, cur in zip(grid, grid[1:]):
        out.append((prev + cur) / 2)
        out.append(cur)
    out.append(grid[-1] + 1)
    return tuple(out)


def _tie_break_extremes(inst, weight):
    n = inst.actions
    lo_rows, hi_rows = [], []
    for state in inst.states:
        values = [state.sender[i] + weight * state.receiver[i] for i in range(n)]
        best = max(values)
        winners = [i for i in range(n) if values[i] == best]
        r_lo = min(state.receiver[i] for i in winners)
        r_hi = max(state.receiver[i] for i in winners)
        lo_rows.append(
            _uniform_over({i for i in winners if state.receiver[i] == r_lo}, n)
        )
        hi_rows.append(
            _uniform_over({i for i in winners if state.receiver[i] == r_hi}, n)
        )
    return tuple(lo_rows), tuple(hi_rows)


def _follow_total(inst, rows):
    total = ZERO
    for state, row in zip(inst.states, rows):
        for i, p in enumerate(row):
            if p:
                total += state.prob * p * state.receiver[i]
    return total


def oracle_find_lambda_star(inst):
    """(lambda*, scheme, utility, candidates) of the Fraction sweep."""
    n = inst.actions
    zeros = (ZERO,) * n
    unconditional = sum((s.prob * s.receiver[0] for s in inst.states), ZERO)
    candidates = oracle_lambda_candidates(inst)
    for lam in candidates:
        lo_rows, hi_rows = _tie_break_extremes(inst, n * lam)
        hi_scheme = SignalingScheme(distribution=hi_rows, payments=zeros)
        if model.is_persuasive(inst, hi_scheme):
            break
    else:
        raise AssertionError("no candidate lambda is persuasive")
    follow_lo = _follow_total(inst, lo_rows)
    follow_hi = _follow_total(inst, hi_rows)
    target = max(unconditional, follow_lo)
    if follow_hi == follow_lo:
        best = hi_scheme
    else:
        t = (target - follow_lo) / (follow_hi - follow_lo)
        blended = tuple(
            tuple((ONE - t) * lo + t * hi for lo, hi in zip(lo_row, hi_row))
            for lo_row, hi_row in zip(lo_rows, hi_rows)
        )
        best = SignalingScheme(distribution=blended, payments=zeros)
    assert model.is_persuasive(inst, best)
    utility = model.sender_utility(inst, best)
    uniform = SignalingScheme(
        distribution=oracle_welfare_weighted_scheme(inst, n * lam), payments=zeros
    )
    if model.is_persuasive(inst, uniform):
        uniform_utility = model.sender_utility(inst, uniform)
        if uniform_utility >= utility:
            best, utility = uniform, uniform_utility
    return lam, best, utility, candidates


def oracle_threshold_scheme(inst, weight):
    distribution = oracle_welfare_weighted_scheme(inst, weight)
    payments = model.payment_thresholds(inst, distribution)
    scheme = SignalingScheme(distribution=distribution, payments=payments)
    return scheme, model.sender_utility(inst, scheme)


def oracle_dichotomy(inst):
    """(branch, scheme, utility, no-payment utility, paid utility)."""
    n = inst.actions
    _, sweep_scheme, sweep_utility, _ = oracle_find_lambda_star(inst)
    canonical = oracle_welfare_weighted_scheme(inst, F(n, n - 1))
    thresholds = model.payment_thresholds(inst, canonical)
    clipped = tuple(max(ZERO, t) for t in thresholds)
    paid = SignalingScheme(distribution=canonical, payments=clipped)
    paid_utility = model.sender_utility(inst, paid)
    if sweep_utility >= paid_utility:
        return "no_payment", sweep_scheme, sweep_utility, sweep_utility, paid_utility
    return "canonical_payment", paid, paid_utility, sweep_utility, paid_utility


# ---------------------------------------------------------------------------
# Instances

# Few distinct payoffs, so actions tie within states and the argmax sets
# change at shared breakpoints.
_payoff = st.sampled_from([F(-1), F(0), F(1, 2), F(1), F(2)])


@st.composite
def _typed(draw):
    actions = draw(st.integers(1, 4))
    k = draw(st.integers(1, 3))
    types = tuple(
        ActionType(sender=draw(_payoff), receiver=draw(_payoff)) for _ in range(k)
    )
    # Weight 0 makes zero-mass types (iid) or zero-mass orbits (joint).
    weights = draw(st.lists(st.integers(0, 3), min_size=k, max_size=k))
    if draw(st.booleans()):
        if not any(weights):
            weights[0] = 1
        total = sum(weights)
        return TypedInstance(
            actions=actions,
            types=types,
            iid_marginal=tuple(F(w, total) for w in weights),
        )
    profiles = list(itertools.product(range(k), repeat=actions))
    orbit = {}
    for profile in profiles:
        key = tuple(sorted(profile))
        if key not in orbit:
            orbit[key] = draw(st.integers(0, 3))
    if not any(orbit.values()):
        orbit[next(iter(orbit))] = 1
    keep_empty = draw(st.booleans())
    rows = [(p, orbit[tuple(sorted(p))]) for p in profiles]
    rows = [(p, w) for p, w in rows if w or keep_empty]
    total = sum(w for _, w in rows)
    return TypedInstance(
        actions=actions,
        types=types,
        joint=tuple((p, F(w, total)) for p, w in rows),
    )


@st.composite
def _split(draw, typed):
    """The expansion with some states split into duplicates of unequal mass."""
    states = []
    for state in model.expand_typed(typed).states:
        if draw(st.booleans()):
            part = state.prob * F(draw(st.integers(1, 3)), 4)
            states.append(State(part, state.sender, state.receiver))
            states.append(State(state.prob - part, state.sender, state.receiver))
        else:
            states.append(state)
    return PersuasionInstance(actions=typed.actions, states=tuple(states))


_symmetric = st.one_of(_typed(), _typed().flatmap(_split))


def _all_fractions(scheme):
    values = [v for row in scheme.distribution for v in row]
    return all(type(v) is F for v in values + list(scheme.payments))


# ---------------------------------------------------------------------------
# Tests


def _lifts(inst, payment_model, result):
    """Whether a fast answer, with the dual it reports, certifies on
    build_lp's LP (single.lift): a check of the orbit route's writer and
    of the orbit LP, whose certificate the fast paths rely on."""
    scheme, utility, dual = result.scheme, result.utility, result.dual
    problem, claim = single.lift(inst, payment_model, scheme, utility, dual)
    return lp.certify_report(problem, claim) == []


@settings(max_examples=250, deadline=None, derandomize=True)
@given(_symmetric)
def test_fast_paths_match_the_fraction_oracle(instance):
    inst = single._as_instance(instance)
    n = inst.actions
    assert model.is_symmetric(instance)

    sweep = single.find_lambda_star(instance)
    lam, scheme, utility, candidates = oracle_find_lambda_star(inst)
    assert sweep.lambda_star == lam
    assert sweep.candidates == candidates
    assert sweep.scheme == scheme
    assert sweep.utility == utility
    assert _all_fractions(sweep.scheme)
    assert _lifts(inst, PaymentModel.ZERO, sweep)
    assert single._candidates(inst.coding.orbits[1]) == candidates
    for weight in (ZERO, n * lam, F(n, max(n - 1, 1)), F(7, 3)):
        assert single.welfare_weighted_scheme(
            inst, weight
        ) == oracle_welfare_weighted_scheme(inst, weight)

    if n < 2:
        with pytest.raises(WrongActionCount):
            single.canonical_symmetric_scheme(instance, verify=False)
        with pytest.raises(WrongActionCount):
            single.nonnegative_dichotomy(instance, verify=False)
        return

    canonical = single.canonical_symmetric_scheme(instance)
    scheme, utility = oracle_threshold_scheme(inst, F(n, n - 1))
    assert canonical.scheme == scheme
    assert canonical.utility == utility
    assert _all_fractions(canonical.scheme)
    assert _lifts(inst, PaymentModel.ARBITRARY, canonical)
    if n == 2:
        two = single.canonical_two_action_scheme(instance)
        assert (two.scheme, two.utility) == oracle_threshold_scheme(inst, F(2))
        assert _lifts(inst, PaymentModel.ARBITRARY, two)

    outcome = single.nonnegative_dichotomy(instance)
    branch, scheme, utility, free, paid = oracle_dichotomy(inst)
    assert outcome.branch == branch
    assert outcome.result.scheme == scheme
    assert outcome.result.utility == utility
    assert outcome.lambda_star == lam
    assert outcome.no_payment_utility == free
    assert outcome.canonical_utility == paid
    assert _all_fractions(outcome.result.scheme)
    assert _lifts(inst, PaymentModel.NONNEGATIVE, outcome.result)


@st.composite
def _two_action(draw):
    m = draw(st.integers(1, 4))
    weights = draw(st.lists(st.integers(0, 3), min_size=m, max_size=m))
    if not any(weights):
        weights[0] = 1
    total = sum(weights)
    return PersuasionInstance(
        actions=2,
        states=tuple(
            State(
                F(w, total),
                (draw(_payoff), draw(_payoff)),
                (draw(_payoff), draw(_payoff)),
            )
            for w in weights
        ),
    )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_two_action())
def test_two_action_scheme_matches_the_fraction_oracle_on_any_prior(inst):
    result = single.canonical_two_action_scheme(inst, verify=False)
    assert (result.scheme, result.utility) == oracle_threshold_scheme(inst, F(2))
    assert _all_fractions(result.scheme)
