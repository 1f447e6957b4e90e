"""The integer multi-receiver path in multi.py against a Fraction oracle.

The oracle below is the multi-receiver LP build, the virtual-payoff
argmax, the gamma grid, the scheme evaluations and the budget-balanced
reconstruction as first written: every value a Fraction, and the pull of
each set recomputed for every gamma.  The package computes the same
things in ints on one coding of the instance, and its gamma sweep tries
each distinct allocation once.  Every returned value must be equal.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persuade import examples, lp, model, multi
from persuade.errors import CharacterizationMismatch
from persuade.model import (
    MultiAgentInstance,
    MultiAgentScheme,
    MultiState,
    PaymentModel,
)

from test_lp import fraction_view

ZERO = F(0)
ONE = F(1)

# ---------------------------------------------------------------------------
# Fraction oracle


def _marginal(state, i, subset):
    if not (subset >> i) & 1:
        return ZERO
    return state.receivers[i][subset] - state.receivers[i][subset & ~(1 << i)]


def _pull(state, receivers, subset):
    total = ZERO
    for i in range(receivers):
        if (subset >> i) & 1:
            total += _marginal(state, i, subset)
        else:
            total -= _marginal(state, i, subset | (1 << i))
    return total


def oracle_virtual_payoff(inst, theta, subset, gamma):
    state = inst.states[theta]
    return state.sender[subset] + gamma * _pull(state, inst.receivers, subset)


def oracle_argmax(inst, theta, gamma):
    best_subset, best = 0, None
    for subset in range(inst.num_subsets):
        value = oracle_virtual_payoff(inst, theta, subset, gamma)
        if best is None or value > best:
            best, best_subset = value, subset
    return best_subset


def oracle_incentive_totals(inst, distribution):
    n = inst.receivers
    follow_one, switch_zero = [ZERO] * n, [ZERO] * n
    for state, row in zip(inst.states, distribution):
        for subset, p in enumerate(row):
            if not p:
                continue
            weight = state.prob * p
            for i in range(n):
                if (subset >> i) & 1:
                    follow_one[i] += weight * _marginal(state, i, subset)
                else:
                    switch_zero[i] += weight * _marginal(state, i, subset | (1 << i))
    return tuple(follow_one), tuple(switch_zero)


def oracle_is_persuasive(inst, scheme):
    follow_one, switch_zero = oracle_incentive_totals(inst, scheme.distribution)
    return all(
        follow_one[i] + scheme.q_one[i] >= 0 and switch_zero[i] - scheme.q_zero[i] <= 0
        for i in range(inst.receivers)
    )


def oracle_sender_value(inst, scheme):
    total = ZERO
    for state, row in zip(inst.states, scheme.distribution):
        for subset, p in enumerate(row):
            if p:
                total += state.prob * p * state.sender[subset]
    return total - sum(scheme.q_one, ZERO) - sum(scheme.q_zero, ZERO)


def oracle_build_lp_binary(inst, payment_model):
    nsub, m, n = inst.num_subsets, inst.num_states, inst.receivers
    with_pay = payment_model is not PaymentModel.ZERO
    cols = nsub * m

    # Column t * 2^N + S for set S in state t, then Q_i(1), then Q_i(0).
    def phi(t, subset):
        return t * nsub + subset

    def q_one(i):
        return cols + i

    def q_zero(i):
        return cols + n + i

    objective = [ZERO] * (cols + (2 * n if with_pay else 0))
    for t, state in enumerate(inst.states):
        for subset in range(nsub):
            objective[phi(t, subset)] = state.prob * state.sender[subset]
    free = [False] * cols
    if with_pay:
        for i in range(n):
            objective[q_one(i)] = objective[q_zero(i)] = -ONE
        free += [payment_model is not PaymentModel.NONNEGATIVE] * (2 * n)
    constraints = []
    for i in range(n):
        coeffs = []
        for t, state in enumerate(inst.states):
            for subset in range(nsub):
                if (subset >> i) & 1:
                    g = state.prob * _marginal(state, i, subset)
                    if g:
                        coeffs.append((phi(t, subset), g))
        if with_pay:
            coeffs.append((q_one(i), ONE))
        constraints.append(
            lp.LinearConstraint(tuple(coeffs), lp.GE, ZERO, f"follow1[{i}]")
        )
    for i in range(n):
        coeffs = []
        for t, state in enumerate(inst.states):
            for subset in range(nsub):
                if not (subset >> i) & 1:
                    g = state.prob * _marginal(state, i, subset | (1 << i))
                    if g:
                        coeffs.append((phi(t, subset), g))
        if with_pay:
            coeffs.append((q_zero(i), -ONE))
        constraints.append(
            lp.LinearConstraint(tuple(coeffs), lp.LE, ZERO, f"follow0[{i}]")
        )
    for t in range(m):
        coeffs = tuple((phi(t, subset), ONE) for subset in range(nsub))
        constraints.append(lp.LinearConstraint(coeffs, lp.EQ, ONE, f"dist[{t}]"))
    if payment_model is PaymentModel.BUDGET_BALANCED:
        coeffs = tuple((q_one(i), ONE) for i in range(n)) + tuple(
            (q_zero(i), ONE) for i in range(n)
        )
        constraints.append(lp.LinearConstraint(coeffs, lp.EQ, ZERO, "budget"))
    return tuple(objective), tuple(free), tuple(constraints)


def oracle_gamma_candidates(inst):
    nsub = inst.num_subsets
    points = set()
    for state in inst.states:
        pulls = [_pull(state, inst.receivers, subset) for subset in range(nsub)]
        for a in range(nsub):
            for b in range(a + 1, nsub):
                dpull = pulls[b] - pulls[a]
                if dpull:
                    gamma = (state.sender[a] - state.sender[b]) / dpull
                    if gamma > 0:
                        points.add(gamma)
    grid = [ZERO] + sorted(points)
    out = [grid[0]]
    for prev, cur in zip(grid, grid[1:]):
        out.append((prev + cur) / 2)
        out.append(cur)
    out.append(grid[-1] + 1)
    return tuple(out)


def _allocation_rows(inst, alloc):
    return tuple(
        tuple(ONE if subset == chosen else ZERO for subset in range(inst.num_subsets))
        for chosen in alloc
    )


def oracle_branch_probabilities(inst, distribution):
    x = [ZERO] * inst.receivers
    for state, row in zip(inst.states, distribution):
        for subset, p in enumerate(row):
            for i in range(inst.receivers):
                if p and (subset >> i) & 1:
                    x[i] += state.prob * p
    return tuple(x)


def _normalize_dead_branches(inst, distribution, q_one, q_zero):
    q_one, q_zero = list(q_one), list(q_zero)
    x = oracle_branch_probabilities(inst, distribution)
    extra = ZERO
    for i in range(inst.receivers):
        if x[i] == 0 and q_one[i]:
            extra, q_one[i] = extra + q_one[i], ZERO
        if x[i] == 1 and q_zero[i]:
            extra, q_zero[i] = extra + q_zero[i], ZERO
    if extra:
        for i in range(inst.receivers):
            if x[i] > 0:
                q_one[i] += extra
                break
        else:
            q_zero[0] += extra
    return tuple(q_one), tuple(q_zero)


def oracle_fixed_allocation_bb(inst, alloc, target):
    value = sum(
        (state.prob * state.sender[s] for state, s in zip(inst.states, alloc)), ZERO
    )
    if value != target:
        return None
    distribution = _allocation_rows(inst, alloc)
    follow_one, switch_zero = oracle_incentive_totals(inst, distribution)
    q_one = [-v for v in follow_one]
    q_zero = list(switch_zero)
    surplus = -(sum(q_one, ZERO) + sum(q_zero, ZERO))
    if surplus < 0:
        return None
    q_one[0] += surplus
    q_one, q_zero = _normalize_dead_branches(inst, distribution, q_one, q_zero)
    return MultiAgentScheme(distribution=distribution, q_one=q_one, q_zero=q_zero)


def oracle_solve_budget_balanced(inst):
    """(scheme, via, gamma_star) of the Fraction reconstruction."""
    ref = multi.solve_lp(inst, PaymentModel.BUDGET_BALANCED)
    gamma_star, target = ref.dual.gamma, ref.utility
    m = inst.num_states
    alloc = tuple(oracle_argmax(inst, t, gamma_star) for t in range(m))
    scheme = oracle_fixed_allocation_bb(inst, alloc, target)
    if scheme is not None:
        return scheme, "argmax", gamma_star
    for gamma in oracle_gamma_candidates(inst):
        alloc = tuple(oracle_argmax(inst, t, gamma) for t in range(m))
        scheme = oracle_fixed_allocation_bb(inst, alloc, target)
        if scheme is not None:
            return scheme, "gamma_sweep", gamma
    distribution = ref.scheme.distribution
    for theta, row in enumerate(distribution):
        if not inst.states[theta].prob:
            continue  # the LP leaves a zero-mass state's row arbitrary
        values = [
            oracle_virtual_payoff(inst, theta, subset, gamma_star)
            for subset in range(inst.num_subsets)
        ]
        if any(p and v != max(values) for p, v in zip(row, values)):
            return None, None, None
    q_one, q_zero = _normalize_dead_branches(
        inst, distribution, ref.scheme.q_one, ref.scheme.q_zero
    )
    scheme = MultiAgentScheme(distribution=distribution, q_one=q_one, q_zero=q_zero)
    return scheme, "lp_support", gamma_star


# ---------------------------------------------------------------------------
# Instances: payoffs from a small set, so that argmax ties and gamma
# crossings coincide, and zero-mass states.

_payoff = st.sampled_from([F(-1), ZERO, F(1, 2), ONE, F(2)])
_weight = st.integers(0, 3)
_shares = st.sampled_from([ZERO, ZERO, F(1, 3), F(1, 2), ONE, F(2)])


@st.composite
def _instance(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 6))
    nsub = 1 << n
    weights = draw(st.lists(_weight, min_size=m, max_size=m).filter(any))
    total = sum(weights)

    def table():
        return tuple(draw(st.lists(_payoff, min_size=nsub, max_size=nsub)))

    states = tuple(
        MultiState(
            prob=F(w, total),
            sender=table(),
            receivers=tuple(table() for _ in range(n)),
        )
        for w in weights
    )
    return MultiAgentInstance(receivers=n, states=states)


@st.composite
def _instance_and_scheme(draw):
    inst = draw(_instance())
    rows = []
    for _ in range(inst.num_states):
        shares = draw(
            st.lists(_shares, min_size=inst.num_subsets, max_size=inst.num_subsets)
        )
        total = sum(shares, ZERO)
        rows.append(
            tuple(s / total for s in shares)
            if total
            else _allocation_rows(inst, [0])[0]
        )
    n = inst.receivers
    q_one = tuple(draw(st.lists(_payoff, min_size=n, max_size=n)))
    q_zero = tuple(draw(st.lists(_payoff, min_size=n, max_size=n)))
    return inst, MultiAgentScheme(distribution=tuple(rows), q_one=q_one, q_zero=q_zero)


CAMPAIGN = settings(max_examples=150, deadline=None, derandomize=True)


# ---------------------------------------------------------------------------
# Tests


@CAMPAIGN
@given(_instance())
def test_lp_matches_oracle(inst):
    for pm in PaymentModel:
        problem = multi.build_lp_binary(inst, pm)
        assert repr(fraction_view(problem)) == repr(oracle_build_lp_binary(inst, pm))


@CAMPAIGN
@given(_instance())
def test_grid_and_allocations_match_oracle(inst):
    code = inst.coding
    grid = multi._gamma_grid(code)
    assert grid == oracle_gamma_candidates(inst)
    # gamma = 1 is the arbitrary-payment weight; 1/3 and 0 lie on most
    # grids, so the small payoff set makes them land on ties.
    for gamma in grid + (ONE, F(1, 3), F(-1, 2)):
        assert multi._argmax(code, gamma) == tuple(
            oracle_argmax(inst, theta, gamma) for theta in range(inst.num_states)
        )
    # The virtual payoffs at 2/3, ints over 3 * D.
    for theta, values in enumerate(multi._virtual_values(code, F(2, 3))):
        for subset, value in enumerate(values):
            assert F(value, 3 * code.payoff_den) == oracle_virtual_payoff(
                inst, theta, subset, F(2, 3)
            )


@CAMPAIGN
@given(_instance_and_scheme())
def test_scheme_evaluations_match_oracle(case):
    inst, scheme = case
    distribution = scheme.distribution
    assert multi.incentive_totals(inst, distribution) == oracle_incentive_totals(
        inst, distribution
    )
    assert multi.sender_value(inst, scheme) == oracle_sender_value(inst, scheme)
    assert multi.is_persuasive(inst, scheme) == oracle_is_persuasive(inst, scheme)


@CAMPAIGN
@given(_instance())
def test_fast_paths_match_oracle(inst):
    scheme, via, gamma_star = oracle_solve_budget_balanced(inst)
    if via is None:
        with pytest.raises(CharacterizationMismatch):
            multi.solve_budget_balanced(inst)
        return
    result = multi.solve_budget_balanced(inst)
    assert (result.scheme, result.via, result.gamma_star) == (scheme, via, gamma_star)
    assert result.utility == oracle_sender_value(inst, scheme)
    assert multi.recover_payments(inst, scheme).x_star == oracle_branch_probabilities(
        inst, scheme.distribution
    )

    alloc = [oracle_argmax(inst, t, ONE) for t in range(inst.num_states)]
    distribution = _allocation_rows(inst, alloc)
    follow_one, switch_zero = oracle_incentive_totals(inst, distribution)
    paid = MultiAgentScheme(
        distribution=distribution,
        q_one=tuple(-v for v in follow_one),
        q_zero=switch_zero,
    )
    arbitrary = multi.solve_arbitrary(inst)
    assert arbitrary.scheme == paid
    assert arbitrary.utility == oracle_sender_value(inst, paid)


def _sweep_instances():
    yield examples.zero_sum_single_receiver_multi()
    for seed in range(40):
        yield model.random_multi_instance(
            seed, receivers=2 + seed % 2, states=2 + seed % 4
        )


def test_sweep_tries_each_allocation_once(monkeypatch):
    real = multi._fixed_allocation_bb
    tried = []

    def spy(instance, code, alloc, target):
        tried.append(alloc)
        return real(instance, code, alloc, target)

    monkeypatch.setattr(multi, "_fixed_allocation_bb", spy)
    swept = repeated = 0
    for inst in _sweep_instances():
        tried.clear()
        result = multi.solve_budget_balanced(inst)
        assert len(tried) == len(set(tried))
        if result.via == "argmax":
            assert len(tried) == 1
            continue
        swept += 1
        grid_allocs = [
            tuple(oracle_argmax(inst, t, g) for t in range(inst.num_states))
            for g in oracle_gamma_candidates(inst)
        ]
        if len(set(grid_allocs)) < len(grid_allocs):
            repeated += 1
        if result.via == "lp_support":
            # Every distinct allocation of the grid, and the one at gamma*.
            assert set(grid_allocs) <= set(tried)
    # The sweep ran, on grids where several gammas share an allocation.
    assert swept and repeated


@pytest.mark.parametrize("pm", list(PaymentModel), ids=lambda pm: pm.value)
def test_lp_of_the_zero_sum_fixture_matches_oracle(pm):
    inst = examples.zero_sum_single_receiver_multi()
    problem = multi.build_lp_binary(inst, pm)
    assert repr(fraction_view(problem)) == repr(oracle_build_lp_binary(inst, pm))
