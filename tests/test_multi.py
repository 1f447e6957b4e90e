"""Multi-receiver solver tests: subset LP, virtual-payoff fast paths."""

from fractions import Fraction as F

import pytest

from persuade import examples, lp, model, multi, single
from persuade.errors import InconsistentPayments, SizeLimitExceeded
from persuade.model import (
    MultiAgentInstance,
    MultiAgentScheme,
    MultiState,
    PaymentModel,
    PersuasionInstance,
)

ZS_MULTI = examples.zero_sum_single_receiver_multi()

# One receiver, four states, the third of mass 0.  No deterministic
# allocation attains the budget-balanced optimum, and the LP leaves the
# third state's row at (1, 0), outside that state's virtual-payoff argmax.
_THIRD = F(1, 3)
ZERO_MASS_MULTI = MultiAgentInstance(
    receivers=1,
    states=(
        MultiState(prob=_THIRD, sender=(F(0), F(1, 2)), receivers=((F(-1), F(-1)),)),
        MultiState(prob=_THIRD, sender=(F(1, 2), F(1)), receivers=((F(2), F(-1)),)),
        MultiState(prob=F(0), sender=(F(1, 2), F(1)), receivers=((F(1, 2), F(2)),)),
        MultiState(prob=_THIRD, sender=(F(0), F(2)), receivers=((F(1), F(1)),)),
    ),
)

ALL_MODELS = (
    PaymentModel.ZERO,
    PaymentModel.NONNEGATIVE,
    PaymentModel.BUDGET_BALANCED,
    PaymentModel.ARBITRARY,
)


def two_action_as_multi(inst: PersuasionInstance) -> MultiAgentInstance:
    """Recast a two-action single-receiver instance with one binary receiver."""
    assert inst.actions == 2
    return MultiAgentInstance(
        receivers=1,
        states=tuple(
            MultiState(
                prob=s.prob,
                sender=(s.sender[0], s.sender[1]),
                receivers=((s.receiver[0], s.receiver[1]),),
            )
            for s in inst.states
        ),
    )


def test_zero_sum_fixture_all_models():
    values = {pm: multi.solve_lp(ZS_MULTI, pm).utility for pm in ALL_MODELS}
    assert values[PaymentModel.ZERO] == F(1, 2)
    assert values[PaymentModel.NONNEGATIVE] == F(1, 2)
    assert values[PaymentModel.BUDGET_BALANCED] == F(1)
    assert values[PaymentModel.ARBITRARY] == F(3, 2)


def test_zero_sum_budget_balanced_needs_randomized_allocation():
    # The optimum recommends 1 with probability 1/2 in the second state;
    # no deterministic allocation reaches value 1, so the solver must
    # fall back to the LP scheme.
    result = multi.solve_budget_balanced(ZS_MULTI)
    assert result.utility == F(1)
    assert result.via == "lp_support"
    assert result.scheme.distribution[1] == (F(1, 2), F(1, 2))
    assert multi.total_payments(result.scheme) == 0
    assert multi.is_persuasive(ZS_MULTI, result.scheme)


def test_budget_balanced_ignores_a_zero_mass_state():
    # The LP scheme is used, and its arbitrary row for the zero-mass
    # state must not refuse it.
    inst = ZERO_MASS_MULTI
    reference = multi.solve_lp(inst, PaymentModel.BUDGET_BALANCED)
    assert reference.scheme.distribution[2] == (F(1), F(0))
    result = multi.solve_budget_balanced(inst)
    assert result.via == "lp_support"
    assert result.utility == reference.utility
    assert multi.total_payments(result.scheme) == 0
    assert multi.is_persuasive(inst, result.scheme)


def test_zero_sum_arbitrary_charges_on_the_zero_branch():
    result = multi.solve_arbitrary(ZS_MULTI)
    assert result.utility == F(3, 2)
    assert multi.sender_value(ZS_MULTI, result.scheme) == F(3, 2)
    # The sender extracts 1 from the receiver whenever 0 is recommended.
    assert result.scheme.q_zero == (F(-1),)


def test_marginal_zero_outside_the_set():
    inst = model.random_multi_instance(0, receivers=3, states=2)
    for state in inst.states:
        for subset in range(inst.num_subsets):
            for i in range(inst.receivers):
                g = multi._marginal(state, i, subset)
                if (subset >> i) & 1:
                    u = state.receivers[i]
                    assert g == u[subset] - u[subset - (1 << i)]
                else:
                    assert g == 0


def test_marginal_additive_utilities_give_constant_weight():
    weights = (F(2), F(-1, 2))
    state = MultiState(
        prob=F(1),
        sender=(F(0),) * 4,
        receivers=tuple(
            tuple(
                sum((weights[i] for i in range(2) if (S >> i) & 1), F(0))
                for S in range(4)
            )
            for _ in range(2)
        ),
    )
    inst = MultiAgentInstance(receivers=2, states=(state,))
    for subset in range(4):
        for i in range(2):
            expected = weights[i] if (subset >> i) & 1 else F(0)
            assert multi._marginal(inst.states[0], i, subset) == expected


def test_lp_shape_two_receivers_two_states_zero_model():
    inst = model.random_multi_instance(1, receivers=2, states=2)
    problem, vmap = multi.build_lp_binary(inst, PaymentModel.ZERO)
    assert len(problem.objective) == 8
    follow = [c for c in problem.constraints if c.name.startswith("follow")]
    dist = [c for c in problem.constraints if c.name.startswith("dist")]
    assert len(follow) == 4
    assert len(dist) == 2


def test_size_limit_enforced(monkeypatch):
    monkeypatch.setenv(model.SIZE_LIMIT_ENV, "16")
    inst = model.random_multi_instance(2, receivers=2, states=5)
    with pytest.raises(SizeLimitExceeded):
        multi.build_lp_binary(inst, PaymentModel.ZERO)
    monkeypatch.delenv(model.SIZE_LIMIT_ENV)
    multi.build_lp_binary(inst, PaymentModel.ZERO)


def test_virtual_payoff_argmax_at_zero_gamma_is_sender_argmax():
    inst = model.random_multi_instance(3, receivers=2, states=3)
    for theta, state in enumerate(inst.states):
        chosen = multi._argmax(inst.coding, F(0))[theta]
        best = max(state.sender)
        assert state.sender[chosen] == best
        # Ties go to the smallest bitmask.
        assert all(
            state.sender[S] < best for S in range(chosen)
        )


def test_virtual_payoff_argmax_n1_matches_scaled_welfare_rule():
    # With one receiver, {1} wins at gamma=1 exactly when
    # f({1}) + g({1}) >= f(0) - g({1}), i.e. the s + 2r comparison.
    for seed in range(20):
        inst = model.random_multi_instance(seed, receivers=1, states=3)
        for theta, state in enumerate(inst.states):
            g = state.receivers[0][1] - state.receivers[0][0]
            lhs = state.sender[1] + 2 * g
            rhs = state.sender[0]
            chosen = multi._argmax(inst.coding, F(1))[theta]
            if lhs > rhs:
                assert chosen == 1
            elif lhs < rhs:
                assert chosen == 0
            else:
                assert chosen == 0  # smallest bitmask on ties


def test_fast_paths_match_lp_on_random_instances():
    for seed in range(10):
        inst = model.random_multi_instance(
            seed, receivers=2 + seed % 2, states=2 + seed % 3
        )
        bb = multi.solve_budget_balanced(inst)
        assert bb.utility == multi.solve_lp(inst, PaymentModel.BUDGET_BALANCED).utility
        assert multi.total_payments(bb.scheme) == 0
        assert multi.is_persuasive(inst, bb.scheme)
        arb = multi.solve_arbitrary(inst)
        assert arb.utility == multi.solve_lp(inst, PaymentModel.ARBITRARY).utility
        assert multi.is_persuasive(inst, arb.scheme)


def test_payment_model_nesting_on_random_instances():
    for seed in range(8):
        inst = model.random_multi_instance(seed, receivers=2, states=3)
        zero = multi.solve_lp(inst, PaymentModel.ZERO).utility
        bb = multi.solve_lp(inst, PaymentModel.BUDGET_BALANCED).utility
        arb = multi.solve_lp(inst, PaymentModel.ARBITRARY).utility
        nonneg = multi.solve_lp(inst, PaymentModel.NONNEGATIVE).utility
        assert zero <= bb <= arb
        assert zero <= nonneg <= arb


def test_budget_balanced_dual_weights_collapse_to_gamma():
    # Free payment columns force both incentive multipliers of every
    # receiver to equal the budget weight exactly.
    for seed in range(6):
        inst = model.random_multi_instance(seed, receivers=2, states=3)
        res = multi.solve_lp(inst, PaymentModel.BUDGET_BALANCED)
        for i in range(inst.receivers):
            assert res.dual.alpha[i] == res.dual.gamma
            assert res.dual.beta[i] == res.dual.gamma
        arb = multi.solve_lp(inst, PaymentModel.ARBITRARY)
        assert arb.dual.alpha == (F(1),) * inst.receivers
        assert arb.dual.beta == (F(1),) * inst.receivers


def test_single_receiver_consistency_with_two_action_solver():
    for seed in range(6):
        base = model.random_instance(seed, actions=2)
        recast = two_action_as_multi(base)
        for pm in ALL_MODELS:
            assert (
                multi.solve_lp(recast, pm).utility
                == single.solve_optimal(base, pm).utility
            )


def test_recovered_payments_have_matching_expectations():
    for seed in range(6):
        inst = model.random_multi_instance(seed, receivers=2, states=3)
        res = multi.solve_budget_balanced(inst)
        rp = multi.recover_payments(inst, res.scheme)
        for i in range(inst.receivers):
            got = (
                rp.x_star[i] * rp.p_one[i]
                + (1 - rp.x_star[i]) * rp.p_zero[i]
            )
            assert got == res.scheme.q_one[i] + res.scheme.q_zero[i]


def test_recover_payments_rejects_charges_on_dead_branches():
    state = MultiState(prob=F(1), sender=(F(0), F(1)), receivers=((F(0), F(1)),))
    inst = MultiAgentInstance(receivers=1, states=(state,))
    never_one = MultiAgentScheme(
        distribution=((F(1), F(0)),), q_one=(F(1),), q_zero=(F(0),)
    )
    with pytest.raises(InconsistentPayments):
        multi.recover_payments(inst, never_one)
    always_one = MultiAgentScheme(
        distribution=((F(0), F(1)),), q_one=(F(0),), q_zero=(F(1),)
    )
    with pytest.raises(InconsistentPayments):
        multi.recover_payments(inst, always_one)


def test_incentive_totals_hand_computed():
    # One state: u(S) counts 3 for being in with the other receiver, 1 alone.
    u = (F(0), F(1), F(1), F(3))
    state = MultiState(prob=F(1), sender=(F(0),) * 4, receivers=(u, u))
    inst = MultiAgentInstance(receivers=2, states=(state,))
    dist = ((F(0), F(0), F(0), F(1)),)  # always recommend both
    follow_one, switch_zero = multi.incentive_totals(inst, dist)
    assert follow_one == (F(2), F(2))  # u({1,2}) - u(other alone) = 3 - 1
    assert switch_zero == (F(0), F(0))
    dist = ((F(1), F(0), F(0), F(0)),)  # always recommend nobody
    follow_one, switch_zero = multi.incentive_totals(inst, dist)
    assert follow_one == (F(0), F(0))
    assert switch_zero == (F(1), F(1))  # switching alone earns u({i}) = 1


def test_lp_schemes_are_persuasive_and_tampering_breaks_it():
    inst = model.random_multi_instance(4, receivers=2, states=2)
    res = multi.solve_lp(inst, PaymentModel.BUDGET_BALANCED)
    assert multi.is_persuasive(inst, res.scheme)
    follow_one, _ = multi.incentive_totals(inst, res.scheme.distribution)
    broken = MultiAgentScheme(
        distribution=res.scheme.distribution,
        q_one=tuple(-(v + 1) for v in follow_one),
        q_zero=res.scheme.q_zero,
    )
    assert not multi.is_persuasive(inst, broken)


def test_solver_determinism():
    a = multi.solve_budget_balanced(
        model.random_multi_instance(5, receivers=2, states=3)
    )
    b = multi.solve_budget_balanced(
        model.random_multi_instance(5, receivers=2, states=3)
    )
    assert a.scheme == b.scheme
    assert a.utility == b.utility
    assert a.via == b.via
