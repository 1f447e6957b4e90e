"""Reduced zero-payment program, repair procedure, cutting-plane solver."""

import random
from fractions import Fraction as F

import pytest

from persuade import lp, model, multi, reduction
from persuade.errors import (
    CharacterizationMismatch,
    NonMonotoneSender,
    OracleUnsound,
    PositiveExternalityViolated,
    SizeLimitExceeded,
)
from persuade.model import MultiAgentInstance, MultiAgentScheme, MultiState

ZERO_F = F(0)


def make_instance(receivers, sender_tables, receiver_tables, probs=None):
    n_states = len(sender_tables)
    if probs is None:
        probs = [F(1, n_states)] * n_states
    states = tuple(
        MultiState(
            prob=probs[t],
            sender=tuple(F(v) for v in sender_tables[t]),
            receivers=tuple(
                tuple(F(v) for v in table) for table in receiver_tables[t]
            ),
        )
        for t in range(n_states)
    )
    return MultiAgentInstance(receivers=receivers, states=states)


def seeded(seed, receivers, states):
    return model.random_multi_instance(
        seed,
        receivers=receivers,
        states=states,
        positive_externalities=True,
        monotone_sender=True,
    )


def zero_payment_scheme(instance, distribution):
    zeros = (ZERO_F,) * instance.receivers
    return MultiAgentScheme(
        distribution=tuple(tuple(row) for row in distribution),
        q_one=zeros,
        q_zero=zeros,
    )


# ---------------------------------------------------------------------------
# Structural checks


def test_additive_utilities_have_positive_externalities():
    # u_i(S) = sum of fixed weights over S: marginals are constant.
    weights = [F(2), F(-1), F(3)]
    table = [
        sum((weights[j] for j in range(3) if mask >> j & 1), ZERO_F)
        for mask in range(8)
    ]
    inst = make_instance(3, [[0] * 8], [[table, table, table]])
    ok, witness = reduction.check_positive_externalities(inst)
    assert ok and witness is None


def test_cardinality_utilities_have_positive_externalities():
    # u_i(S) = |S| when i plays 1, else 0: the switching gain |S| grows
    # as others join.
    tables = []
    for i in range(3):
        tables.append(
            [bin(mask).count("1") if mask >> i & 1 else 0 for mask in range(8)]
        )
    inst = make_instance(3, [[0] * 8], [tables])
    ok, witness = reduction.check_positive_externalities(inst)
    assert ok and witness is None


def test_positive_externality_violation_reports_first_witness():
    # Receiver 0 gains 2 alone but only 1 once receiver 1 plays 1.
    u0 = [0, 2, 0, 1]
    u1 = [0, 0, 1, 1]
    inst = make_instance(2, [[0, 0, 0, 0]], [[u0, u1]])
    ok, witness = reduction.check_positive_externalities(inst)
    assert not ok
    assert witness == (0, 3, 0, 1)


def test_monotone_sender_check_reports_first_witness():
    inst = make_instance(2, [[0, 1, 0, 0]], [[[0, 1, 0, 1], [0, 0, 1, 1]]])
    ok, witness = reduction.check_monotone_sender(inst)
    assert not ok
    assert witness == (0, 1, 1)
    good = make_instance(2, [[0, 1, 0, 2]], [[[0, 1, 0, 1], [0, 0, 1, 1]]])
    assert reduction.check_monotone_sender(good) == (True, None)


def test_reduced_lp_refuses_unqualified_instances():
    bad_ext = make_instance(
        2, [[0, 0, 0, 1]], [[[0, 2, 0, 1], [0, 0, 1, 1]]]
    )
    with pytest.raises(PositiveExternalityViolated):
        reduction.build_lp_dropped(bad_ext)
    bad_sender = make_instance(
        2, [[1, 0, 0, 0]], [[[0, 1, 0, 1], [0, 0, 1, 1]]]
    )
    with pytest.raises(NonMonotoneSender):
        reduction.build_lp_dropped(bad_sender)


# ---------------------------------------------------------------------------
# Reduced program vs full program


def test_reduced_lp_drops_exactly_the_keep_playing_zero_rows():
    inst = seeded(4, 2, 2)
    full = multi.build_lp_binary(inst, model.PaymentModel.ZERO)
    dropped = reduction.build_lp_dropped(inst)
    assert len(dropped.constraints) == len(full.constraints) - inst.receivers
    assert [c.name for c in dropped.constraints] == [
        "follow1[0]",
        "follow1[1]",
        "dist[0]",
        "dist[1]",
    ]
    assert dropped.objective == full.objective
    # State 1's distribution row, the fourth, covers columns 1 * 4 + S.
    assert [k for k, _ in dropped.constraints[3].coeffs] == [4, 5, 6, 7]


def test_reduced_optimum_equals_full_optimum_on_random_instances():
    for seed in range(1, 11):
        inst = seeded(seed, 2 + seed % 2, 2 + seed % 3)
        dropped = reduction.solve_dropped(inst)
        full = multi.solve_lp(inst, model.PaymentModel.ZERO)
        assert dropped.utility == full.utility, seed


def test_single_receiver_with_harmless_switch_recommends_one():
    # One receiver who never loses by playing 1 and a sender who always
    # prefers it: both programs put all mass on the singleton set.
    inst = make_instance(
        1,
        [[0, 1], [0, 1]],
        [[[0, 1]], [[0, 2]]],
        probs=[F(1, 2), F(1, 2)],
    )
    dropped = reduction.solve_dropped(inst)
    full = multi.solve_lp(inst, model.PaymentModel.ZERO)
    assert dropped.utility == full.utility == F(1)
    assert dropped.scheme.distribution == ((ZERO_F, F(1)), (ZERO_F, F(1)))
    assert full.scheme.distribution == dropped.scheme.distribution


# ---------------------------------------------------------------------------
# Repair


def test_repair_returns_already_feasible_scheme_unchanged():
    inst = seeded(2, 2, 2)
    scheme = multi.solve_lp(inst, model.PaymentModel.ZERO).scheme
    assert multi.is_persuasive(inst, scheme)
    assert reduction.repair_scheme(inst, scheme) is scheme


def test_repair_fixes_reduced_solutions_without_changing_value():
    repaired_any = False
    for seed in range(1, 21):
        inst = seeded(seed, 2 + seed % 2, 2 + seed % 2)
        dropped = reduction.solve_dropped(inst)
        before = multi.sender_value(inst, dropped.scheme)
        fixed = reduction.repair_scheme(inst, dropped.scheme)
        assert multi.is_persuasive(inst, fixed), seed
        after = multi.sender_value(inst, fixed)
        assert after >= before, seed
        assert after == multi.solve_lp(inst, model.PaymentModel.ZERO).utility
        if not multi.is_persuasive(inst, dropped.scheme):
            repaired_any = True
            assert fixed is not dropped.scheme
    # The seed range must actually exercise the mass-moving loop.
    assert repaired_any


def test_repair_rejects_payment_carrying_schemes():
    inst = seeded(2, 2, 2)
    dist = multi.solve_lp(inst, model.PaymentModel.ZERO).scheme.distribution
    paying = MultiAgentScheme(
        distribution=dist, q_one=(F(1), ZERO_F), q_zero=(ZERO_F, ZERO_F)
    )
    with pytest.raises(ValueError):
        reduction.repair_scheme(inst, paying)


def lattice_start():
    # Sender wants both in; receiver 1 only profits once receiver 0 is
    # in, so all-mass-on-{0} violates receiver 1's keep-playing-0 row
    # and must migrate to the full set.
    inst = make_instance(
        2,
        [[0, 1, 1, 2]],
        [[[0, 1, 0, 1], [0, 0, -1, 1]]],
    )
    return inst, zero_payment_scheme(inst, [(ZERO_F, F(1), ZERO_F, ZERO_F)])


def test_repair_moves_mass_up_the_lattice():
    inst, start = lattice_start()
    assert not multi.is_persuasive(inst, start)
    fixed = reduction.repair_scheme(inst, start)
    assert fixed.distribution == ((ZERO_F, ZERO_F, ZERO_F, F(1)),)
    assert multi.is_persuasive(inst, fixed)
    assert multi.sender_value(inst, fixed) == F(2)


def test_repair_without_a_witness_raises_mismatch(monkeypatch):
    # With every marginal read as 0 no set offers the violated receiver a
    # gain, which positive externalities rule out on a true instance.
    inst, start = lattice_start()
    monkeypatch.setattr(reduction, "_marginal", lambda state, i, subset: ZERO_F)
    with pytest.raises(CharacterizationMismatch, match="positive-gain witness"):
        reduction.repair_scheme(inst, start)


def test_repair_beyond_its_move_bound_raises_mismatch(monkeypatch):
    inst, start = lattice_start()
    monkeypatch.setattr(reduction, "_move_bound", lambda receivers, support: 0)
    with pytest.raises(CharacterizationMismatch, match="structural move bound"):
        reduction.repair_scheme(inst, start)


# ---------------------------------------------------------------------------
# Brute-force oracle


def test_oracle_with_zero_weights_maximizes_sender_payoff():
    inst = seeded(5, 3, 2)
    query = reduction.brute_force_oracle(inst)
    for t, state in enumerate(inst.states):
        subset, value = query(t, (ZERO_F,) * 3)
        best = max(state.sender)
        assert value == best
        assert subset == min(s for s in range(8) if state.sender[s] == best)


def test_oracle_matches_double_enumeration_on_random_weights():
    rng = random.Random(99)
    for seed in range(1, 6):
        inst = seeded(seed, 3, 2)
        query = reduction.brute_force_oracle(inst)
        for _ in range(4):
            alpha = tuple(F(rng.randint(0, 6), rng.randint(1, 4)) for _ in range(3))
            for t in range(inst.num_states):
                subset, value = query(t, alpha)
                table = [
                    reduction.oracle_objective(inst, t, alpha, s)
                    for s in range(inst.num_subsets)
                ]
                assert value == max(table)
                assert subset == table.index(max(table))


def test_oracle_argmax_is_scale_invariant():
    inst = seeded(7, 2, 3)
    scaled = MultiAgentInstance(
        receivers=2,
        states=tuple(
            MultiState(
                prob=s.prob,
                sender=tuple(3 * v for v in s.sender),
                receivers=tuple(tuple(3 * v for v in tab) for tab in s.receivers),
            )
            for s in inst.states
        ),
    )
    query = reduction.brute_force_oracle(inst)
    scaled_query = reduction.brute_force_oracle(scaled)
    alpha = (F(1, 2), F(2))
    for t in range(inst.num_states):
        subset, value = query(t, alpha)
        scaled_subset, scaled_value = scaled_query(t, alpha)
        assert scaled_subset == subset
        assert scaled_value == 3 * value


def test_oracle_validates_weights_and_size():
    inst = seeded(1, 2, 2)
    query = reduction.brute_force_oracle(inst)
    with pytest.raises(ValueError):
        query(0, (F(1),))
    with pytest.raises(ValueError):
        query(0, (F(1), F(-1)))
    wide = seeded(1, 3, 2)
    try:
        import os

        os.environ[model.SIZE_LIMIT_ENV] = "4"
        with pytest.raises(SizeLimitExceeded):
            reduction.brute_force_oracle(wide)
    finally:
        os.environ.pop(model.SIZE_LIMIT_ENV, None)


# ---------------------------------------------------------------------------
# Cutting-plane solver


def test_cutting_plane_matches_full_lp_on_random_instances():
    for seed in range(1, 11):
        inst = seeded(seed, 2 + seed % 2, 2 + seed % 3)
        result = reduction.cutting_plane_solve(inst)
        full = multi.solve_lp(inst, model.PaymentModel.ZERO)
        assert result.objective == full.utility, seed
        assert multi.is_persuasive(inst, result.scheme)
        assert multi.total_payments(result.scheme) == 0
        assert len(result.generated) <= inst.num_states * inst.num_subsets
        for row in result.scheme.distribution:
            assert sum(row, ZERO_F) == 1
        assert all(a >= 0 for a in result.alpha)


def test_cutting_plane_seeds_every_state_with_empty_and_full_sets():
    inst = seeded(3, 2, 3)
    result = reduction.cutting_plane_solve(inst)
    produced = set(result.generated)
    for t in range(inst.num_states):
        assert (t, 0) in produced
        assert (t, 3) in produced
    assert result.rounds >= 1
    assert sum(result.y) == result.objective


def test_cutting_plane_accepts_an_explicit_oracle():
    inst = seeded(6, 2, 2)
    result = reduction.cutting_plane_solve(
        inst, reduction.brute_force_oracle(inst)
    )
    assert result.objective == multi.solve_lp(inst, model.PaymentModel.ZERO).utility


def second_best_oracle(inst):
    def query(theta, alpha):
        ranked = sorted(
            range(inst.num_subsets),
            key=lambda s: (reduction.oracle_objective(inst, theta, alpha, s), -s),
            reverse=True,
        )
        runner_up = ranked[1]
        return runner_up, reduction.oracle_objective(inst, theta, alpha, runner_up)

    return query


def test_wrong_set_oracle_is_never_silently_wrong():
    # A runner-up oracle must either be unmasked by the final exhaustive
    # dual check or luck into the true optimum; it may never return a
    # wrong value quietly.  Seed 1 is a deterministic unmasking.
    with pytest.raises(OracleUnsound):
        reduction.cutting_plane_solve(
            seeded(1, 3, 2), second_best_oracle(seeded(1, 3, 2))
        )
    unmasked = 0
    for seed in range(1, 13):
        inst = seeded(seed, 2 + seed % 2, 2)
        full = multi.solve_lp(inst, model.PaymentModel.ZERO)
        try:
            result = reduction.cutting_plane_solve(inst, second_best_oracle(inst))
        except OracleUnsound:
            unmasked += 1
        else:
            assert result.objective == full.utility, seed
    assert unmasked >= 1


def test_wrong_value_oracle_is_rejected_immediately():
    inst = seeded(3, 2, 2)
    honest = reduction.brute_force_oracle(inst)

    def inflated(theta, alpha):
        subset, value = honest(theta, alpha)
        return subset, value + 1

    with pytest.raises(OracleUnsound):
        reduction.cutting_plane_solve(inst, inflated)


def test_cutting_plane_checks_instance_preconditions():
    bad = make_instance(2, [[0, 0, 0, 1]], [[[0, 2, 0, 1], [0, 0, 1, 1]]])
    with pytest.raises(PositiveExternalityViolated):
        reduction.cutting_plane_solve(bad)


@pytest.mark.parametrize("own_oracle", [False, True])
def test_cutting_plane_is_sized_whatever_the_oracle(monkeypatch, own_oracle):
    # 3 receivers: 8 subsets per state, over a limit of 4.  The final
    # check enumerates every (state, subset) row, so a caller's oracle,
    # built under the default limit, does not let the instance past it.
    inst = seeded(1, 3, 2)
    oracle = reduction.brute_force_oracle(inst) if own_oracle else None
    monkeypatch.setenv(model.SIZE_LIMIT_ENV, "4")
    with pytest.raises(SizeLimitExceeded, match="8 subsets"):
        reduction.cutting_plane_solve(inst, oracle)
    monkeypatch.undo()
    assert reduction.cutting_plane_solve(inst, oracle).objective == F(17, 3)
