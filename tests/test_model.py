"""Domain model tests: parsing, validation, scheme arithmetic, generators."""

import collections
import itertools
import math
import operator
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persuade import model
from persuade._record import FrozenInstanceError, replace
from persuade.errors import (
    InconsistentPayments,
    InvalidSetting,
    MalformedRational,
    SizeLimitExceeded,
)
from persuade.model import (
    ActionType,
    PersuasionInstance,
    SignalingScheme,
    State,
    TypedInstance,
)
from persuade.rationals import format_rational, parse_rational


def oracle_slack(inst, scheme):
    """Largest violation of the follow rows: max over i of T[i] - P[i]."""
    thresholds = model.payment_thresholds(inst, scheme.distribution)
    return max(t - p for t, p in zip(thresholds, scheme.payments))


def oracle_receiver_utility(inst, scheme):
    """Expected receiver payoff when recommendations are followed, plus payments."""
    x = model.cross_utility(inst, scheme.distribution)
    followed = sum((x.entry(i, i) for i in range(inst.actions)), F(0))
    return followed + sum(scheme.payments, F(0))


def two_state_instance():
    return PersuasionInstance(
        actions=2,
        states=(
            State(prob=F(1, 2), sender=(F(1), F(0)), receiver=(F(2), F(0))),
            State(prob=F(1, 2), sender=(F(0), F(1)), receiver=(F(0), F(3))),
        ),
    )


def test_parse_rational_forms():
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("-1/16") == F(-1, 16)
    assert parse_rational("0.25") == F(1, 4)
    assert parse_rational(7) == F(7)
    assert format_rational(F(3, 4)) == "3/4"
    assert format_rational(F(-2)) == "-2"


@pytest.mark.parametrize("bad", ["1/0", "abc", 0.25, None, True])
def test_parse_rational_rejects(bad):
    with pytest.raises(MalformedRational):
        parse_rational(bad)


@pytest.mark.parametrize(
    "text", ["1e1000000000", "1e-1000000000", "1" * 4000 + "e4000", "1e4300"]
)
def test_parse_rational_bounds_the_digits_before_building_the_number(text):
    # A bound checked after Fraction("1e1000000000") would never be reached:
    # building 10**exponent alone runs for minutes.
    with pytest.raises(MalformedRational, match="cannot parse rational"):
        parse_rational(text)
    assert format_rational(parse_rational("1e4299")) == "1" + "0" * 4299


def test_validate_catches_everything_at_once():
    inst = PersuasionInstance(
        actions=2,
        states=(
            State(prob=F(-1, 4), sender=(F(1),), receiver=(F(0), F(1))),
            State(prob=F(1, 2), sender=(F(1), F(0)), receiver=(F(0), F(1))),
        ),
    )
    codes = sorted(issue.code for issue in model.validate(inst))
    assert codes == [
        "DimensionMismatch",
        "NegativeProbability",
        "ProbabilityNotNormalized",
    ]


def test_validate_ok():
    assert model.validate(two_state_instance()) == ()


def test_instances_are_immutable():
    inst = two_state_instance()
    with pytest.raises(FrozenInstanceError):
        inst.actions = 3


def test_expand_typed_iid():
    typed = TypedInstance(
        actions=2,
        types=(
            ActionType(sender=F(1), receiver=F(0)),
            ActionType(sender=F(0), receiver=F(1)),
        ),
        iid_marginal=(F(1, 3), F(2, 3)),
    )
    inst = model.expand_typed(typed)
    assert inst.num_states == 4
    assert sum(s.prob for s in inst.states) == 1
    # Lexicographic profile order: (0,0), (0,1), (1,0), (1,1).
    assert inst.states[1].prob == F(2, 9)
    assert inst.states[1].sender == (F(1), F(0))
    assert inst.states[1].receiver == (F(0), F(1))


def test_expand_typed_joint():
    typed = TypedInstance(
        actions=2,
        types=(
            ActionType(sender=F(2), receiver=F(0)),
            ActionType(sender=F(0), receiver=F(2)),
        ),
        joint=(((0, 1), F(1, 2)), ((1, 0), F(1, 2))),
    )
    inst = model.expand_typed(typed)
    assert inst.num_states == 2
    assert inst.states[0].sender == (F(2), F(0))
    assert model.is_symmetric(inst)


def _never_enumerate(*args):
    raise AssertionError("expand_typed enumerated profiles past the size cap")


def test_typed_expansion_is_capped_before_enumerating(monkeypatch):
    types = (
        ActionType(sender=F(1), receiver=F(0)),
        ActionType(sender=F(0), receiver=F(1)),
    )
    monkeypatch.setattr(model, "_profile_state", _never_enumerate)
    # 13 * 2**13 = 106,496 scheme columns against the default 4,096; at
    # 40 actions the exponent is clipped, not computed.
    for actions in (13, 40):
        typed = TypedInstance(
            actions=actions, types=types, iid_marginal=(F(1, 2), F(1, 2))
        )
        with pytest.raises(SizeLimitExceeded):
            model.expand_typed(typed)
    # Joint priors count their listed profiles: 3 actions x 3 profiles.
    joint = TypedInstance(
        actions=3,
        types=types,
        joint=(((0, 0, 1), F(1, 3)), ((0, 1, 0), F(1, 3)), ((1, 0, 0), F(1, 3))),
    )
    monkeypatch.setenv(model.SIZE_LIMIT_ENV, "8")
    with pytest.raises(SizeLimitExceeded):
        model.expand_typed(joint)
    monkeypatch.undo()
    monkeypatch.setenv(model.SIZE_LIMIT_ENV, "9")
    assert model.expand_typed(joint).num_states == 3
    # An iid instance exactly at the cap expands: 3 * 2**3 = 24.
    monkeypatch.setenv(model.SIZE_LIMIT_ENV, "24")
    iid = TypedInstance(actions=3, types=types, iid_marginal=(F(1, 2), F(1, 2)))
    assert model.expand_typed(iid).num_states == 8


@pytest.mark.parametrize("raw", ["abc", "-5", "0", "1.5"])
def test_size_limit_must_be_a_positive_integer(monkeypatch, raw):
    monkeypatch.setenv(model.SIZE_LIMIT_ENV, raw)
    with pytest.raises(InvalidSetting, match=model.SIZE_LIMIT_ENV):
        model.size_limit()
    monkeypatch.setenv(model.SIZE_LIMIT_ENV, "12")
    assert model.size_limit() == 12
    monkeypatch.delenv(model.SIZE_LIMIT_ENV)
    assert model.size_limit() == model.DEFAULT_SIZE_LIMIT


def test_symmetry_detection():
    assert model.is_symmetric(
        model.random_instance(3, actions=3, symmetric=True, types=2)
    )
    assert model.is_symmetric(
        model.random_instance(4, actions=3, symmetric=True, types=2, joint=True)
    )
    # Distinct roles for the two actions: not symmetric.
    asym = PersuasionInstance(
        actions=2,
        states=(
            State(prob=F(1), sender=(F(1), F(0)), receiver=(F(0), F(1))),
        ),
    )
    assert not model.is_symmetric(asym)
    # Same profiles with permutation-invariant mass: symmetric.
    sym = PersuasionInstance(
        actions=2,
        states=(
            State(prob=F(1, 2), sender=(F(1), F(0)), receiver=(F(0), F(1))),
            State(prob=F(1, 2), sender=(F(0), F(1)), receiver=(F(1), F(0))),
        ),
    )
    assert model.is_symmetric(sym)


def test_symmetry_verdict_is_kept_with_the_coding():
    # The verdict is found once per coding and read back on later calls.
    joint = model.random_instance(4, actions=3, symmetric=True, types=2, joint=True)
    swapped = PersuasionInstance(
        actions=2,
        states=(State(prob=F(1), sender=(F(1), F(0)), receiver=(F(0), F(1))),),
    )
    for instance, verdict in ((joint, True), (swapped, False)):
        code = (
            instance.expanded if isinstance(instance, TypedInstance) else instance
        ).coding
        assert "symmetric" not in vars(code)
        assert model.is_symmetric(instance) is verdict
        assert vars(code)["symmetric"] is verdict
        assert model.is_symmetric(instance) is verdict


def _symmetric_by_permutations(inst):
    """The definition: no permutation of actions changes the aggregated prior."""
    base = {}
    for state in inst.states:
        key = (state.sender, state.receiver)
        base[key] = base.get(key, 0) + state.prob
    base = {k: v for k, v in base.items() if v}
    for perm in itertools.permutations(range(inst.actions)):
        permute = operator.itemgetter(*perm)
        permuted = {}
        for (s, r), prob in base.items():
            key = (permute(s), permute(r))
            permuted[key] = permuted.get(key, 0) + prob
        if permuted != base:
            return False
    return True


def _symmetric_by_fraction_orbits(inst):
    """The orbit check on a map keyed by Fraction payoffs with Fraction masses."""
    base = {}
    for state in inst.states:
        key = tuple(zip(state.sender, state.receiver))
        base[key] = base.get(key, 0) + state.prob
    orbits = {}
    for key, prob in base.items():
        if prob:
            orbits.setdefault(tuple(sorted(key)), []).append(prob)
    for pairs, masses in orbits.items():
        size = math.factorial(len(pairs))
        for count in collections.Counter(pairs).values():
            size //= math.factorial(count)
        if len(masses) != size or any(p != masses[0] for p in masses):
            return False
    return True


@pytest.mark.parametrize("actions,types", [(2, 3), (3, 3), (4, 3), (5, 2), (6, 2)])
def test_symmetry_orbit_check_matches_permutation_definition(actions, types):
    rng = random.Random(actions)
    verdicts = []
    for seed in range(2):
        typed = model.random_instance(
            seed, actions=actions, symmetric=True, types=types, joint=True
        )
        # Two types with one payoff pair: profiles that differ only in
        # which of them sits where aggregate to the same key.
        merged = replace(
            typed, types=(typed.types[0],) + typed.types[:-1]
        )
        for base in (typed, merged):
            cases = [base]
            joint = [list(row) for row in base.joint]
            i, j = rng.sample(range(len(joint)), 2)
            # Part of one profile's mass moved to another, then all of it,
            # which leaves that profile's orbit incomplete.
            for moved in (joint[i][1] / 2, joint[i][1]):
                rows = [row[:] for row in joint]
                rows[i][1] -= moved
                rows[j][1] += moved
                cases.append(
                    replace(
                        base, joint=tuple(tuple(row) for row in rows)
                    )
                )
            for case in cases:
                verdict = model.is_symmetric(case)
                assert verdict == _symmetric_by_permutations(
                    model.expand_typed(case)
                )
                assert verdict == _symmetric_by_fraction_orbits(
                    model.expand_typed(case)
                )
                assert verdict == model.is_symmetric(model.expand_typed(case))
                verdicts.append(verdict)
    assert True in verdicts and False in verdicts


def test_cross_utility_and_thresholds():
    inst = two_state_instance()
    follow = ((F(1), F(0)), (F(0), F(1)))
    x = model.cross_utility(inst, follow)
    assert x.entry(0, 0) == F(1)
    assert x.entry(0, 1) == F(0)
    assert x.entry(1, 1) == F(3, 2)
    assert x.entry(1, 0) == F(0)
    assert model.payment_thresholds(inst, follow) == (F(-1), F(-3, 2))

    against = ((F(0), F(1)), (F(1), F(0)))
    assert model.payment_thresholds(inst, against) == (F(3, 2), F(1))
    scheme = SignalingScheme(distribution=against, payments=(F(0), F(0)))
    assert oracle_slack(inst, scheme) == F(3, 2)
    assert not model.is_persuasive(inst, scheme)
    paid = SignalingScheme(distribution=against, payments=(F(3, 2), F(1)))
    assert model.is_persuasive(inst, paid)
    assert oracle_slack(inst, paid) == F(0)
    assert model.sender_utility(inst, paid) == F(0) - F(5, 2)
    assert model.per_recommendation_payments(inst, paid) == (F(3), F(2))


def test_sender_and_receiver_utility():
    inst = two_state_instance()
    follow = ((F(1), F(0)), (F(0), F(1)))
    scheme = SignalingScheme(distribution=follow, payments=(F(0), F(0)))
    assert model.sender_utility(inst, scheme) == F(1)
    assert oracle_receiver_utility(inst, scheme) == F(5, 2)
    paid = SignalingScheme(distribution=follow, payments=(F(1, 4), F(0)))
    assert model.sender_utility(inst, paid) == F(3, 4)
    assert oracle_receiver_utility(inst, paid) == F(11, 4)


def test_single_action_instance_always_persuasive():
    inst = PersuasionInstance(
        actions=1,
        states=(State(prob=F(1), sender=(F(2),), receiver=(F(-1),)),),
    )
    scheme = SignalingScheme(distribution=((F(1),),), payments=(F(0),))
    assert model.payment_thresholds(inst, scheme.distribution) == (F(0),)
    assert model.is_persuasive(inst, scheme)
    assert oracle_slack(inst, scheme) == F(0)
    # No alternative action, so no payment can break persuasiveness.
    for pay in (F(-5), F(-1, 3), F(7)):
        charged = SignalingScheme(distribution=scheme.distribution, payments=(pay,))
        assert model.is_persuasive(inst, charged)


def test_zero_probability_recommendation_payment():
    inst = two_state_instance()
    only_zero = ((F(1), F(0)), (F(1), F(0)))
    ok = SignalingScheme(distribution=only_zero, payments=(F(1), F(0)))
    assert model.per_recommendation_payments(inst, ok) == (F(1), F(0))
    bad = SignalingScheme(distribution=only_zero, payments=(F(0), F(1)))
    with pytest.raises(InconsistentPayments):
        model.per_recommendation_payments(inst, bad)


def _random_distribution(rng, inst):
    rows = []
    for _ in range(inst.num_states):
        weights = [rng.randint(0, 3) for _ in range(inst.actions)]
        if sum(weights) == 0:
            weights[rng.randrange(inst.actions)] = 1
        total = sum(weights)
        rows.append(tuple(F(w, total) for w in weights))
    return tuple(rows)


def _brute_force_persuasive(inst, scheme):
    # Check every follow constraint directly from the definition.
    for i in range(inst.actions):
        follow = sum(
            (
                s.prob * d[i] * s.receiver[i]
                for s, d in zip(inst.states, scheme.distribution)
            ),
            F(0),
        )
        for j in range(inst.actions):
            if j == i:
                continue
            deviate = sum(
                (
                    s.prob * d[i] * s.receiver[j]
                    for s, d in zip(inst.states, scheme.distribution)
                ),
                F(0),
            )
            if follow + scheme.payments[i] < deviate:
                return False
    return True


def test_persuasive_iff_payments_cover_thresholds():
    # With a single action there are no deviation constraints and every
    # payment vector is persuasive, so the iff needs n >= 2.
    rng = random.Random(11)
    for _ in range(120):
        inst = model.random_instance(
            rng.randrange(10**6),
            actions=rng.randint(2, 3),
            states=rng.randint(1, 4),
        )
        dist = _random_distribution(rng, inst)
        payments = tuple(
            F(rng.randint(-4, 4), rng.choice((1, 2))) for _ in range(inst.actions)
        )
        scheme = SignalingScheme(distribution=dist, payments=payments)
        thresholds = model.payment_thresholds(inst, dist)
        covered = all(
            payments[i] >= thresholds[i] for i in range(inst.actions)
        )
        assert model.is_persuasive(inst, scheme) == covered
        assert _brute_force_persuasive(inst, scheme) == covered


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_threshold_payments_are_exactly_tight(data):
    seed = data.draw(st.integers(0, 10**6))
    actions = data.draw(st.integers(2, 3))
    states = data.draw(st.integers(1, 4))
    inst = model.random_instance(seed, actions=actions, states=states)
    rng = random.Random(seed + 1)
    dist = _random_distribution(rng, inst)
    thresholds = model.payment_thresholds(inst, dist)
    tight = SignalingScheme(distribution=dist, payments=thresholds)
    assert model.is_persuasive(inst, tight)
    assert oracle_slack(inst, tight) == 0
    eps = F(1, 97)
    for i in range(inst.actions):
        lowered = list(thresholds)
        lowered[i] -= eps
        assert not model.is_persuasive(
            inst, SignalingScheme(distribution=dist, payments=tuple(lowered))
        )


def test_payments_cancel_in_welfare():
    # Payments transfer utility: sender + receiver total is payment-free.
    rng = random.Random(5)
    for _ in range(40):
        inst = model.random_instance(
            rng.randrange(10**6), actions=rng.randint(1, 3), states=rng.randint(1, 4)
        )
        dist = _random_distribution(rng, inst)
        payments = tuple(
            F(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(inst.actions)
        )
        with_pay = SignalingScheme(distribution=dist, payments=payments)
        without = SignalingScheme(
            distribution=dist, payments=(F(0),) * inst.actions
        )
        assert model.sender_utility(inst, with_pay) + oracle_receiver_utility(
            inst, with_pay
        ) == model.sender_utility(inst, without) + oracle_receiver_utility(
            inst, without
        )


def test_random_instance_validity_and_flags():
    for seed in range(20):
        inst = model.random_instance(seed, actions=3, states=5)
        assert model.validate(inst) == ()
        sym = model.random_instance(seed, actions=2, symmetric=True, types=3)
        assert model.validate(sym) == ()
        assert model.is_symmetric(sym)
        symj = model.random_instance(
            seed, actions=3, symmetric=True, types=2, joint=True
        )
        assert model.validate(symj) == ()
        assert model.is_symmetric(symj)


def test_random_instance_deterministic():
    a = model.random_instance(99, actions=3, states=4)
    b = model.random_instance(99, actions=3, states=4)
    assert a == b
    c = model.random_multi_instance(99, receivers=2, states=3)
    d = model.random_multi_instance(99, receivers=2, states=3)
    assert c == d


def test_random_multi_instance_flags():
    for seed in range(15):
        inst = model.random_multi_instance(
            seed,
            receivers=3,
            states=3,
            positive_externalities=True,
            monotone_sender=True,
        )
        assert model.validate(inst) == ()
        n = inst.receivers
        for state in inst.states:
            # Sender payoff non-decreasing along subset inclusion.
            for mask in range(1 << n):
                for i in range(n):
                    if mask >> i & 1:
                        assert state.sender[mask] >= state.sender[mask & ~(1 << i)]
            # Switching gain non-decreasing in the other 1-players.
            for i in range(n):
                table = state.receivers[i]
                for mask in range(1 << n):
                    if not mask >> i & 1:
                        continue
                    gain = table[mask] - table[mask & ~(1 << i)]
                    for j in range(n):
                        if j != i and mask >> j & 1:
                            smaller = mask & ~(1 << j)
                            smaller_gain = (
                                table[smaller] - table[smaller & ~(1 << i)]
                            )
                            assert gain >= smaller_gain
