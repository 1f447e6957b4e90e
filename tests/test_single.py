"""Single-receiver solver tests: LP oracle, fast paths, duality."""

import itertools
import random
from fractions import Fraction as F

import pytest

from persuade import examples, lp, model, single
from persuade._record import replace
from persuade.errors import (
    CertificateFailed,
    CharacterizationMismatch,
    NotSymmetric,
    SizeLimitExceeded,
    WrongActionCount,
)
from persuade.model import (
    OrbitScheme,
    PaymentModel,
    PersuasionInstance,
    SignalingScheme,
    State,
)

from test_certify import certify_lifted_orbit_answer, oracle_dual_adjusted_payoff
from test_model import oracle_slack


ZERO_SUM = examples.zero_sum_two_state_instance()
TYPE_PAIRS = examples.two_action_type_instance()


def full_lp_optimum(typed, payment_model):
    """The simplex optimum of the expanded instance's full LP.

    The fast paths' oracle: solve_optimal solves a symmetric typed
    instance on its orbit LP, which shares their symmetry argument.
    """
    problem = single.build_lp(typed.expanded, payment_model)
    return lp.certified_solve(problem).objective


def oracle_lagrangian_value(inst, dual, scheme):
    """Objective after moving the follow rows into it with multipliers lam.

    Sender payoff plus the dual-adjusted payoff, summed over states, plus,
    per action, its payment times (sum of outgoing multipliers - 1).
    """
    n = inst.actions
    total = F(0)
    for t, state in enumerate(inst.states):
        for i in range(n):
            p = scheme.distribution[t][i]
            if state.prob and p:
                adjusted = state.sender[i] + oracle_dual_adjusted_payoff(inst, dual, t, i)
                total += state.prob * p * adjusted
    for i in range(n):
        out = sum((dual.lam[i][j] for j in range(n) if j != i), F(0))
        total += scheme.payments[i] * (out - 1)
    return total


def test_zero_sum_optima_across_models():
    assert single.solve_optimal(ZERO_SUM, PaymentModel.ZERO).utility == F(1, 2)
    assert single.solve_optimal(ZERO_SUM, PaymentModel.NONNEGATIVE).utility == F(1, 2)
    assert single.solve_optimal(ZERO_SUM, PaymentModel.BUDGET_BALANCED).utility == F(1)
    assert single.solve_optimal(ZERO_SUM, PaymentModel.ARBITRARY).utility == F(3, 2)


def test_zero_sum_two_action_fast_path():
    result = single.canonical_two_action_scheme(ZERO_SUM)
    assert result.utility == F(3, 2)
    assert single.verify_support_optimality(
        result.instance, result.scheme, result.dual
    )


def test_zero_sum_budget_balanced_payments_sum_to_zero():
    result = single.solve_optimal(ZERO_SUM, PaymentModel.BUDGET_BALANCED)
    assert sum(result.scheme.payments, F(0)) == 0
    assert model.is_persuasive(result.instance, result.scheme)


def test_budget_family_utilities():
    for q in (F(0), F(1, 4), F(1, 2)):
        scheme = examples.budget_family_scheme(q)
        assert model.is_persuasive(ZERO_SUM, scheme)
        assert model.sender_utility(ZERO_SUM, scheme) == F(3, 2) - q
    balanced = examples.budget_family_scheme(F(1, 2))
    assert sum(balanced.payments, F(0)) == 0


def test_type_pairs_welfare_scheme():
    # argmax of s + r with threshold payments on the 16-state expansion.
    inst = model.expand_typed(TYPE_PAIRS)
    dist = single.welfare_weighted_scheme(inst, F(1))
    x = model.cross_utility(inst, dist)
    probs = model.recommendation_probabilities(inst, dist)
    assert probs == (F(1, 2), F(1, 2))
    assert x.entry(0, 0) / probs[0] == F(11, 16)
    assert x.entry(0, 1) / probs[0] == F(5, 16)
    thresholds = model.payment_thresholds(inst, dist)
    scheme = SignalingScheme(distribution=dist, payments=thresholds)
    assert model.per_recommendation_payments(inst, scheme) == (
        F(-6, 16),
        F(-6, 16),
    )
    assert model.sender_utility(inst, scheme) == F(17, 16)


def test_type_pairs_two_action_fast_path():
    result = single.canonical_two_action_scheme(TYPE_PAIRS)
    assert result.utility == F(9, 8)
    inst = result.instance
    assert model.per_recommendation_payments(inst, result.scheme) == (
        F(-1, 2),
        F(-1, 2),
    )
    assert single.solve_optimal(inst, PaymentModel.ARBITRARY).utility == F(9, 8)
    # The charged scheme stays persuasive even with payments removed:
    # thresholds are negative, so zero payments over-cover them.
    free = SignalingScheme(
        distribution=result.scheme.distribution,
        payments=(F(0), F(0)),
    )
    assert model.is_persuasive(inst, free)
    assert oracle_slack(inst, free) == F(-1, 4)


def test_lambda_scheme_matches_weighted_welfare():
    inst = model.expand_typed(TYPE_PAIRS)
    scheme = single.lambda_scheme(inst, F(1, 2))
    assert scheme.distribution == single.welfare_weighted_scheme(inst, F(1))
    assert scheme.payments == (F(0), F(0))


def test_lambda_star_zero_sum_not_symmetric():
    with pytest.raises(NotSymmetric):
        single.find_lambda_star(ZERO_SUM)


def test_lambda_star_on_symmetric_instances():
    for seed in range(12):
        inst = model.random_instance(
            seed, actions=2 + seed % 2, symmetric=True, types=2 + seed % 2
        )
        sweep = single.find_lambda_star(inst)  # cross-checks the LP inside
        assert model.is_persuasive(
            model.expand_typed(inst),
            sweep.scheme,
        )
        assert sweep.lambda_star >= 0
        assert sweep.lambda_star in sweep.candidates


def test_lambda_star_mixes_ties_when_uniform_overshoots():
    # At the critical lambda several actions can tie, and the uniform
    # tie-break may leave the follow incentive strictly slack; the sender
    # then pays for persuasion it does not need.  The sweep must return
    # the binding mixture over the tied actions instead.
    inst = model.expand_typed(
        model.random_instance(3, actions=3, symmetric=True, types=3)
    )
    sweep = single.find_lambda_star(inst)
    assert sweep.lambda_star == F(1, 6)
    assert sweep.utility == F(329, 1458)
    assert oracle_slack(inst, sweep.scheme) == 0

    uniform = single.lambda_scheme(inst, sweep.lambda_star)
    assert model.is_persuasive(inst, uniform)
    assert model.sender_utility(inst, uniform) == F(233, 1458)
    assert oracle_slack(inst, uniform) < 0


def test_lambda_star_can_sit_below_first_uniform_persuasive_candidate():
    # The binding mixture can already be persuasive at a breakpoint whose
    # uniform tie-break is not; the sweep then stops strictly earlier
    # than a uniform-only scan would.
    inst = model.expand_typed(
        model.random_instance(7, actions=3, symmetric=True, types=3)
    )
    sweep = single.find_lambda_star(inst)
    assert sweep.lambda_star == F(4, 9)
    assert not model.is_persuasive(
        inst, single.lambda_scheme(inst, sweep.lambda_star)
    )
    later = [
        lam
        for lam in sweep.candidates
        if model.is_persuasive(inst, single.lambda_scheme(inst, lam))
    ]
    assert later and min(later) > sweep.lambda_star


def test_sweep_checks_its_scheme_with_or_without_cross_check(monkeypatch):
    # The returned scheme must meet the orbit follow row on every call;
    # here every activity the check reads is pushed below 0.
    follow = single._follow

    def short(code, gains, rows):
        activity, sender, scale = follow(code, gains, rows)
        return -abs(activity) - 1, sender, scale

    monkeypatch.setattr(single, "_follow", short)
    typed = model.random_instance(4, actions=3, symmetric=True, types=2)
    for cross_check in (False, True):
        with pytest.raises(CharacterizationMismatch, match="is not persuasive"):
            single.find_lambda_star(typed, cross_check=cross_check)


def test_lambda_sweep_monotone():
    for seed in range(8):
        typed = model.random_instance(
            seed, actions=2, symmetric=True, types=3, joint=bool(seed % 2)
        )
        inst = model.expand_typed(typed)
        grid = single._candidates(inst.coding.orbits[1])
        persuasive_flags = []
        utilities = []
        for lam in grid:
            scheme = single.lambda_scheme(inst, lam)
            persuasive_flags.append(model.is_persuasive(inst, scheme))
            utilities.append(model.sender_utility(inst, scheme))
        # Once persuasive, later candidates stay persuasive.
        first = persuasive_flags.index(True)
        assert all(persuasive_flags[first:])
        # Sender utility of the scaled-welfare scheme never improves as
        # lambda grows.
        assert all(a >= b for a, b in zip(utilities, utilities[1:]))


def test_canonical_symmetric_matches_lp():
    for seed in range(10):
        inst = model.random_instance(
            seed + 100,
            actions=2 + seed % 3,
            symmetric=True,
            types=2 + (seed + 1) % 2,
        )
        fast = single.canonical_symmetric_scheme(inst, verify=False)
        oracle = full_lp_optimum(inst, PaymentModel.ARBITRARY)
        assert fast.utility == oracle
        assert single.verify_support_optimality(
            fast.instance, fast.scheme, fast.dual
        )


def test_canonical_symmetric_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        single.canonical_symmetric_scheme(ZERO_SUM)


def test_two_action_fast_path_on_random_priors():
    for seed in range(25):
        inst = model.random_instance(seed, actions=2, states=2 + seed % 4)
        fast = single.canonical_two_action_scheme(inst, verify=False)
        oracle = single.solve_optimal(inst, PaymentModel.ARBITRARY)
        assert fast.utility == oracle.utility


def test_two_action_fast_path_rejects_other_counts():
    inst = model.random_instance(0, actions=3, states=2)
    with pytest.raises(WrongActionCount):
        single.canonical_two_action_scheme(inst)


def test_dichotomy_matches_lp_and_labels_winner():
    branches = set()
    for seed in range(14):
        inst = model.random_instance(
            seed, actions=2 + seed % 2, symmetric=True, types=2 + seed % 2
        )
        outcome = single.nonnegative_dichotomy(inst, verify=False)
        oracle = full_lp_optimum(inst, PaymentModel.NONNEGATIVE)
        assert outcome.result.utility == oracle
        assert outcome.result.utility == max(
            outcome.no_payment_utility, outcome.canonical_utility
        )
        if outcome.branch == "no_payment":
            assert outcome.no_payment_utility >= outcome.canonical_utility
            assert all(p == 0 for p in outcome.result.scheme.payments)
        else:
            assert outcome.canonical_utility > outcome.no_payment_utility
            assert all(p >= 0 for p in outcome.result.scheme.payments)
        branches.add(outcome.branch)
    assert branches == {"no_payment", "canonical_payment"}


def test_payment_model_nesting():
    # Larger payment polytopes can only help the sender.
    for seed in range(10):
        inst = model.random_instance(seed + 50, actions=2, states=3)
        zero = single.solve_optimal(inst, PaymentModel.ZERO).utility
        nonneg = single.solve_optimal(inst, PaymentModel.NONNEGATIVE).utility
        balanced = single.solve_optimal(inst, PaymentModel.BUDGET_BALANCED).utility
        free = single.solve_optimal(inst, PaymentModel.ARBITRARY).utility
        assert zero <= nonneg <= free
        assert zero <= balanced <= free


def test_verify_support_optimality_with_zero_dual():
    inst = model.expand_typed(TYPE_PAIRS)
    zero_dual = single.SingleDual(
        lam=((F(0), F(0)), (F(0), F(0)))
    )
    sender_best = single.welfare_weighted_scheme(inst, F(0))
    ok = SignalingScheme(
        distribution=sender_best, payments=(F(0), F(0))
    )
    assert single.verify_support_optimality(inst, ok, zero_dual)
    receiver_best = single.welfare_weighted_scheme(inst, F(100))
    bad = SignalingScheme(
        distribution=receiver_best, payments=(F(0), F(0))
    )
    assert not single.verify_support_optimality(inst, bad, zero_dual)


def test_lagrangian_upper_bounds_persuasive_utility():
    rng = random.Random(2)
    for _ in range(30):
        inst = model.random_instance(
            rng.randrange(10**6), actions=2 + rng.randrange(2), states=3
        )
        n = inst.actions
        dist = single.welfare_weighted_scheme(
            inst, F(rng.randint(0, 4), rng.choice((1, 2)))
        )
        payments = model.payment_thresholds(inst, dist)
        scheme = SignalingScheme(distribution=dist, payments=payments)
        lam = tuple(
            tuple(
                F(rng.randint(0, 3), rng.choice((1, 2, 3))) if i != j else F(0)
                for j in range(n)
            )
            for i in range(n)
        )
        dual = single.SingleDual(lam=lam)
        assert oracle_lagrangian_value(inst, dual, scheme) >= model.sender_utility(
            inst, scheme
        )


def test_lagrangian_tight_at_lp_pair():
    for seed in (3, 4, 5):
        inst = model.random_instance(seed, actions=2, states=3)
        for pm in (
            PaymentModel.NONNEGATIVE,
            PaymentModel.BUDGET_BALANCED,
            PaymentModel.ARBITRARY,
        ):
            res = single.solve_optimal(inst, pm)
            value = oracle_lagrangian_value(inst, res.dual, res.scheme)
            assert value == res.utility


def test_dual_adjusted_payoff_symmetric_form():
    inst = model.expand_typed(
        model.random_instance(9, actions=3, symmetric=True, types=2)
    )
    n = inst.actions
    lam_value = F(2, 5)
    dual = single.SingleDual(
        lam=tuple(
            tuple(lam_value if i != j else F(0) for j in range(n))
            for i in range(n)
        )
    )
    for t, state in enumerate(inst.states):
        row_sum = sum(state.receiver, F(0))
        for i in range(n):
            adjusted = oracle_dual_adjusted_payoff(inst, dual, t, i)
            assert (
                adjusted
                == n * lam_value * state.receiver[i] - lam_value * row_sum
            )
    # The int twin: sender plus adjusted payoff, times lam_den and D.
    code = inst.coding
    values, _, lam_den = single._adjusted(code, dual)
    for sender, receiver, row in zip(code.sender, code.receiver, values):
        for i in range(n):
            assert F(row[i] - lam_den * sender[i], lam_den) == (
                n * lam_value * receiver[i] - lam_value * sum(receiver)
            )


def test_arbitrary_dual_rows_sum_to_one():
    for seed in range(6):
        inst = model.random_instance(seed + 20, actions=3, states=3)
        res = single.solve_optimal(inst, PaymentModel.ARBITRARY)
        n = inst.actions
        for i in range(n):
            out = sum((res.dual.lam[i][j] for j in range(n) if j != i), F(0))
            assert out == 1
        assert all(
            v >= 0 for row in res.dual.lam for v in row
        )


def test_single_action_models():
    inst = PersuasionInstance(
        actions=1,
        states=(State(prob=F(1), sender=(F(3),), receiver=(F(-1),)),),
    )
    assert single.solve_optimal(inst, PaymentModel.ZERO).utility == F(3)
    assert single.solve_optimal(inst, PaymentModel.NONNEGATIVE).utility == F(3)
    assert (
        single.solve_optimal(inst, PaymentModel.BUDGET_BALANCED).utility == F(3)
    )
    with pytest.raises(WrongActionCount):
        single.solve_optimal(inst, PaymentModel.ARBITRARY)


def test_solver_is_deterministic():
    inst = model.random_instance(77, actions=3, states=4)
    a = single.solve_optimal(inst, PaymentModel.NONNEGATIVE)
    b = single.solve_optimal(inst, PaymentModel.NONNEGATIVE)
    assert a.scheme == b.scheme
    assert a.solution.dual == b.solution.dual


@pytest.mark.parametrize("pm", list(PaymentModel), ids=lambda pm: pm.value)
def test_claim_writes_the_layout_solve_optimal_reads(pm):
    # The encoder undoes the read-out: the scheme, the follow multipliers
    # and the solution's own simplex duals give back its primal and dual.
    # An orbit-route answer's solution is the orbit LP's; written through
    # the encoder with its lifted simplex duals it reads back the same
    # scheme and multipliers, and certifies on build_lp's LP.
    explicit = model.random_instance(5, actions=3, states=4)
    result = single.solve_optimal(explicit, pm)
    n, m = explicit.actions, explicit.num_states
    solution = result.solution
    simplex = solution.dual[n * (n - 1) : n * (n - 1) + m]
    claim = single._claim(
        pm, result.scheme, result.utility, result.dual, simplex, solution.iterations
    )
    assert claim == solution

    typed = model.random_instance(5, actions=3, symmetric=True, types=2, joint=True)
    result = single.solve_optimal(typed, pm)
    n, m = typed.actions, typed.expanded.num_states
    _, claim = certify_lifted_orbit_answer(typed, result)
    primal = claim.primal
    assert tuple(primal[k : k + n] for k in range(0, n * m, n)) == (
        result.scheme.distribution
    )
    if pm is not PaymentModel.ZERO:
        assert primal[n * m :] == result.scheme.payments
    assert single._follow_dual(n, claim.dual) == result.dual
    assert (claim.objective, claim.iterations) == (
        result.utility,
        result.solution.iterations,
    )


def test_solve_optimal_builds_through_build_lp(monkeypatch):
    # A wrapper on the public builder, as a tracer installs one, sees
    # every full LP solve_optimal states; the orbit route of a symmetric
    # typed instance states the orbit LP alone, and checks no fast path.
    calls = []
    real = single.build_lp

    def counting(instance, payment_model):
        calls.append(payment_model)
        return real(instance, payment_model)

    def no_fast_path(*args):
        raise AssertionError("the orbit route checked a fast path")

    monkeypatch.setattr(single, "build_lp", counting)
    monkeypatch.setattr(lp, "check_fast_path", no_fast_path)
    typed = model.random_instance(4, actions=3, symmetric=True, types=2)
    for pm in PaymentModel:
        calls.clear()
        result = single.solve_optimal(ZERO_SUM, pm)
        assert calls == [pm]
        assert result.problem == real(result.instance, pm)
        calls.clear()
        result = single.solve_optimal(typed, pm)
        assert calls == []
        assert result.problem == single._orbit_lp(typed.iid_orbits[1], pm)


def test_symmetric_fast_paths_never_build_the_full_lp(monkeypatch):
    # The symmetric fast paths certify on the orbit LP, typed or
    # explicit, and so does the one solve after a claimed dual fails.
    def never_build(*args):
        raise AssertionError("a symmetric fast path built the full LP")

    claim = single._orbit_claim

    def zeroed(*args):
        problem, solution = claim(*args)
        return problem, replace(solution, dual=(F(0),) * len(solution.dual))

    iid = model.random_instance(4, actions=3, symmetric=True, types=2)
    joint = model.random_instance(4, actions=3, symmetric=True, types=2, joint=True)
    monkeypatch.setattr(single, "build_lp", never_build)
    for failing in (False, True):
        if failing:
            monkeypatch.setattr(single, "_orbit_claim", zeroed)
        for instance in (iid, joint, iid.expanded):
            single.find_lambda_star(instance)
            single.canonical_symmetric_scheme(instance)
            single.nonnegative_dichotomy(instance)


# ---------------------------------------------------------------------------
# The orbit LP of symmetric typed instances

# (actions, types, joint): iid and symmetrized joint priors.
ORBIT_SHAPES = (
    (2, 3, False),
    (3, 2, False),
    (3, 3, False),
    (4, 2, False),
    (4, 3, False),
    (3, 2, True),
    (5, 2, True),
)


@pytest.fixture
def full_solves(monkeypatch):
    """The problems lp.certified_solve is called on from here on."""
    seen = []
    real = lp.certified_solve

    def counting(problem):
        seen.append(problem)
        return real(problem)

    monkeypatch.setattr(lp, "certified_solve", counting)
    return seen


@pytest.mark.parametrize("actions, types, joint", ORBIT_SHAPES)
def test_orbit_route_matches_the_full_lp(full_solves, actions, types, joint):
    # The only solve is the orbit LP's, and its optimum, lifted, certifies
    # on the full LP with its own dual.
    for seed in range(1, 41):
        typed = model.random_instance(
            seed, actions=actions, symmetric=True, types=types, joint=joint
        )
        for pm in PaymentModel:
            result = single.solve_optimal(typed, pm)
            orbits = typed.expanded.coding.orbits[1]
            assert full_solves == [result.problem]
            assert result.problem == single._orbit_lp(orbits, pm)
            assert result.utility == full_lp_optimum(typed, pm)
            full_solves.clear()
            certify_lifted_orbit_answer(typed, result)
            assert model.is_persuasive(result.instance, result.scheme)
            assert result.dual.symmetric_value == -result.solution.dual[0]


def _asymmetric_joint():
    typed = model.random_instance(2, actions=3, symmetric=True, types=2, joint=True)
    profiles = [profile for profile, _ in typed.joint]
    weights = range(1, len(profiles) + 1)
    total = sum(weights)
    joint = tuple((p, F(w, total)) for p, w in zip(profiles, weights))
    return model.TypedInstance(actions=3, types=typed.types, joint=joint)


def test_full_lp_route_for_other_instances(full_solves, monkeypatch):
    orbit_solves = []
    real = single._solve_orbits

    def counting(*args):
        orbit_solves.append(args)
        return real(*args)

    monkeypatch.setattr(single, "_solve_orbits", counting)
    one_action = model.random_instance(3, actions=1, symmetric=True, types=2)
    asymmetric = _asymmetric_joint()
    assert not model.is_symmetric(asymmetric)
    for instance in (ZERO_SUM, asymmetric, one_action):
        for pm in PaymentModel:
            if instance is one_action and pm is PaymentModel.ARBITRARY:
                continue
            full_solves.clear()
            result = single.solve_optimal(instance, pm)
            assert full_solves == [result.problem]
    assert orbit_solves == []
    typed = model.random_instance(3, actions=3, symmetric=True)
    single.solve_optimal(typed, PaymentModel.ZERO)
    assert len(orbit_solves) == 1


def test_orbit_route_reports_the_symmetrized_optimum():
    # Every permutation of the actions maps the scheme to itself, and the
    # constant dual sits on every follow row.
    typed = model.random_instance(108, actions=4, symmetric=True, types=3)
    inst = typed.expanded
    index = {
        tuple(zip(state.sender, state.receiver)): t
        for t, state in enumerate(inst.states)
    }
    for pm in PaymentModel:
        result = single.solve_optimal(typed, pm)
        dist = result.scheme.distribution
        assert len(set(result.scheme.payments)) == 1
        for t, state in enumerate(inst.states):
            pairs = list(zip(state.sender, state.receiver))
            swapped = tuple(pairs[1::-1] + pairs[2:])
            row = dist[index[swapped]]
            assert row == (dist[t][1], dist[t][0]) + dist[t][2:]
        lam = result.dual.symmetric_value
        n = inst.actions
        assert result.solution.dual[0] == -lam
        _, claim = certify_lifted_orbit_answer(typed, result)
        assert claim.dual[: n * (n - 1)] == (-lam,) * (n * (n - 1))


def test_orbit_lp_status_is_checked(monkeypatch):
    infeasible = lp.LpSolution(lp.INFEASIBLE, None, None, None, 0)
    monkeypatch.setattr(lp, "solve", lambda problem: infeasible)
    typed = model.random_instance(3, actions=3, symmetric=True)
    with pytest.raises(CertificateFailed, match="status is infeasible"):
        single.solve_optimal(typed, PaymentModel.ZERO)


# ---------------------------------------------------------------------------
# iid instances past the cap of their expansion: schemes in orbit form


def per_state(typed, scheme):
    """An OrbitScheme as a scheme over the states of typed.expanded.

    Each orbit's share of a type is spread evenly over the actions of
    that type, a type counting as the lowest-indexed type with its
    payoffs; the states come in expand_typed's profile order.
    """
    first = {}
    merged = [
        first.setdefault((t.sender, t.receiver), i) for i, t in enumerate(typed.types)
    ]
    index = {counts: o for o, counts in enumerate(scheme.orbits)}
    rows = []
    for profile in itertools.product(range(len(typed.types)), repeat=typed.actions):
        classes = [merged[ty] for ty in profile]
        counts = tuple(classes.count(ty) for ty in range(len(typed.types)))
        row = scheme.distribution[index[counts]]
        rows.append(tuple(row[c] / counts[c] for c in classes))
    return SignalingScheme(distribution=tuple(rows), payments=scheme.payments)


def _past_cap(monkeypatch, typed, limit):
    """solve_optimal's answers under every model, with the size limit at
    limit and expand_typed refusing to run, on a fresh copy of typed."""

    def never_expand(instance):
        raise AssertionError("the orbit route expanded an iid instance past the cap")

    fresh = replace(typed)  # none of typed's cached codings
    with monkeypatch.context() as patch:
        patch.setenv(model.SIZE_LIMIT_ENV, str(limit))
        patch.setattr(model, "expand_typed", never_expand)
        return fresh, {pm: single.solve_optimal(fresh, pm) for pm in PaymentModel}


# (actions, types, size limit): the expansion is past the limit, the
# orbit LP within it.
PAST_CAP = ((3, 2, 20), (3, 3, 40), (4, 2, 40), (4, 3, 100))


@pytest.mark.parametrize("actions, types, limit", PAST_CAP)
def test_iid_past_the_cap_is_solved_in_orbit_form(monkeypatch, actions, types, limit):
    # Past the cap the instance is never expanded, and its answer is the
    # one below the cap: the same orbit LP pair, value and multipliers,
    # and the per-state scheme once spread over the states.
    for seed in range(1, 21):
        typed = model.random_instance(
            seed, actions=actions, symmetric=True, types=types
        )
        fresh, results = _past_cap(monkeypatch, typed, limit)
        for pm, result in results.items():
            below = single.solve_optimal(typed, pm)
            assert result.instance is fresh
            assert isinstance(result.scheme, OrbitScheme)
            assert (result.utility, result.dual) == (below.utility, below.dual)
            assert (result.problem, result.solution) == (below.problem, below.solution)
            assert per_state(typed, result.scheme) == below.scheme
            assert model.orbit_is_persuasive(fresh, result.scheme)


def test_orbit_persuasiveness_matches_the_per_state_check(monkeypatch):
    # Honest and tampered orbit-form schemes: the orbit check and
    # model.is_persuasive on the states agree.
    rng = random.Random(7)
    verdicts = set()
    for seed in range(1, 16):
        typed = model.random_instance(seed, actions=3, symmetric=True, types=3)
        _, results = _past_cap(monkeypatch, typed, 40)
        for result in results.values():
            scheme = result.scheme
            dist = [list(row) for row in scheme.distribution]
            o = rng.randrange(len(dist))
            present = [ty for ty, m in enumerate(scheme.orbits[o]) if m]
            a, b = present[0], present[-1]
            moved = dist[o][a] / 2
            dist[o][a] -= moved
            dist[o][b] += moved
            step = F(rng.choice((1, -1)), rng.choice((4, 16, 64)))
            for candidate in (
                scheme,
                replace(scheme, payments=tuple(p + step for p in scheme.payments)),
                replace(scheme, distribution=tuple(tuple(row) for row in dist)),
            ):
                verdict = model.orbit_is_persuasive(typed, candidate)
                assert verdict == model.is_persuasive(
                    typed.expanded, per_state(typed, candidate)
                )
                verdicts.add(verdict)
    assert verdicts == {True, False}


def test_iid_past_the_cap_is_sized_before_its_orbits(monkeypatch):
    # 5 actions over 2 types: 160 expanded columns and 20 follow rows,
    # over a limit of 12, which the follow rows meet first.
    typed = model.random_instance(3, actions=5, symmetric=True, types=2)

    def never_enumerate(instance):
        raise AssertionError("orbits enumerated past the size cap")

    monkeypatch.setenv(model.SIZE_LIMIT_ENV, "12")
    monkeypatch.setattr(model, "_iid_orbits", never_enumerate)
    with pytest.raises(SizeLimitExceeded, match="follow rows"):
        single.solve_optimal(typed, PaymentModel.ZERO)
