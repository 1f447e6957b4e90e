"""Acceptance gate: one test per headline claim, all at exact rational equality.

Each test prints a single ``criterion NN PASS/FAIL`` line (visible under
``pytest -s``) and then asserts, so a red run names exactly the claims
that broke.  Numeric targets are checked with ``==`` on Fractions; the
randomized criteria re-run the seeded property campaigns at their full
advertised sample counts.
"""

from fractions import Fraction as F

from persuade import examples, lp, model, multi, reduction, single, verify
from persuade.model import PaymentModel, SignalingScheme


def _gate(num: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'} {label}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def _campaign_gate(num: int, label: str, report) -> None:
    detail = f"{report.passed}/{report.runs} seeds"
    if not report.ok:
        first = "; ".join(f"seed {s}: {m}" for s, m in report.failures[:3])
        detail += f" — {first}"
    _gate(num, label, report.ok, detail)


def test_criterion_01_two_action_typed_fixture_values():
    instance = examples.two_action_type_instance()
    expanded = model.expand_typed(instance)

    dist_a = single.welfare_weighted_scheme(expanded, F(1))
    scheme_a = SignalingScheme(
        distribution=dist_a,
        payments=model.payment_thresholds(expanded, dist_a),
    )
    utility_a = model.sender_utility(expanded, scheme_a)
    per_a = model.per_recommendation_payments(expanded, scheme_a)

    result_b = single.canonical_two_action_scheme(instance)
    per_b = model.per_recommendation_payments(result_b.instance, result_b.scheme)
    lp_opt = single.solve_optimal(instance, PaymentModel.ARBITRARY).utility

    checks = {
        "equal-weights utility 17/16": utility_a == F(17, 16),
        "equal-weights payments -6/16": set(per_a) == {F(-6, 16)},
        "double-weight utility 9/8": result_b.utility == F(9, 8),
        "double-weight payments -1/2": set(per_b) == {F(-1, 2)},
        "lp arbitrary optimum 9/8": lp_opt == F(9, 8),
    }
    failed = [k for k, ok in checks.items() if not ok]
    _gate(
        1,
        "two-action typed fixture: canonical schemes, payments, LP optimum",
        not failed,
        "; ".join(failed) if failed else f"utilities {utility_a}, {result_b.utility}",
    )


def test_criterion_02_zero_sum_fixture_values_by_model():
    instance = examples.zero_sum_two_state_instance()
    optima = {
        pm: single.solve_optimal(instance, pm).utility for pm in PaymentModel
    }
    family_ok = all(
        model.sender_utility(instance, examples.budget_family_scheme(q))
        == F(3, 2) - q
        for q in (F(0), F(1, 4), F(1, 2))
    )
    checks = {
        "zero 1/2": optima[PaymentModel.ZERO] == F(1, 2),
        "nonnegative 1/2": optima[PaymentModel.NONNEGATIVE] == F(1, 2),
        "arbitrary 3/2": optima[PaymentModel.ARBITRARY] == F(3, 2),
        "budget-balanced 1": optima[PaymentModel.BUDGET_BALANCED] == F(1),
        "family utility 3/2 - q": family_ok,
    }
    failed = [k for k, ok in checks.items() if not ok]
    _gate(
        2,
        "zero-sum fixture: all four payment-model optima and the tradeoff family",
        not failed,
        "; ".join(failed)
        if failed
        else "optima " + ", ".join(str(v) for v in optima.values()),
    )


def test_criterion_03_payment_identity_on_200_triples():
    report = verify.payment_identity_campaign(200)
    _campaign_gate(
        3, "persuasive iff payments cover thresholds, componentwise", report
    )


def test_criterion_04_lambda_sweep_matches_lp_on_100_symmetric():
    report = verify.lambda_star_campaign(100, max_actions=3, max_types=3)
    _campaign_gate(
        4,
        "smallest persuasive weight equals zero-payment LP; grid monotone",
        report,
    )


def test_criterion_05_two_action_canonical_on_200_instances():
    report = verify.two_action_arbitrary_campaign(200)
    _campaign_gate(
        5, "two-action double-weight scheme equals arbitrary-payment LP", report
    )


def test_criterion_06_symmetric_canonical_on_100_instances():
    report = verify.symmetric_arbitrary_campaign(100, max_actions=4)
    _campaign_gate(
        6,
        "symmetric n/(n-1)-weighted scheme equals arbitrary-payment LP",
        report,
    )


def test_criterion_07_nonnegative_dichotomy_on_100_instances():
    report = verify.dichotomy_campaign(100)
    _campaign_gate(
        7,
        "non-negative optimum is the better of the two named branches",
        report,
    )


def test_criterion_08_multi_receiver_virtual_payoffs_on_50_instances():
    report = verify.multi_models_campaign(50, max_receivers=3, max_states=6)
    _campaign_gate(
        8,
        "virtual-payoff schemes match LP; model nesting; balanced transfers",
        report,
    )


def test_criterion_09_reduction_and_cutting_plane_on_50_instances():
    report = verify.reduction_equivalence_campaign(
        50, max_receivers=3, max_states=4
    )
    _campaign_gate(
        9,
        "dropped LP equals full LP; repair feasible; oracle dual exhaustive",
        report,
    )


def test_criterion_10_every_lp_certifies_and_supports_check():
    single_instances = (
        examples.two_action_type_instance(),
        examples.zero_sum_two_state_instance(),
    )
    with lp.recording() as entries:
        results = [
            single.solve_optimal(inst, pm)
            for inst in single_instances
            for pm in PaymentModel
        ]
        single.find_lambda_star(examples.two_action_type_instance())
        single.nonnegative_dichotomy(examples.two_action_type_instance())
        single.canonical_two_action_scheme(examples.zero_sum_two_state_instance())
        single.canonical_symmetric_scheme(
            model.random_instance(9, actions=3, symmetric=True, types=2)
        )

        minst = model.random_multi_instance(3, receivers=2, states=3)
        for pm in PaymentModel:
            multi.solve_lp(minst, pm)
        multi.solve_budget_balanced(minst)
        multi.solve_arbitrary(minst)

        rinst = model.random_multi_instance(
            5,
            receivers=2,
            states=2,
            positive_externalities=True,
            monotone_sender=True,
        )
        reduction.solve_dropped(rinst)
        reduction.cutting_plane_solve(rinst)

    uncertified = sum(
        1 for prob, sol in entries if lp.certify_report(prob, sol)
    )
    support_ok = all(
        single.verify_support_optimality(r.instance, r.scheme, r.dual)
        for r in results
    )
    _gate(
        10,
        "independent certificates on every audited LP; support optimality",
        entries and uncertified == 0 and support_ok,
        f"{len(entries)} solves audited, {uncertified} failed certification",
    )
