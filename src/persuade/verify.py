"""Seeded verification campaigns over the solver characterizations.

Each property draws deterministic random instances, runs the fast
construction under test with its own certificate check disabled, and
compares against the exact LP independently, so the reported outcome is
re-derived rather than trusted.  Campaigns return structured reports
with any failing seeds and their instances attached; the command line
prints them as a table and serializes counterexamples, and the
acceptance tests run the same campaigns at their own seed counts.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from fractions import Fraction

from . import model, multi, reduction, single
from ._record import record
from .errors import CharacterizationMismatch, OracleUnsound, PersuadeError
from .model import PaymentModel, SignalingScheme

ZERO = Fraction(0)

SUITES = ("single", "multi", "reduction")


@record
class PropertyReport:
    """Outcome of one property over a seed range."""

    suite: str
    name: str
    runs: int
    failures: tuple  # (seed, message) pairs
    counterexamples: tuple  # (seed, instance) pairs for serialization

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def passed(self) -> int:
        return self.runs - len(self.failures)


def _campaign(
    suite: str, name: str, count: int, check: Callable[[int], tuple | None]
) -> PropertyReport:
    failures = []
    counterexamples = []
    for seed in range(1, count + 1):
        try:
            outcome = check(seed)
        except PersuadeError as exc:
            outcome = (f"{type(exc).__name__}: {exc}", None)
        if outcome is not None:
            message, instance = outcome
            failures.append((seed, message))
            if instance is not None:
                counterexamples.append((seed, instance))
    return PropertyReport(
        suite=suite,
        name=name,
        runs=count,
        failures=tuple(failures),
        counterexamples=tuple(counterexamples),
    )


# ---------------------------------------------------------------------------
# Single-receiver properties


def payment_identity_campaign(
    count: int = 50, *, max_actions: int = 3, max_states: int = 3
) -> PropertyReport:
    """Persuasive exactly when payments cover the thresholds, per action."""

    def check(seed: int) -> tuple | None:
        rng = random.Random(seed * 2654435761 % 2**31)
        inst = model.random_instance(
            seed,
            actions=rng.randint(2, max(2, max_actions)),
            states=rng.randint(1, max_states),
        )
        rows = []
        for _ in range(inst.num_states):
            weights = [rng.randint(0, 3) for _ in range(inst.actions)]
            if not sum(weights):
                weights[rng.randrange(inst.actions)] = 1
            total = sum(weights)
            rows.append(tuple(Fraction(w, total) for w in weights))
        payments = tuple(
            Fraction(rng.randint(-4, 4), rng.choice((1, 2)))
            for _ in range(inst.actions)
        )
        scheme = SignalingScheme(distribution=tuple(rows), payments=payments)
        thresholds = model.payment_thresholds(inst, scheme.distribution)
        covered = all(
            payments[i] >= thresholds[i] for i in range(inst.actions)
        )
        if model.is_persuasive(inst, scheme) != covered:
            return (
                f"persuasive={not covered} but payments cover "
                f"thresholds={covered}",
                inst,
            )
        return None

    return _campaign("single", "payment-identity", count, check)


def lambda_star_campaign(
    count: int = 50, *, max_actions: int = 3, max_types: int = 3
) -> PropertyReport:
    """Smallest-persuasive-weight scheme matches the zero-payment LP,
    and the uniform scaled-welfare family is monotone over the grid."""

    def check(seed: int) -> tuple | None:
        typed = model.random_instance(
            seed,
            actions=2 + seed % (max_actions - 1),
            symmetric=True,
            types=2 + seed % (max_types - 1),
            joint=seed % 3 == 0,
        )
        inst = model.expand_typed(typed)
        sweep = single.find_lambda_star(inst, cross_check=False)
        reference = single.solve_optimal(inst, PaymentModel.ZERO)
        if sweep.utility != reference.utility:
            return (
                f"sweep utility {sweep.utility} != LP {reference.utility}",
                typed,
            )
        if not model.is_persuasive(inst, sweep.scheme):
            return ("sweep scheme is not persuasive", typed)
        if model.sender_utility(inst, sweep.scheme) != sweep.utility:
            return ("sweep utility does not match its scheme", typed)
        flags = []
        utilities = []
        for lam in sweep.candidates:
            scheme = single.lambda_scheme(inst, lam)
            flags.append(model.is_persuasive(inst, scheme))
            utilities.append(model.sender_utility(inst, scheme))
        if True in flags and not all(flags[flags.index(True):]):
            return ("uniform-family persuasiveness is not monotone", typed)
        if any(a < b for a, b in zip(utilities, utilities[1:])):
            return ("uniform-family utility increased along the grid", typed)
        return None

    return _campaign("single", "lambda-star-zero-payment", count, check)


def two_action_arbitrary_campaign(
    count: int = 50, *, max_states: int = 4
) -> PropertyReport:
    """Two actions, any prior: argmax of s + 2r with threshold payments
    reaches the free-payment LP optimum."""

    def check(seed: int) -> tuple | None:
        inst = model.random_instance(
            seed, actions=2, states=1 + seed % max_states
        )
        fast = single.canonical_two_action_scheme(inst, verify=False)
        reference = single.solve_optimal(inst, PaymentModel.ARBITRARY)
        if fast.utility != reference.utility:
            return (
                f"canonical utility {fast.utility} != LP {reference.utility}",
                inst,
            )
        return None

    return _campaign("single", "two-action-arbitrary", count, check)


def symmetric_arbitrary_campaign(
    count: int = 50, *, max_actions: int = 4
) -> PropertyReport:
    """Symmetric instances: argmax of s + (n/(n-1))r with threshold
    payments reaches the free-payment LP optimum."""

    def check(seed: int) -> tuple | None:
        actions = 2 + seed % (max_actions - 1)
        typed = model.random_instance(
            seed,
            actions=actions,
            symmetric=True,
            types=2 if actions >= 4 else 2 + seed % 2,
            joint=seed % 4 == 0,
        )
        fast = single.canonical_symmetric_scheme(typed, verify=False)
        # The expanded instance, so the reference is the full LP's simplex,
        # not the orbit LP that shares the fast path's symmetry argument.
        reference = single.solve_optimal(typed.expanded, PaymentModel.ARBITRARY)
        if fast.utility != reference.utility:
            return (
                f"canonical utility {fast.utility} != LP {reference.utility}",
                typed,
            )
        return None

    return _campaign("single", "symmetric-arbitrary", count, check)


def dichotomy_campaign(
    count: int = 50, *, max_actions: int = 3, max_types: int = 3
) -> PropertyReport:
    """Non-negative payments: the better of the payment-free optimum and
    the canonical paid scheme is LP-optimal, with a consistent label."""

    def check(seed: int) -> tuple | None:
        typed = model.random_instance(
            seed,
            actions=2 + seed % (max_actions - 1),
            symmetric=True,
            types=2 + seed % (max_types - 1),
            joint=seed % 5 == 0,
        )
        outcome = single.nonnegative_dichotomy(typed, verify=False)
        reference = single.solve_optimal(typed.expanded, PaymentModel.NONNEGATIVE)
        best = max(outcome.no_payment_utility, outcome.canonical_utility)
        if outcome.result.utility != reference.utility:
            return (
                f"winner utility {outcome.result.utility} != LP "
                f"{reference.utility}",
                typed,
            )
        if outcome.result.utility != best:
            return ("winner utility is not the max of the branches", typed)
        expected = (
            "no_payment"
            if outcome.no_payment_utility >= outcome.canonical_utility
            else "canonical_payment"
        )
        if outcome.branch != expected:
            return (f"branch label {outcome.branch} != {expected}", typed)
        if outcome.branch == "no_payment" and any(outcome.result.scheme.payments):
            return ("payment-free branch carries payments", typed)
        if any(p < 0 for p in outcome.result.scheme.payments):
            return ("non-negative model produced a negative payment", typed)
        return None

    return _campaign("single", "nonnegative-dichotomy", count, check)


# ---------------------------------------------------------------------------
# Multi-receiver properties


def multi_models_campaign(
    count: int = 50, *, max_receivers: int = 3, max_states: int = 6
) -> PropertyReport:
    """Virtual-payoff schemes match their LPs; model values nest; the
    recovered payments balance exactly."""

    def check(seed: int) -> tuple | None:
        inst = model.random_multi_instance(
            seed,
            receivers=2 + seed % (max_receivers - 1),
            states=2 + seed % (max_states - 1),
        )
        balanced = multi.solve_budget_balanced(inst)
        lp_bb = multi.solve_lp(inst, PaymentModel.BUDGET_BALANCED)
        if balanced.utility != lp_bb.utility:
            return (
                f"balanced fast path {balanced.utility} != LP {lp_bb.utility}",
                inst,
            )
        if multi.total_payments(balanced.scheme) != 0:
            return ("balanced scheme's payments do not net to zero", inst)
        if not multi.is_persuasive(inst, balanced.scheme):
            return ("balanced scheme is not persuasive", inst)
        free = multi.solve_arbitrary(inst)
        lp_free = multi.solve_lp(inst, PaymentModel.ARBITRARY)
        if free.utility != lp_free.utility:
            return (
                f"free-payment fast path {free.utility} != LP {lp_free.utility}",
                inst,
            )
        lp_zero = multi.solve_lp(inst, PaymentModel.ZERO)
        if not lp_zero.utility <= lp_bb.utility <= lp_free.utility:
            return (
                f"nesting violated: {lp_zero.utility}, {lp_bb.utility}, "
                f"{lp_free.utility}",
                inst,
            )
        realized = multi.recover_payments(inst, balanced.scheme)
        total = ZERO
        for i in range(inst.receivers):
            x = realized.x_star[i]
            total += x * realized.p_one[i] + (1 - x) * realized.p_zero[i]
        if total != 0:
            return (f"recovered payments net to {total}, not zero", inst)
        return None

    return _campaign("multi", "payment-models", count, check)


# ---------------------------------------------------------------------------
# Reduction properties


def _reduction_instance(seed: int, max_receivers: int, max_states: int):
    return model.random_multi_instance(
        seed,
        receivers=2 + seed % (max_receivers - 1),
        states=2 + seed % (max_states - 1),
        positive_externalities=True,
        monotone_sender=True,
    )


def reduction_equivalence_campaign(
    count: int = 50, *, max_receivers: int = 3, max_states: int = 4
) -> PropertyReport:
    """Dropping the keep-playing-0 rows, repairing, and cutting planes
    all reproduce the full zero-payment optimum."""

    def check(seed: int) -> tuple | None:
        inst = _reduction_instance(seed, max_receivers, max_states)
        full = multi.solve_lp(inst, PaymentModel.ZERO)
        dropped = reduction.solve_dropped(inst)
        if dropped.utility != full.utility:
            return (
                f"reduced optimum {dropped.utility} != full {full.utility}",
                inst,
            )
        repaired = reduction.repair_scheme(inst, dropped.scheme)
        if not multi.is_persuasive(inst, repaired):
            return ("repaired scheme violates an incentive row", inst)
        if multi.sender_value(inst, repaired) != full.utility:
            return ("repair changed the objective", inst)
        generated = reduction.cutting_plane_solve(inst)
        if generated.objective != full.utility:
            return (
                f"cutting-plane objective {generated.objective} != full "
                f"{full.utility}",
                inst,
            )
        if not multi.is_persuasive(inst, generated.scheme):
            return ("cutting-plane scheme violates an incentive row", inst)
        bound = inst.num_states * inst.num_subsets
        if len(generated.generated) > bound:
            return (
                f"{len(generated.generated)} generated rows exceed {bound}",
                inst,
            )
        if sum(generated.y, ZERO) != generated.objective:
            return ("dual objective does not match its multipliers", inst)
        return None

    return _campaign("reduction", "reduced-program-equivalence", count, check)


def oracle_soundness_campaign(
    count: int = 12, *, max_receivers: int = 3, max_states: int = 3
) -> PropertyReport:
    """A runner-up oracle is either unmasked or harmless, never silently
    wrong."""

    def check(seed: int) -> tuple | None:
        inst = _reduction_instance(seed, max_receivers, max_states)

        def runner_up(theta, alpha):
            ranked = sorted(
                range(inst.num_subsets),
                key=lambda s: (
                    reduction.oracle_objective(inst, theta, alpha, s),
                    -s,
                ),
                reverse=True,
            )
            pick = ranked[1]
            return pick, reduction.oracle_objective(inst, theta, alpha, pick)

        full = multi.solve_lp(inst, PaymentModel.ZERO)
        try:
            result = reduction.cutting_plane_solve(inst, runner_up)
        except OracleUnsound:
            return None
        if result.objective != full.utility:
            return (
                f"wrong oracle slipped through with objective "
                f"{result.objective} != {full.utility}",
                inst,
            )
        return None

    return _campaign("reduction", "oracle-soundness", count, check)


# ---------------------------------------------------------------------------
# Suite dispatch


def run_suite(
    suite: str,
    *,
    seeds: int = 50,
    max_actions: int = 3,
    max_states: int = 3,
    max_receivers: int = 3,
    max_multi_states: int = 6,
) -> list:
    """All property reports of one suite at a common seed count."""
    if suite == "single":
        return [
            payment_identity_campaign(
                seeds, max_actions=max_actions, max_states=max_states
            ),
            lambda_star_campaign(seeds, max_actions=max_actions),
            two_action_arbitrary_campaign(seeds),
            symmetric_arbitrary_campaign(
                seeds, max_actions=max(4, max_actions)
            ),
            dichotomy_campaign(seeds, max_actions=max_actions),
        ]
    if suite == "multi":
        return [
            multi_models_campaign(
                seeds,
                max_receivers=max_receivers,
                max_states=max_multi_states,
            )
        ]
    if suite == "reduction":
        return [
            reduction_equivalence_campaign(seeds, max_receivers=max_receivers),
            oracle_soundness_campaign(
                min(seeds, 12), max_receivers=max_receivers
            ),
        ]
    raise ValueError(f"unknown suite {suite!r}; expected one of {SUITES}")


def run_all(**kwargs) -> list:
    """Every suite's reports, concatenated."""
    reports = []
    for suite in SUITES:
        reports.extend(run_suite(suite, **kwargs))
    return reports
