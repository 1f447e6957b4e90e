"""Command-line front end.

Subcommands: "solve" reads an instance file, dispatches to the LP, a
closed-form fast path, or the cutting-plane solver, prints a
human-readable report, and writes the scheme JSON; "examples" writes
the built-in instances to disk; "verify" runs the seeded property
campaigns and reports a pass/fail table.

Every flag in the solve report is a check that reads "yes" on a correct
answer.  persuasive and budget_balanced are recomputed from the returned
scheme.  Under the nonnegative and arbitrary models budget balance is no
check (payments need not sum to zero there), so it is printed on a
"properties:" line instead.  Every answer is certified once, by the
function that makes it, and the CLI does not check it again: an LP
answer by its certified solve, a fast-path answer by a dual checked on
the full LP, a cutting-plane answer by its exhaustive row check.  Each
raises when its certificate fails, so dual_certified reads yes on every
report.  Each receiver kind writes its dual one way: a single-receiver
answer its lambda matrix, a multi-receiver answer its multipliers.  Exit
codes: 0 success, 2 unreadable or invalid input (including a
PERSUADE_SIZE_LIMIT that is not a positive integer, and a verify --seeds
below 1), 3 method or model precondition unmet, 4 a characterization
failed its check, 5 instance above the size cap, 6 a solver exceeded its
iteration limit, 7 an answer failed its optimality certificate; "verify"
exits 1 when any property fails.

Every module past model and jsonio is imported only where it is used:
the single-receiver solver by a single-receiver solve, the
multi-receiver and cutting-plane solvers by a multi-receiver solve, the
built-in examples by "examples" and the property campaigns by "verify".
So a solve starts with only the solver it runs.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from fractions import Fraction

from . import jsonio, model
from .errors import (
    CertificateFailed,
    CharacterizationMismatch,
    InconsistentPayments,
    InvalidSetting,
    IterationLimit,
    MalformedRational,
    NonMonotoneSender,
    NotSymmetric,
    OracleUnsound,
    PersuadeError,
    PositiveExternalityViolated,
    SizeLimitExceeded,
    UnknownExample,
    ValidationFailed,
    WrongActionCount,
)
from .model import (
    MultiAgentInstance,
    PaymentModel,
    PersuasionInstance,
    TypedInstance,
)
from .rationals import as_float_repr, format_rational

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INVALID_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_MISMATCH = 4
EXIT_SIZE_LIMIT = 5
EXIT_ITERATION_LIMIT = 6
EXIT_CERTIFICATE = 7

MODELS = tuple(m.value for m in PaymentModel)
METHODS = ("lp", "fast", "cutting-plane")


class UnsupportedMethod(PersuadeError):
    """The requested method does not apply to this instance and model."""


def _rat(value: Fraction) -> str:
    return f"{format_rational(value)} (= {as_float_repr(value)})"


def _emit(lines) -> None:
    sys.stdout.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# solve


def _lambda_section(dual) -> dict:
    section = {"lambda": [[format_rational(v) for v in row] for row in dual.lam]}
    value = dual.symmetric_value
    if value is not None:
        section["symmetric_lambda"] = format_rational(value)
    return section


def _single_fast(instance, payment_model: PaymentModel):
    """Fast-path dispatch: (result, extra report lines)."""
    from . import single

    if payment_model is PaymentModel.ZERO:
        sweep = single.find_lambda_star(instance)
        return sweep, [f"smallest persuasive weight: {_rat(sweep.lambda_star)}"]
    if payment_model is PaymentModel.ARBITRARY:
        if instance.actions == 2:
            return single.canonical_two_action_scheme(instance), []
        return single.canonical_symmetric_scheme(instance), []
    if payment_model is PaymentModel.NONNEGATIVE:
        outcome = single.nonnegative_dichotomy(instance)
        extra = [
            f"dichotomy branch: {outcome.branch} "
            f"(smallest persuasive weight {format_rational(outcome.lambda_star)}; "
            f"payment-free {format_rational(outcome.no_payment_utility)}, "
            f"with payments {format_rational(outcome.canonical_utility)})"
        ]
        return outcome.result, extra
    raise UnsupportedMethod(
        "no closed-form fast path for budget-balanced single-receiver "
        "instances; use --method lp"
    )


def _solve_single(instance, payment_model, method):
    from . import single

    inst = instance.expanded if isinstance(instance, TypedInstance) else instance
    extra: list = []
    if method == "lp":
        result = single.solve_optimal(instance, payment_model)
    elif method == "fast":
        result, extra = _single_fast(instance, payment_model)
    else:
        raise UnsupportedMethod(
            "cutting-plane applies to multi-receiver instances only"
        )
    scheme, utility = result.scheme, result.utility

    flags = {
        "persuasive": model.is_persuasive(inst, scheme),
        "budget_balanced": sum(scheme.payments, Fraction(0)) == 0,
    }

    lines = [f"objective: {_rat(utility)}"] + extra
    lines.append("scheme:")
    for t, row in enumerate(scheme.distribution):
        parts = [
            f"action {i} w.p. {format_rational(p)}"
            for i, p in enumerate(row)
            if p
        ]
        lines.append(f"  state {t}: " + ", ".join(parts))
    if any(scheme.payments):
        rendered = ", ".join(
            f"P({i})={format_rational(p)}" for i, p in enumerate(scheme.payments)
        )
        lines.append(f"expected payments: {rendered}")
        try:
            per = model.per_recommendation_payments(inst, scheme)
            lines.append(
                "per-recommendation payments: "
                + ", ".join(format_rational(p) for p in per)
            )
        except InconsistentPayments:
            pass
    doc = jsonio.scheme_to_json(
        scheme, sender_utility=utility, dual=_lambda_section(result.dual)
    )
    return doc, lines, flags


def _multi_dual_section(gamma, **multipliers) -> dict:
    """gamma_star where the LP has a budget row, then each named vector."""
    section = {} if gamma is None else {"gamma_star": format_rational(gamma)}
    for name, values in multipliers.items():
        section[name] = [format_rational(v) for v in values]
    return section


def _subset_label(subset: int, receivers: int) -> str:
    members = [str(i) for i in range(receivers) if subset >> i & 1]
    return "{" + ",".join(members) + "}"


def _solve_multi(instance, payment_model, method):
    from . import multi, reduction

    extra: list = []
    if method == "cutting-plane":
        if payment_model is not PaymentModel.ZERO:
            raise UnsupportedMethod(
                "cutting-plane solves the zero-payment model only"
            )
        outcome = reduction.cutting_plane_solve(instance)
        scheme, utility = outcome.scheme, outcome.objective
        dual = _multi_dual_section(None, alpha=outcome.alpha, y=outcome.y)
        extra = [
            f"generated rows: {len(outcome.generated)} of "
            f"{instance.num_states * instance.num_subsets} possible in "
            f"{outcome.rounds} rounds"
        ]
    else:
        if method == "lp":
            result = multi.solve_lp(instance, payment_model)
        elif payment_model is PaymentModel.BUDGET_BALANCED:
            result = multi.solve_budget_balanced(instance)
            via = result.via
            if via == "gamma_sweep":
                via += f" at gamma {format_rational(result.gamma_star)}"
            extra = [f"scheme reconstruction: {via}"]
        elif payment_model is PaymentModel.ARBITRARY:
            result = multi.solve_arbitrary(instance)
        else:
            raise UnsupportedMethod(
                f"no closed-form fast path for the {payment_model.value} "
                "model with multiple receivers; use --method lp"
            )
        scheme, utility = result.scheme, result.utility
        dual = _multi_dual_section(
            result.dual.gamma, alpha=result.dual.alpha, beta=result.dual.beta
        )

    flags = {
        "persuasive": multi.is_persuasive(instance, scheme),
        "budget_balanced": multi.total_payments(scheme) == 0,
    }

    lines = [f"objective: {_rat(utility)}"] + extra
    lines.append("scheme:")
    for t, row in enumerate(scheme.distribution):
        parts = [
            f"{_subset_label(s, instance.receivers)} w.p. {format_rational(p)}"
            for s, p in enumerate(row)
            if p
        ]
        lines.append(f"  state {t}: " + ", ".join(parts))
    recovered = None
    if any(scheme.q_one) or any(scheme.q_zero):
        lines.append(
            "expected payments: q1="
            + ", ".join(format_rational(q) for q in scheme.q_one)
            + "; q0="
            + ", ".join(format_rational(q) for q in scheme.q_zero)
        )
        try:
            realized = multi.recover_payments(instance, scheme)
            recovered = {
                "p_one": [format_rational(v) for v in realized.p_one],
                "p_zero": [format_rational(v) for v in realized.p_zero],
                "one_probabilities": [
                    format_rational(v) for v in realized.x_star
                ],
            }
            lines.append(
                "per-recommendation payments: told-1 "
                + ", ".join(format_rational(v) for v in realized.p_one)
                + "; told-0 "
                + ", ".join(format_rational(v) for v in realized.p_zero)
            )
        except InconsistentPayments:
            pass
    doc = jsonio.scheme_to_json(
        scheme,
        sender_utility=utility,
        dual=dual,
        recovered_payments=recovered,
    )
    return doc, lines, flags


def _describe(instance, path: str) -> str:
    if isinstance(instance, MultiAgentInstance):
        shape = (
            f"multi ({instance.receivers} receivers, "
            f"{instance.num_states} states)"
        )
    elif isinstance(instance, TypedInstance):
        shape = (
            f"single_typed ({instance.actions} actions, "
            f"{len(instance.types)} types)"
        )
    else:
        shape = f"single ({instance.actions} actions, {instance.num_states} states)"
    return f"instance: {shape} from {path}"


def cmd_solve(args) -> int:
    start = time.perf_counter()
    instance = jsonio.load_instance(args.input)
    payment_model = (
        PaymentModel.from_name(args.model)
        if args.model
        else instance.default_model
    )
    if isinstance(instance, MultiAgentInstance):
        doc, lines, flags = _solve_multi(instance, payment_model, args.method)
    else:
        doc, lines, flags = _solve_single(instance, payment_model, args.method)
    elapsed = time.perf_counter() - start
    properties = {}
    if payment_model in (PaymentModel.NONNEGATIVE, PaymentModel.ARBITRARY):
        properties["budget_balanced"] = flags.pop("budget_balanced")
    # Every solver above raised unless its answer passed its certificate.
    flags["dual_certified"] = True

    report = [
        _describe(instance, args.input),
        f"payment model: {payment_model.value}",
        f"method: {args.method}",
    ]
    report.extend(lines)
    for label, values in (("flags", flags), ("properties", properties)):
        if values:
            pairs = (f"{k}={'yes' if v else 'no'}" for k, v in values.items())
            report.append(f"{label}: " + " ".join(pairs))
    report.append(f"wall time: {elapsed:.3f}s")
    if args.out:
        jsonio.save_json(args.out, doc)
        report.append(f"scheme written to {args.out}")
    else:
        import json as _json

        report.append("scheme JSON:")
        report.append(_json.dumps(doc, indent=2))
    _emit(report)
    return EXIT_OK


# ---------------------------------------------------------------------------
# examples


def cmd_examples(args) -> int:
    from .examples import get_example

    instance = get_example(args.name)
    out = args.out or f"{args.name}.json"
    jsonio.save_instance(out, instance)
    _emit([f"wrote {args.name} to {out}", _describe(instance, out)])
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    from . import verify

    kwargs = dict(
        seeds=args.seeds,
        max_actions=args.max_actions,
        max_states=args.max_states,
        max_receivers=args.max_receivers,
        max_multi_states=args.max_multi_states,
    )
    if args.suite == "all":
        reports = verify.run_all(**kwargs)
    else:
        reports = verify.run_suite(args.suite, **kwargs)

    width = max(len(r.name) for r in reports)
    lines = []
    failed = False
    for report in reports:
        status = "pass" if report.ok else "FAIL"
        lines.append(
            f"{report.suite:10s} {report.name:{width}s} "
            f"{report.passed}/{report.runs} {status}"
        )
        if not report.ok:
            failed = True
            for seed, message in report.failures[:5]:
                lines.append(f"    seed {seed}: {message}")
            for seed, instance in report.counterexamples[:1]:
                path = os.path.join(
                    args.counterexample_dir,
                    f"counterexample-{report.suite}-{report.name}-seed{seed}.json",
                )
                jsonio.save_instance(path, instance)
                lines.append(f"    counterexample written to {path}")
    _emit(lines)
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


# ---------------------------------------------------------------------------
# wiring


def _suite_name(name: str) -> str:
    """The --suite value, checked against verify.SUITES when verify runs."""
    from . import verify

    choices = verify.SUITES + ("all",)
    if name not in choices:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {name!r} (choose from {', '.join(choices)})"
        )
    return name


def _seed_count(text: str) -> int:
    """The --seeds value: at least one seed, so every campaign runs."""
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {count}")
    return count


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="persuade",
        description=(
            "Exact solvers for persuasion with payments: single-receiver "
            "and binary-action multi-receiver instances."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one instance file")
    solve.add_argument("input", help="instance JSON path")
    solve.add_argument(
        "--model",
        choices=MODELS,
        default=None,
        help="payment model (default: the instance's payment_model field)",
    )
    solve.add_argument("--method", choices=METHODS, default="lp")
    solve.add_argument("--out", default=None, help="write scheme JSON here")
    solve.set_defaults(func=cmd_solve)

    examples_cmd = sub.add_parser(
        "examples", help="write a built-in instance to disk"
    )
    examples_cmd.add_argument("name", help="example name, e.g. sec4_1 or sec4_2")
    examples_cmd.add_argument("--out", default=None)
    examples_cmd.set_defaults(func=cmd_examples)

    verify_cmd = sub.add_parser(
        "verify", help="run the seeded property campaigns"
    )
    verify_cmd.add_argument(
        "--suite",
        type=_suite_name,
        default="all",
        help="one suite of campaigns, or all (the default)",
    )
    verify_cmd.add_argument("--seeds", type=_seed_count, default=50)
    verify_cmd.add_argument("--max-actions", type=int, default=3)
    verify_cmd.add_argument("--max-states", type=int, default=3)
    verify_cmd.add_argument("--max-receivers", type=int, default=3)
    verify_cmd.add_argument("--max-multi-states", type=int, default=6)
    verify_cmd.add_argument("--counterexample-dir", default=".")
    verify_cmd.set_defaults(func=cmd_verify)
    return parser


# The exit code of each error a command may raise; any other propagates.
_EXIT_CODES = (
    (ValidationFailed, EXIT_INVALID_INPUT),
    (MalformedRational, EXIT_INVALID_INPUT),
    (UnknownExample, EXIT_INVALID_INPUT),
    (InvalidSetting, EXIT_INVALID_INPUT),
    (OSError, EXIT_INVALID_INPUT),
    (NotSymmetric, EXIT_PRECONDITION),
    (WrongActionCount, EXIT_PRECONDITION),
    (PositiveExternalityViolated, EXIT_PRECONDITION),
    (NonMonotoneSender, EXIT_PRECONDITION),
    (UnsupportedMethod, EXIT_PRECONDITION),
    (CharacterizationMismatch, EXIT_MISMATCH),
    (OracleUnsound, EXIT_MISMATCH),
    (SizeLimitExceeded, EXIT_SIZE_LIMIT),
    (IterationLimit, EXIT_ITERATION_LIMIT),
    (CertificateFailed, EXIT_CERTIFICATE),
)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else (0 if code is None else 2)
    try:
        return args.func(args)
    except (PersuadeError, OSError) as exc:
        code = next((c for kind, c in _EXIT_CODES if isinstance(exc, kind)), None)
        if code is None:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
