"""The seeded batch of operations for each workload.

Imported only by the measured worker, after ``src/`` is on ``sys.path``.
A batch is a list of operations grouped by instance: the operations of
one instance are contiguous, so the checker can compare them with each
other (fast path against LP, nesting of the payment models) as soon as
the group is complete.  Each operation's ``call`` holds only program
calls and is what gets timed; ``record`` turns its result into plain
JSON for the checker, outside the timed region.

Instance seeds are derived from the workload seed as ``seed * 100 + k``,
so the same ``--seed`` always gives the same instances.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Union

from persuade import examples, jsonio, model, multi, reduction, single
from persuade.model import (
    MultiAgentInstance,
    PaymentModel,
    PersuasionInstance,
    TypedInstance,
)

ZERO = PaymentModel.ZERO
NONNEG = PaymentModel.NONNEGATIVE
BUDGET = PaymentModel.BUDGET_BALANCED
ARB = PaymentModel.ARBITRARY

# The hard case of the symmetric fast paths: 4 actions, 3 iid types, 81
# states, 1,326 Bland pivots under arbitrary payments.  Always included,
# whatever the workload seed.
HARD_SEED = 108


@dataclass
class Op:
    instance: str
    model: str
    method: str
    # The timed program calls; for cli_solve, the `persuade solve` argv.
    call: Union[Callable[[], object], list]
    record: Optional[Callable[[object], dict]]


@dataclass
class Batch:
    ops: list
    instances: dict  # instance id -> plain JSON description
    describe: str


# ---------------------------------------------------------------------------
# Plain JSON renderings, written by this module and read by checks.py


def _s(value: Fraction) -> str:
    return str(value)


def _vec(values) -> list:
    return [str(v) for v in values]


def instance_json(instance) -> dict:
    if isinstance(instance, PersuasionInstance):
        return {
            "kind": "single",
            "actions": instance.actions,
            "states": [
                [_s(st.prob), _vec(st.sender), _vec(st.receiver)]
                for st in instance.states
            ],
        }
    if isinstance(instance, TypedInstance):
        return {
            "kind": "typed",
            "actions": instance.actions,
            "types": [[_s(t.sender), _s(t.receiver)] for t in instance.types],
            "iid": None
            if instance.iid_marginal is None
            else _vec(instance.iid_marginal),
            "joint": None
            if instance.joint is None
            else [[list(p), _s(q)] for p, q in instance.joint],
        }
    if isinstance(instance, MultiAgentInstance):
        return {
            "kind": "multi",
            "receivers": instance.receivers,
            "states": [
                [_s(st.prob), _vec(st.sender), [_vec(t) for t in st.receivers]]
                for st in instance.states
            ],
        }
    raise TypeError(type(instance).__name__)


def single_scheme(scheme, utility) -> dict:
    return {
        "utility": _s(utility),
        "dist": [_vec(row) for row in scheme.distribution],
        "pay": _vec(scheme.payments),
    }


def multi_scheme(scheme, utility) -> dict:
    return {
        "utility": _s(utility),
        "dist": [_vec(row) for row in scheme.distribution],
        "q1": _vec(scheme.q_one),
        "q0": _vec(scheme.q_zero),
    }


# ---------------------------------------------------------------------------
# symmetric_lp


def _symmetric_fast(pm):
    if pm is ZERO:
        def run(inst):
            sweep = single.find_lambda_star(inst, cross_check=False)
            return sweep.scheme, sweep.utility
    elif pm is NONNEG:
        def run(inst):
            outcome = single.nonnegative_dichotomy(inst, verify=False)
            return outcome.result.scheme, outcome.result.utility
    else:
        def run(inst):
            result = single.canonical_symmetric_scheme(inst, verify=False)
            return result.scheme, result.utility
    return run


def _lp_and_fast_op(key, inst, pm) -> Op:
    fast = _symmetric_fast(pm)

    def call():
        return single.solve_optimal(inst, pm), fast(inst)

    def record(out):
        result, (scheme, utility) = out
        return {
            "lp": single_scheme(result.scheme, result.utility),
            "fast": single_scheme(scheme, utility),
        }

    return Op(key, pm.value, "lp+fast", call, record)


# (actions, types) -> instances per prior (iid and symmetrized joint).
# The 8-state shape is the large majority on purpose.  Its solves fall in
# three clusters by model (zero ~ nonnegative < arbitrary), and with few
# larger operations the median operation lands in the middle of the
# nonnegative cluster rather than in a gap between clusters, so it moves
# little from seed to seed.
SYMMETRIC_SHAPES = {(3, 2): 80, (4, 2): 1, (3, 3): 1}  # 8, 16, 27 states


def symmetric_lp(seed: int) -> Batch:
    groups, instances = [], {}
    k = 0
    for (actions, types), count in SYMMETRIC_SHAPES.items():
        for _ in range(count):
            for joint in (False, True):
                k += 1
                inst = model.random_instance(
                    seed * 100 + k,
                    actions=actions,
                    symmetric=True,
                    types=types,
                    joint=joint,
                )
                key = f"sym{k}"
                instances[key] = instance_json(inst)
                groups.append([_lp_and_fast_op(key, inst, pm) for pm in (ZERO, NONNEG, ARB)])
    hard = model.random_instance(HARD_SEED, actions=4, symmetric=True, types=3)
    instances["hard108"] = instance_json(hard)
    # The hard solve goes in the middle, so that the short solves, which
    # set the median, sample the machine's speed both before and after it.
    groups.insert(len(groups) // 2, [_lp_and_fast_op("hard108", hard, ARB)])
    ops = [op for group in groups for op in group]
    describe = (
        f"{k} typed instances (per prior, iid and symmetrized joint: "
        + ", ".join(
            f"{c} of {a} actions x {t} types" for (a, t), c in SYMMETRIC_SHAPES.items()
        )
        + ") under "
        "zero, nonnegative and arbitrary payments, LP plus fast path; plus "
        f"random_instance({HARD_SEED}, actions=4, symmetric=True, types=3) "
        "under arbitrary payments"
    )
    return Batch(ops, instances, describe)


# ---------------------------------------------------------------------------
# random_lp


def _single_op(key, inst, pm) -> Op:
    two_action = inst.actions == 2 and pm is ARB

    def call():
        result = single.solve_optimal(inst, pm)
        fast = (
            single.canonical_two_action_scheme(inst, verify=False)
            if two_action
            else None
        )
        return result, fast

    def record(out):
        result, fast = out
        rec = {"lp": single_scheme(result.scheme, result.utility)}
        if fast is not None:
            rec["fast"] = single_scheme(fast.scheme, fast.utility)
        return rec

    return Op(key, pm.value, "lp+fast" if two_action else "lp", call, record)


def _multi_lp_op(key, inst, pm) -> Op:
    def call():
        return multi.solve_lp(inst, pm)

    def record(result):
        return {"lp": multi_scheme(result.scheme, result.utility)}

    return Op(key, pm.value, "lp", call, record)


def _multi_fast_op(key, inst, pm) -> Op:
    solve = multi.solve_budget_balanced if pm is BUDGET else multi.solve_arbitrary

    def call():
        result = solve(inst)
        return result, multi.recover_payments(inst, result.scheme)

    def record(out):
        result, paid = out
        return {
            "fast": multi_scheme(result.scheme, result.utility),
            "recovered": {
                "p1": _vec(paid.p_one),
                "p0": _vec(paid.p_zero),
                "x": _vec(paid.x_star),
            },
        }

    return Op(key, pm.value, "fast", call, record)


def _cutting_plane_op(key, inst) -> Op:
    def call():
        return reduction.cutting_plane_solve(inst)

    def record(result):
        return {"fast": multi_scheme(result.scheme, result.objective)}

    return Op(key, ZERO.value, "cut", call, record)


# Many small instances rather than a few large ones: the seed then moves
# the batch's total work little, and pivot runs stay short.
RANDOM_SINGLE_SHAPES = tuple((a, s) for a in (2, 3, 4) for s in (2, 3, 5))
RANDOM_MULTI_SHAPES = ((2, 2), (2, 4), (2, 6), (3, 2), (3, 3))
RANDOM_CUT_SHAPES = ((2, 3), (3, 3), (3, 5))
RANDOM_PER_SHAPE = 4


def random_lp(seed: int) -> Batch:
    ops, instances = [], {}
    k = 0
    for actions, states in RANDOM_SINGLE_SHAPES * RANDOM_PER_SHAPE:
        k += 1
        inst = model.random_instance(seed * 100 + k, actions=actions, states=states)
        key = f"single{k}"
        instances[key] = instance_json(inst)
        for pm in PaymentModel:
            ops.append(_single_op(key, inst, pm))
    for receivers, states in RANDOM_MULTI_SHAPES * RANDOM_PER_SHAPE:
        k += 1
        inst = model.random_multi_instance(
            seed * 100 + k, receivers=receivers, states=states
        )
        key = f"multi{k}"
        instances[key] = instance_json(inst)
        for pm in PaymentModel:
            ops.append(_multi_lp_op(key, inst, pm))
        ops.append(_multi_fast_op(key, inst, BUDGET))
        ops.append(_multi_fast_op(key, inst, ARB))
    for receivers, states in RANDOM_CUT_SHAPES * RANDOM_PER_SHAPE:
        k += 1
        inst = model.random_multi_instance(
            seed * 100 + k,
            receivers=receivers,
            states=states,
            positive_externalities=True,
            monotone_sender=True,
        )
        key = f"cut{k}"
        instances[key] = instance_json(inst)
        ops.append(_cutting_plane_op(key, inst))
        ops.append(_multi_lp_op(key, inst, ZERO))
    describe = (
        f"{RANDOM_PER_SHAPE} instances per shape: "
        f"{len(RANDOM_SINGLE_SHAPES)} single-receiver shapes (2-4 actions x "
        "2, 3, 5 states) under all four models; "
        f"{len(RANDOM_MULTI_SHAPES)} multi-receiver shapes "
        "(receivers x states: "
        + ", ".join(f"{r}x{s}" for r, s in RANDOM_MULTI_SHAPES)
        + ") through solve_lp under all four models plus solve_budget_balanced "
        "and solve_arbitrary with recover_payments; "
        f"{len(RANDOM_CUT_SHAPES)} positive-externality monotone shapes "
        "("
        + ", ".join(f"{r}x{s}" for r, s in RANDOM_CUT_SHAPES)
        + ") through cutting_plane_solve and the zero-payment solve_lp"
    )
    return Batch(ops, instances, describe)


# ---------------------------------------------------------------------------
# cli_solve

# (file, model, method) in the order they run; one group per file.
CLI_RUNS = (
    ("sec4_1", "arbitrary", "lp"),
    ("sec4_1", "arbitrary", "fast"),
    ("sec4_2", "zero", "lp"),
    ("sec4_2", "nonnegative", "lp"),
    ("sec4_2", "budget_balanced", "lp"),
    ("sec4_2", "arbitrary", "lp"),
    ("sec4_2", "arbitrary", "fast"),
    ("typed_iid", "zero", "fast"),
    ("typed_iid", "nonnegative", "fast"),
    ("typed_iid", "arbitrary", "fast"),
    ("typed_iid", "budget_balanced", "lp"),
    ("typed_joint", "zero", "fast"),
    ("typed_joint", "nonnegative", "fast"),
    ("typed_joint", "arbitrary", "fast"),
    ("single", "zero", "lp"),
    ("single", "nonnegative", "lp"),
    ("single", "budget_balanced", "lp"),
    ("single", "arbitrary", "lp"),
    ("multi", "zero", "lp"),
    ("multi", "nonnegative", "lp"),
    ("multi", "budget_balanced", "fast"),
    ("multi", "arbitrary", "fast"),
    ("multi_pe", "zero", "cutting-plane"),
    ("multi_pe", "zero", "lp"),
)


def cli_inputs(seed: int) -> dict:
    return {
        "sec4_1": examples.get_example("sec4_1"),
        "sec4_2": examples.get_example("sec4_2"),
        "typed_iid": model.random_instance(
            seed * 100 + 1, actions=3, symmetric=True, types=2
        ),
        "typed_joint": model.random_instance(
            seed * 100 + 2, actions=3, symmetric=True, types=2, joint=True
        ),
        "single": model.random_instance(seed * 100 + 3, actions=3, states=3),
        "multi": model.random_multi_instance(seed * 100 + 4, receivers=2, states=3),
        "multi_pe": model.random_multi_instance(
            seed * 100 + 5,
            receivers=3,
            states=3,
            positive_externalities=True,
            monotone_sender=True,
        ),
    }


def cli_solve(seed: int, workdir: str) -> Batch:
    """Operations are argv lists for ``persuade solve``; the worker runs them."""
    instances = {}
    paths = {}
    for name, inst in cli_inputs(seed).items():
        path = os.path.join(workdir, f"{name}.json")
        jsonio.save_instance(path, inst)
        instances[name] = instance_json(inst)
        paths[name] = path
    out = os.path.join(workdir, "scheme.json")
    ops = []
    for name, pm, method in CLI_RUNS:
        argv = ["solve", paths[name], "--model", pm, "--method", method, "--out", out]
        ops.append(Op(name, pm, method, argv, None))
    describe = (
        f"{len(CLI_RUNS)} sequential `persuade solve` invocations over the "
        "fixtures sec4_1 and sec4_2 and seeded files: typed 3 actions x 2 types "
        "(iid and joint), single 3 actions x 3 states, multi 2 receivers x 3 "
        "states, positive-externality multi 3 receivers x 3 states; methods "
        "lp, fast (LP cross-check on) and cutting-plane"
    )
    return Batch(ops, instances, describe)


BATCHES = {"symmetric_lp": symmetric_lp, "random_lp": random_lp}
