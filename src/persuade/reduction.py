"""Scaling machinery for zero-payment multi-receiver persuasion.

When receivers impose positive externalities on each other (one player
switching to action 1 never lowers another's gain from playing 1) and
the sender's payoff is monotone in the 1-set, the keep-playing-0
constraint family is redundant: any scheme optimal without it can be
repaired into one satisfying it at no cost, by pushing recommendation
mass up the subset lattice.  Dropping that family leaves a program
whose dual has one non-negative weight per receiver and one value per
state, so the whole problem reduces to repeatedly maximizing weighted
combinations of the payoff set functions.  This module provides the
validation checks, the reduced program, the constructive repair, and a
cutting-plane solver driven by a pluggable set-function argmax oracle,
with a brute-force oracle for explicitly enumerable instances.

All arithmetic is exact.  Every cutting-plane run ends with an
exhaustive feasibility check of the final dual over all subset rows;
an oracle that ever failed to report a violated row is unmasked there.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from fractions import Fraction

from . import lp, model, multi
from ._record import record
from .errors import (
    CertificateFailed,
    CharacterizationMismatch,
    IterationLimit,
    NonMonotoneSender,
    OracleUnsound,
    PositiveExternalityViolated,
    SizeLimitExceeded,
)
from .model import MultiAgentInstance, MultiAgentScheme
from .multi import _marginal
from .rationals import over_common

ZERO = Fraction(0)

SetFunctionOracle = Callable[[int, Sequence[Fraction]], tuple]


# ---------------------------------------------------------------------------
# Structural checks


def check_positive_externalities(instance: MultiAgentInstance) -> tuple:
    """Whether no receiver's switching gain drops as others join the 1-set.

    Exhaustively verifies g_i(S) >= g_i(S minus j) for every state, every
    set S, every member i, and every other member j, where g_i is
    receiver i's marginal utility for playing 1.  Returns (True, None)
    or (False, witness) with the first violating (state, set, i, j).
    """
    model.ensure_valid(instance)
    n = instance.receivers
    for t, gains in enumerate(instance.coding.gain):
        for subset in range(1 << n):
            for i, g in enumerate(gains):
                if not (subset >> i) & 1:
                    continue
                for j in range(n):
                    if j == i or not (subset >> j) & 1:
                        continue
                    if g[subset] < g[subset & ~(1 << j)]:
                        return False, (t, subset, i, j)
    return True, None


def check_monotone_sender(instance: MultiAgentInstance) -> tuple:
    """Whether the sender payoff never drops when the 1-set grows.

    Returns (True, None) or (False, witness) with the first
    (state, set, added receiver) where adding the receiver lowers it.
    """
    model.ensure_valid(instance)
    n = instance.receivers
    for t, state in enumerate(instance.states):
        for subset in range(1 << n):
            for i in range(n):
                if (subset >> i) & 1:
                    continue
                if state.sender[subset | (1 << i)] < state.sender[subset]:
                    return False, (t, subset, i)
    return True, None


def _require_reducible(instance: MultiAgentInstance) -> None:
    ok, witness = check_positive_externalities(instance)
    if not ok:
        t, subset, i, j = witness
        raise PositiveExternalityViolated(
            f"receiver {i}'s switching gain at set {subset:#b} in state {t} "
            f"drops when receiver {j} is present"
        )
    ok, witness = check_monotone_sender(instance)
    if not ok:
        t, subset, i = witness
        raise NonMonotoneSender(
            f"sender payoff drops when receiver {i} joins set {subset:#b} "
            f"in state {t}"
        )


# ---------------------------------------------------------------------------
# The reduced program: keep-playing-0 rows removed


@record
class DroppedLpResult:
    """Certified solve of the reduced program."""

    instance: MultiAgentInstance
    scheme: MultiAgentScheme
    utility: Fraction
    problem: lp.LpProblem
    solution: lp.LpSolution


def build_lp_dropped(instance: MultiAgentInstance) -> lp.LpProblem:
    """Zero-payment subset LP without the keep-playing-0 rows.

    multi.build_lp_binary's layout less its follow0 rows: column
    t * 2^N + S, then the follow1 rows, then one distribution row per
    state.  Refuses instances lacking positive externalities or a
    monotone sender, since only those guarantee the dropped rows are
    free.
    """
    _require_reducible(instance)
    full = multi.build_lp_binary(instance, model.PaymentModel.ZERO)
    kept = tuple(
        c for c in full.constraints if not c.name.startswith("follow0")
    )
    return lp.LpProblem(
        objective=full.objective,
        free=full.free,
        constraints=kept,
        den=full.den,
    )


def solve_dropped(instance: MultiAgentInstance) -> DroppedLpResult:
    """Solve the reduced program exactly with a certified optimum."""
    problem = build_lp_dropped(instance)
    solution = lp.certified_solve(problem)
    nsub = instance.num_subsets
    primal = solution.primal
    distribution = tuple([primal[k : k + nsub] for k in range(0, len(primal), nsub)])
    zeros = (ZERO,) * instance.receivers
    scheme = MultiAgentScheme(distribution=distribution, q_one=zeros, q_zero=zeros)
    return DroppedLpResult(
        instance=instance,
        scheme=scheme,
        utility=solution.objective,
        problem=problem,
        solution=solution,
    )


# ---------------------------------------------------------------------------
# Constructive repair


def _move_bound(receivers: int, support: int) -> int:
    """Most moves a repair makes: each lifts a mass one lattice level."""
    return receivers * support


def repair_scheme(
    instance: MultiAgentInstance, scheme: MultiAgentScheme
) -> MultiAgentScheme:
    """Make a reduced-program solution obey the keep-playing-0 rows.

    While some receiver told 0 would gain in expectation by switching
    to 1, move all recommendation mass from a witnessing set to the
    same set with that receiver added.  Positive externalities keep
    every keep-playing-1 row satisfied throughout, and sender
    monotonicity keeps the objective from dropping, so the output is
    feasible for the full program at no less utility.  Receivers are
    scanned in index order; mass only ever moves up the subset lattice,
    so the move count is bounded by receivers times the initial
    support size.
    """
    _require_reducible(instance)
    if any(scheme.q_one) or any(scheme.q_zero):
        raise ValueError("repair applies to zero-payment schemes only")
    n = instance.receivers
    dist = [list(row) for row in scheme.distribution]
    bound = _move_bound(n, sum(1 for row in dist for p in row if p > 0))
    before = multi.sender_value(instance, scheme)

    moves = 0
    while True:
        _, switch_zero = multi.incentive_totals(instance, dist)
        target = next((i for i in range(n) if switch_zero[i] > 0), None)
        if target is None:
            break
        moved = False
        for t, state in enumerate(instance.states):
            if not state.prob:
                continue
            for subset, p in enumerate(dist[t]):
                if not p or (subset >> target) & 1:
                    continue
                grown = subset | (1 << target)
                if _marginal(state, target, grown) > 0:
                    dist[t][grown] += p
                    dist[t][subset] = ZERO
                    moved = True
                    break
            if moved:
                break
        if not moved:
            raise CharacterizationMismatch(
                "violated keep-playing-0 row without a positive-gain witness"
            )
        moves += 1
        if moves > bound:
            raise CharacterizationMismatch(
                "repair exceeded its structural move bound"
            )

    if not moves:
        return scheme
    repaired = MultiAgentScheme(
        distribution=tuple(tuple(row) for row in dist),
        q_one=scheme.q_one,
        q_zero=scheme.q_zero,
    )
    if not multi.is_persuasive(instance, repaired):
        raise CharacterizationMismatch("repair left a violated row")
    if multi.sender_value(instance, repaired) < before:
        raise CharacterizationMismatch("repair lost value")
    return repaired


# ---------------------------------------------------------------------------
# Set-function oracle


def oracle_objective(
    instance: MultiAgentInstance,
    theta: int,
    alpha: Sequence[Fraction],
    subset: int,
) -> Fraction:
    """Weighted marginal mass plus sender payoff of one set in one state."""
    state = instance.states[theta]
    total = state.sender[subset]
    for i in range(instance.receivers):
        if (subset >> i) & 1:
            total += alpha[i] * _marginal(state, i, subset)
    return total


def brute_force_oracle(instance: MultiAgentInstance) -> SetFunctionOracle:
    """Exhaustive argmax over all subsets, smallest bitmask on ties.

    Returns a callable taking a state index and non-negative receiver
    weights and producing (best set, exact objective value).  Scaling
    all weights and the sender payoff by a common positive factor
    leaves the returned set unchanged.
    """
    model.ensure_valid(instance)
    nsub = instance.num_subsets
    limit = model.size_limit()
    if nsub > limit:
        raise SizeLimitExceeded(
            f"{nsub} subsets exceed the configured limit {limit}"
        )

    code = instance.coding

    def query(theta: int, alpha: Sequence[Fraction]) -> tuple:
        if len(alpha) != instance.receivers:
            raise ValueError("one weight per receiver required")
        if any(a < 0 for a in alpha):
            raise ValueError("weights must be non-negative")
        # The objective over a_den * D, in ints.
        weights, a_den = over_common(alpha)
        values = [a_den * f for f in code.sender[theta]]
        for i, (w, g) in enumerate(zip(weights, code.gain[theta])):
            if w:
                for subset in range(nsub):
                    if (subset >> i) & 1:
                        values[subset] += w * g[subset]
        best = max(values)
        return values.index(best), Fraction(best, a_den * code.payoff_den)

    return query


# ---------------------------------------------------------------------------
# Cutting-plane solver


@record
class CuttingPlaneResult:
    """Certified output of the constraint-generation solver.

    alpha and y are the final multipliers of the reduced program's
    dual; generated lists the (state, set) rows the run materialized,
    seeds included; the scheme is post-repair and satisfies both
    incentive families with zero payments.
    """

    instance: MultiAgentInstance
    scheme: MultiAgentScheme
    alpha: tuple
    y: tuple
    objective: Fraction
    generated: tuple
    rounds: int


def _restricted_dual(code: model.MultiCoding, rows) -> lp.LpProblem:
    """Maximize -sum(y) over alpha >= 0 and free y, one >= row per (state, set)."""
    n, m = code.receivers, len(code.mass)
    unit = code.unit
    objective = [0] * n + [-unit] * m
    constraints = []
    for t, subset in rows:
        mass = code.mass[t]
        coeffs = [(n + t, unit)]
        for i, g in enumerate(code.gain[t]):
            if (subset >> i) & 1 and mass * g[subset]:
                coeffs.append((i, -mass * g[subset]))
        constraints.append(
            lp.LinearConstraint(
                coeffs=tuple(coeffs),
                rel=lp.GE,
                rhs=mass * code.sender[t][subset],
                name=f"cut[{t},{subset}]",
            )
        )
    return lp.LpProblem(
        objective=tuple(objective),
        free=(False,) * n + (True,) * m,
        constraints=tuple(constraints),
        den=unit,
    )


def cutting_plane_solve(
    instance: MultiAgentInstance, oracle: SetFunctionOracle | None = None
) -> CuttingPlaneResult:
    """Solve the reduced program by constraint generation.

    Works on the dual: minimize the sum of per-state values subject to
    one row per (state, set) pair, starting from the empty and full
    sets in every state and asking the oracle for a most-violated set
    per state each round; a returned row is added only when it is
    exactly violated.  When no violations remain the restricted
    optimum is optimal for the reduced program; the recommendation
    distribution is read from that solve's certified duals, one per
    generated row (the restricted program over the generated sets is
    its LP dual), then repaired into a solution of the full program.
    The final multipliers are checked against every subset row
    exhaustively; any violation there, or an oracle value that
    disagrees with direct evaluation, raises OracleUnsound.
    """
    if oracle is None:
        # Validates and sizes the instance before anything codes it.
        oracle = brute_force_oracle(instance)
    _require_reducible(instance)
    n, m = instance.receivers, instance.num_states
    nsub = instance.num_subsets
    full_mask = nsub - 1
    code = instance.coding

    rows = []
    for t in range(m):
        rows.append((t, 0))
        if full_mask:
            rows.append((t, full_mask))
    present = set(rows)

    max_rounds = nsub * m + 4
    rounds = 0
    alpha: tuple = ()
    y: tuple = ()
    while True:
        rounds += 1
        if rounds > max_rounds:
            raise IterationLimit(
                f"constraint generation still running after {max_rounds} rounds"
            )
        solution = lp.certified_solve(_restricted_dual(code, rows))
        alpha = tuple(solution.primal[i] for i in range(n))
        y = tuple(solution.primal[n + t] for t in range(m))
        added = False
        for t in range(m):
            subset, value = oracle(t, alpha)
            if not 0 <= subset < nsub:
                raise OracleUnsound(f"oracle returned set {subset} in state {t}")
            if value != oracle_objective(instance, t, alpha, subset):
                raise OracleUnsound(
                    f"oracle value for set {subset:#b} in state {t} "
                    "disagrees with direct evaluation"
                )
            prob = instance.states[t].prob
            if y[t] < prob * value:
                if (t, subset) in present:
                    raise CertificateFailed(f"certified row {t, subset} is violated")
                rows.append((t, subset))
                present.add((t, subset))
                added = True
        if not added:
            break
    objective = -solution.objective

    # Every row in ints, times the multipliers' common denominator and
    # code.unit.
    multipliers, den = over_common(alpha + y)
    weights = multipliers[:n]
    for t, (mass, sender, gains) in enumerate(zip(code.mass, code.sender, code.gain)):
        value = multipliers[n + t] * code.unit
        for subset in range(nsub):
            lhs = value
            for i, (w, g) in enumerate(zip(weights, gains)):
                if (subset >> i) & 1:
                    lhs -= w * mass * g[subset]
            if lhs < mass * sender[subset] * den:
                raise OracleUnsound(
                    f"final multipliers violate the row for set {subset:#b} "
                    f"in state {t}; the oracle never reported it"
                )

    # The restricted primal is the last restricted dual's LP dual, so that
    # solve's certified duals, one per generated row, are its optimum,
    # negated: the rows are >= rows of a maximization.
    dist = [[ZERO] * nsub for _ in range(m)]
    for (t, subset), x in zip(rows, solution.dual):
        dist[t][subset] = -x
    zeros = (ZERO,) * n
    scheme = MultiAgentScheme(
        distribution=tuple(tuple(row) for row in dist),
        q_one=zeros,
        q_zero=zeros,
    )
    repaired = repair_scheme(instance, scheme)
    if multi.sender_value(instance, repaired) != objective:
        raise CharacterizationMismatch("repair changed the objective")

    return CuttingPlaneResult(
        instance=instance,
        scheme=repaired,
        alpha=alpha,
        y=y,
        objective=objective,
        generated=tuple(rows),
        rounds=rounds,
    )
