"""Multi-receiver binary-action persuasion with externalities.

Each of N receivers picks action 0 or 1.  A state assigns the sender a
payoff f(S) and receiver i a payoff u_i(S) for every set S of receivers
playing 1 (S is a bitmask, receiver 0 at the least significant bit).
Direct schemes recommend a random set per state; persuasiveness splits
into two constraint families: receivers told 1 must not gain by playing
0, and receivers told 0 must not gain by playing 1.  Payments enter as
expected amounts Q_i(1), Q_i(0) attached to the two recommendations;
per-recommendation transfers are recovered from them at the end.

The budget-balanced optimum is characterized by a single weight gamma*:
an optimal scheme recommends sets maximizing the sender payoff plus
gamma* times the net marginal pull of the set (members' marginal utility
for playing 1 minus outsiders' gain from switching to 1).  With
unrestricted payments the weight is 1 and the rule maximizes total
payoff.  The budget-balanced path solves the exact LP once for gamma*,
and that LP's dual certifies the reconstructed scheme; the unrestricted
one solves none, as alpha = beta = gamma = 1 certifies its answer on the
full LP (lift).

The LP build, the virtual-payoff argmax, the gamma grid and the scheme
evaluations compute in ints on the instance's coding (instance.coding:
masses and payoffs over one common denominator, and the pulls, which do
not depend on gamma, built once and kept with the instance); only the
returned values become Fractions.  The gamma sweep tries each distinct
allocation once.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from . import lp, model
from ._record import record
from .errors import (
    InconsistentPayments,
    SizeLimitExceeded,
)
from .model import (
    MultiAgentInstance,
    MultiAgentScheme,
    MultiCoding,
    MultiState,
    PaymentModel,
)
from .rationals import breakpoint_grid

ZERO = Fraction(0)
ONE = Fraction(1)

# ---------------------------------------------------------------------------
# Result containers


@record
class MultiDual:
    """Multipliers for the subset LP.

    alpha[i] prices receiver i's keep-playing-1 row and beta[i] the
    keep-playing-0 row (both non-negative in a certified dual).  gamma
    is the virtual-payoff weight implied by the payment columns: under
    budget balance it is one plus the budget row's dual, with
    unrestricted payments it is exactly one, and it is None when the
    payment model pins no weight.  y holds the per-state distribution
    duals.
    """

    alpha: tuple
    beta: tuple
    gamma: Fraction | None
    y: tuple


@record
class MultiLpResult:
    """Certified LP solve of a multi-receiver instance."""

    instance: MultiAgentInstance
    payment_model: PaymentModel
    scheme: MultiAgentScheme
    utility: Fraction
    dual: MultiDual
    problem: lp.LpProblem
    solution: lp.LpSolution


@record
class BudgetBalancedResult:
    """Budget-balanced optimum in virtual-payoff form.

    via records how the scheme was reconstructed: "argmax" for the
    deterministic argmax allocation at the dual's gamma*, "gamma_sweep"
    for a deterministic allocation found at a swept candidate gamma, and
    "lp_support" for the LP scheme itself.  gamma_star is the weight the
    allocation was found at: the swept gamma on "gamma_sweep", the LP's
    gamma* (dual.gamma) otherwise.  dual, the LP's, certifies the scheme
    on every route.
    """

    instance: MultiAgentInstance
    scheme: MultiAgentScheme
    utility: Fraction
    dual: MultiDual
    gamma_star: Fraction
    via: str


@record
class ArbitraryResult:
    """Unrestricted-payment optimum: total-payoff argmax plus payments."""

    instance: MultiAgentInstance
    scheme: MultiAgentScheme
    utility: Fraction
    dual: MultiDual  # alpha = beta = gamma = 1, or the LP's where that fails (see lift)


@record
class RealizedPayments:
    """Per-recommendation transfers recovered from expected payments.

    p_one[i] is paid to receiver i each time it is told 1, p_zero[i]
    each time it is told 0; x_star[i] is the probability of the 1
    recommendation.
    """

    p_one: tuple
    p_zero: tuple
    x_star: tuple


# ---------------------------------------------------------------------------
# Marginal utilities and the virtual payoff


def _marginal(state: MultiState, i: int, subset: int) -> Fraction:
    """Receiver i's marginal utility for playing 1 at the given set.

    Returns u_i(S) - u_i(S minus i) for i in S and 0 otherwise.
    """
    if not (subset >> i) & 1:
        return ZERO
    return state.receivers[i][subset] - state.receivers[i][subset & ~(1 << i)]


def _virtual_values(code: MultiCoding, gamma: Fraction) -> list:
    """Per state, the virtual payoff of every set at gamma, times b * D.

    For gamma = a/b (b > 0) that is b*f + a*pull, an int.
    """
    a, b = gamma.numerator, gamma.denominator
    return [
        [b * f + a * p for f, p in zip(sender, pull)]
        for sender, pull in zip(code.sender, code.pull)
    ]


def _argmax(code: MultiCoding, gamma: Fraction) -> tuple:
    """Per state, the smallest bitmask maximizing the virtual payoff at gamma."""
    return tuple([values.index(max(values)) for values in _virtual_values(code, gamma)])


# ---------------------------------------------------------------------------
# Scheme evaluation


def _evaluate(code: MultiCoding, distribution) -> tuple:
    """Sender payoff and incentive totals of a distribution, in ints.

    Returns (sender, follow_one, switch_zero, den): the expected sender
    payoff and, per receiver, incentive_totals' two sums, all over den,
    code.unit times the distribution's common denominator.
    """
    p_den = lcm(*[p.denominator for row in distribution for p in row])
    n = code.receivers
    sender_total = 0
    follow_one = [0] * n
    switch_zero = [0] * n
    for mass, sender, gains, row in zip(
        code.mass, code.sender, code.gain, distribution
    ):
        if not mass:
            continue
        for subset, p in enumerate(row):
            if not p:
                continue
            w = mass * p.numerator * (p_den // p.denominator)
            sender_total += w * sender[subset]
            for i, g in enumerate(gains):
                if (subset >> i) & 1:
                    follow_one[i] += w * g[subset]
                else:
                    switch_zero[i] += w * g[subset]
    return sender_total, follow_one, switch_zero, code.unit * p_den


def incentive_totals(instance: MultiAgentInstance, distribution) -> tuple:
    """Expected incentive mass of each receiver's two recommendations.

    Returns (follow_one, switch_zero): follow_one[i] is the expected
    marginal utility of playing 1 when told 1, switch_zero[i] the
    expected gain from switching to 1 when told 0.  A scheme with
    payments (q_one, q_zero) is persuasive exactly when
    follow_one[i] + q_one[i] >= 0 and switch_zero[i] - q_zero[i] <= 0.
    """
    _, follow_one, switch_zero, den = _evaluate(instance.coding, distribution)
    return (
        tuple([Fraction(v, den) for v in follow_one]),
        tuple([Fraction(v, den) for v in switch_zero]),
    )


def is_persuasive(instance: MultiAgentInstance, scheme: MultiAgentScheme) -> bool:
    """Whether both incentive families hold given the expected payments."""
    _, follow_one, switch_zero, den = _evaluate(instance.coding, scheme.distribution)
    return all(
        f * q1.denominator + q1.numerator * den >= 0
        and s * q0.denominator - q0.numerator * den <= 0
        for f, s, q1, q0 in zip(
            follow_one, switch_zero, scheme.q_one, scheme.q_zero, strict=True
        )
    )


def sender_value(instance: MultiAgentInstance, scheme: MultiAgentScheme) -> Fraction:
    """Expected sender payoff net of expected payments."""
    sender, _, _, den = _evaluate(instance.coding, scheme.distribution)
    return Fraction(sender, den) - total_payments(scheme)


def total_payments(scheme: MultiAgentScheme) -> Fraction:
    """Sum of all expected payments; zero under budget balance."""
    return sum(scheme.q_one, ZERO) + sum(scheme.q_zero, ZERO)


# ---------------------------------------------------------------------------
# The explicit LP


def _require_size(instance: MultiAgentInstance) -> None:
    """Validate the instance and raise SizeLimitExceeded, before it is
    coded, when its subset LP's scheme columns exceed model.size_limit()."""
    model.ensure_valid(instance)
    cols = instance.num_subsets * instance.num_states
    limit = model.size_limit()
    if cols > limit:
        raise SizeLimitExceeded(
            f"{cols} scheme columns exceed the configured limit {limit}"
        )


def build_lp_binary(
    instance: MultiAgentInstance, payment_model: PaymentModel
) -> lp.LpProblem:
    """LP over per-state subset probabilities and expected payments.

    Its layout, which _claim writes and solve_lp and _read_dual read:
    column t * 2^N + S is the probability that state t recommends set S;
    then, unless payments are disallowed, Q_i(1) at m * 2^N + i and
    Q_i(0) at m * 2^N + N + i.  The rows are every receiver's
    keep-playing-1 row follow1[i] (expected marginal of the
    1-recommendation plus Q_i(1) at least 0), then every receiver's
    keep-playing-0 row follow0[i] (expected switching gain of the
    0-recommendation minus Q_i(0) at most 0); then one distribution row
    per state; under budget balance, last, one row forcing total
    expected payments to zero.
    """
    _require_size(instance)
    nsub = instance.num_subsets
    m = instance.num_states
    n = instance.receivers
    cols = nsub * m
    with_pay = payment_model is not PaymentModel.ZERO

    # Stated in ints over code.unit: masses times payoffs (or payoff
    # differences), and +-unit where the LP has +-1.
    code = instance.coding
    unit = code.unit
    objective = [
        mass * f for mass, sender in zip(code.mass, code.sender) for f in sender
    ]
    free = [False] * cols
    if with_pay:
        objective += [-unit] * (2 * n)
        free += [payment_model is not PaymentModel.NONNEGATIVE] * (2 * n)

    constraints = []
    follow_zero = []
    for i in range(n):
        bit = 1 << i
        one, zero = [], []
        for t, (mass, gains) in enumerate(zip(code.mass, code.gain)):
            if not mass:
                continue
            base = t * nsub
            for subset, g in enumerate(gains[i]):
                if g:
                    coeff = (base + subset, mass * g)
                    (one if subset & bit else zero).append(coeff)
        if with_pay:
            one.append((cols + i, unit))
            zero.append((cols + n + i, -unit))
        constraints.append(
            lp.LinearConstraint(
                coeffs=tuple(one), rel=lp.GE, rhs=0, name=f"follow1[{i}]"
            )
        )
        follow_zero.append(
            lp.LinearConstraint(
                coeffs=tuple(zero), rel=lp.LE, rhs=0, name=f"follow0[{i}]"
            )
        )
    constraints += follow_zero
    for t in range(m):
        base = t * nsub
        constraints.append(
            lp.LinearConstraint(
                coeffs=tuple([(base + subset, unit) for subset in range(nsub)]),
                rel=lp.EQ,
                rhs=unit,
                name=f"dist[{t}]",
            )
        )
    if payment_model is PaymentModel.BUDGET_BALANCED:
        coeffs = [(cols + k, unit) for k in range(2 * n)]
        constraints.append(
            lp.LinearConstraint(
                coeffs=tuple(coeffs), rel=lp.EQ, rhs=0, name="budget"
            )
        )

    return lp.LpProblem(
        objective=tuple(objective),
        free=tuple(free),
        constraints=tuple(constraints),
        den=unit,
    )


def solve_lp(
    instance: MultiAgentInstance, payment_model: PaymentModel
) -> MultiLpResult:
    """Solve the subset LP exactly and attach the certified dual."""
    problem = build_lp_binary(instance, payment_model)
    solution = lp.certified_solve(problem)

    # build_lp_binary's columns: the sets state by state, then Q(1), Q(0).
    nsub, m, n = instance.num_subsets, instance.num_states, instance.receivers
    cols = nsub * m
    primal, duals = solution.primal, solution.dual
    distribution = tuple([primal[k : k + nsub] for k in range(0, cols, nsub)])
    if payment_model is PaymentModel.ZERO:
        q_one = q_zero = (ZERO,) * n
    else:
        q_one, q_zero = primal[cols : cols + n], primal[cols + n : cols + 2 * n]
    scheme = MultiAgentScheme(distribution=distribution, q_one=q_one, q_zero=q_zero)

    if payment_model is PaymentModel.BUDGET_BALANCED:
        # The objective charges each payment column -1 and the budget row,
        # the last, adds its dual to the same column, so the weight the
        # dual prices marginal utilities at is one plus the raw budget dual.
        gamma: Fraction | None = ONE + duals[-1]
    elif payment_model is PaymentModel.ARBITRARY:
        gamma = ONE
    else:
        gamma = None
    dual = _read_dual(duals, n, m, gamma)

    return MultiLpResult(
        instance=instance,
        payment_model=payment_model,
        scheme=scheme,
        utility=solution.objective,
        dual=dual,
        problem=problem,
        solution=solution,
    )


def _read_dual(duals, n: int, m: int, gamma) -> MultiDual:
    """The multipliers of a dual of build_lp_binary's LP, with weight gamma.

    Its follow1 rows are >=-rows, with non-positive duals in max
    convention, and its follow0 rows <=-rows, with non-negative ones;
    alpha and beta are the non-negative multipliers.
    """
    return MultiDual(
        alpha=tuple([-d for d in duals[:n]]),
        beta=tuple(duals[n : 2 * n]),
        gamma=gamma,
        y=tuple(duals[2 * n : 2 * n + m]),
    )


def _claim(
    payment_model: PaymentModel,
    scheme: MultiAgentScheme,
    utility: Fraction,
    dual: MultiDual,
) -> lp.LpSolution:
    """An answer written in build_lp_binary's layout as an optimal pair.

    The primal is the scheme state by state, then Q(1) and Q(0) unless
    payments are disallowed.  The rows carry -alpha, beta, y and, under
    budget balance, gamma - 1: _read_dual undone.
    """
    primal = [p for row in scheme.distribution for p in row]
    if payment_model is not PaymentModel.ZERO:
        primal += scheme.q_one + scheme.q_zero
    duals = [-a for a in dual.alpha] + list(dual.beta) + list(dual.y)
    if payment_model is PaymentModel.BUDGET_BALANCED:
        duals.append(dual.gamma - ONE)
    return lp.LpSolution(lp.OPTIMAL, utility, tuple(primal), tuple(duals), 0)


def lift(
    instance: MultiAgentInstance,
    payment_model: PaymentModel,
    scheme: MultiAgentScheme,
    utility: Fraction,
    dual: MultiDual,
) -> tuple:
    """build_lp_binary's LP, and a fast path's answer claimed as its optimum."""
    problem = build_lp_binary(instance, payment_model)
    return problem, _claim(payment_model, scheme, utility, dual)


# ---------------------------------------------------------------------------
# Characterized fast paths


def _allocation_rows(instance: MultiAgentInstance, alloc) -> tuple:
    rows = []
    for chosen in alloc:
        row = [ZERO] * instance.num_subsets
        row[chosen] = ONE
        rows.append(tuple(row))
    return tuple(rows)


def _branch_probabilities(instance: MultiAgentInstance, distribution) -> list:
    x = [ZERO] * instance.receivers
    for state, row in zip(instance.states, distribution):
        for subset, p in enumerate(row):
            if p:
                for i in range(instance.receivers):
                    if (subset >> i) & 1:
                        x[i] += state.prob * p
    return x


def _normalize_dead_branches(
    instance: MultiAgentInstance, distribution, q_one, q_zero
) -> tuple:
    """Move expected payments off zero-probability recommendation branches.

    A payment parked on a branch that never occurs cannot be realized
    per-recommendation.  The incentive rows force such payments to be
    non-negative, so shifting them onto any live branch preserves both
    incentive families and the payment total.
    """
    q_one = list(q_one)
    q_zero = list(q_zero)
    x = _branch_probabilities(instance, distribution)
    extra = ZERO
    for i in range(instance.receivers):
        if x[i] == 0 and q_one[i]:
            extra += q_one[i]
            q_one[i] = ZERO
        if x[i] == 1 and q_zero[i]:
            extra += q_zero[i]
            q_zero[i] = ZERO
    if extra:
        for i in range(instance.receivers):
            if x[i] > 0:
                q_one[i] += extra
                break
        else:
            q_zero[0] += extra
    return tuple(q_one), tuple(q_zero)


def _fixed_allocation_bb(
    instance: MultiAgentInstance, code: MultiCoding, alloc, target: Fraction
) -> MultiAgentScheme | None:
    """Budget-balanced payments for a deterministic allocation, or None.

    With the allocation fixed, payments cancel out of the objective, so
    the allocation reaches target exactly when its raw sender value does.
    The cheapest incentive-compatible payments are Q_i(1) = -follow_one_i
    and Q_i(0) = switch_zero_i; payments are free-signed, so a zero-sum
    choice on top of them exists exactly when their total is at most 0.
    The balancing surplus lands on a live recommendation branch.
    """
    value = sum(
        [mass * sender[s] for mass, sender, s in zip(code.mass, code.sender, alloc)]
    )
    if value * target.denominator != target.numerator * code.unit:
        return None
    distribution = _allocation_rows(instance, alloc)
    _, follow_one, switch_zero, den = _evaluate(code, distribution)
    surplus = sum(follow_one) - sum(switch_zero)
    if surplus < 0:
        return None
    q_one = [Fraction(-v, den) for v in follow_one]
    q_one[0] = Fraction(surplus - follow_one[0], den)
    q_zero = [Fraction(v, den) for v in switch_zero]
    q_one, q_zero = _normalize_dead_branches(instance, distribution, q_one, q_zero)
    return MultiAgentScheme(
        distribution=distribution, q_one=q_one, q_zero=q_zero
    )


def _gamma_grid(code: MultiCoding) -> tuple:
    crossings = set()
    for sender, pull in zip(code.sender, code.pull):
        for a, (fa, pa) in enumerate(zip(sender, pull)):
            for fb, pb in zip(sender[a + 1 :], pull[a + 1 :]):
                df, dp = fa - fb, pb - pa
                # The crossing df / dp lies above 0.
                if df and dp and (df > 0) == (dp > 0):
                    crossings.add((abs(df), abs(dp)))
    return breakpoint_grid({Fraction(df, dp) for df, dp in crossings})


def solve_budget_balanced(instance: MultiAgentInstance) -> BudgetBalancedResult:
    """Budget-balanced optimum in virtual-payoff form.

    Solves the LP once for the exact value and the budget-row weight
    gamma*, then reconstructs the optimum in characterized form: first
    the deterministic argmax allocation at gamma*; then, against dual
    degeneracy, deterministic allocations at swept candidate gammas,
    each distinct allocation tried once; finally the LP scheme itself,
    as the optimum may genuinely need a mixture.  The scheme, whichever
    route made it, is then certified once, with the dual the LP solve
    returned: the free payment columns force alpha = beta = gamma* in
    any optimal dual, so that dual certifies every optimal scheme.  Its
    certificate is the support condition (complementary slackness),
    persuasiveness and exact budget balance (the rows) and the value
    (the objective field); CharacterizationMismatch is raised when it
    fails.
    """
    ref = solve_lp(instance, PaymentModel.BUDGET_BALANCED)
    code = instance.coding
    gamma_star = ref.dual.gamma
    target = ref.utility

    via = "argmax"
    gamma_used = gamma_star
    alloc = _argmax(code, gamma_star)
    scheme = _fixed_allocation_bb(instance, code, alloc, target)
    if scheme is None:
        # The test depends on the allocation alone, so an allocation
        # already tried would fail again.
        tried = {alloc}
        for gamma in _gamma_grid(code):
            alloc = _argmax(code, gamma)
            if alloc in tried:
                continue
            tried.add(alloc)
            scheme = _fixed_allocation_bb(instance, code, alloc, target)
            if scheme is not None:
                via = "gamma_sweep"
                gamma_used = gamma
                break
    if scheme is None:
        q_one, q_zero = _normalize_dead_branches(
            instance, ref.scheme.distribution, ref.scheme.q_one, ref.scheme.q_zero
        )
        scheme = MultiAgentScheme(
            distribution=ref.scheme.distribution, q_one=q_one, q_zero=q_zero
        )
        via = "lp_support"

    claim = _claim(PaymentModel.BUDGET_BALANCED, scheme, target, ref.dual)
    lp.require_claim(ref.problem, claim, f"budget-balanced scheme via {via}")
    return BudgetBalancedResult(
        instance=instance,
        scheme=scheme,
        utility=target,
        dual=ref.dual,
        gamma_star=gamma_used,
        via=via,
    )


def solve_arbitrary(instance: MultiAgentInstance) -> ArbitraryResult:
    """Unrestricted-payment optimum: total-payoff argmax plus payments.

    At gamma = 1 the virtual payoff of a set is the total payoff of
    recommending it, counting members' marginals and outsiders'
    forgone switches.  The cheapest incentive-compatible payments for
    the resulting allocation are Q_i(1) = -follow_one_i and
    Q_i(0) = switch_zero_i, and any argmax tie-break yields the same
    value, certified on the LP by alpha = beta = gamma = 1 (see lift);
    where that dual fails, the dual of the one LP solve is reported.
    """
    _require_size(instance)
    code = instance.coding
    distribution = _allocation_rows(instance, _argmax(code, ONE))
    sender, follow_one, switch_zero, den = _evaluate(code, distribution)
    scheme = MultiAgentScheme(
        distribution=distribution,
        q_one=tuple([Fraction(-v, den) for v in follow_one]),
        q_zero=tuple([Fraction(v, den) for v in switch_zero]),
    )
    utility = Fraction(sender + sum(follow_one) - sum(switch_zero), den)
    ones = (ONE,) * instance.receivers
    values = _virtual_values(code, ONE)
    y = tuple([Fraction(m * max(v), code.unit) for m, v in zip(code.mass, values)])
    dual = MultiDual(alpha=ones, beta=ones, gamma=ONE, y=y)
    problem, claim = lift(instance, PaymentModel.ARBITRARY, scheme, utility, dual)
    certified = lp.check_fast_path(problem, claim, "total-payoff scheme value")
    if certified is not claim:
        dual = _read_dual(certified.dual, instance.receivers, len(y), ONE)
    return ArbitraryResult(instance=instance, scheme=scheme, utility=utility, dual=dual)


def recover_payments(
    instance: MultiAgentInstance, scheme: MultiAgentScheme
) -> RealizedPayments:
    """Per-recommendation transfers whose expectations equal Q.

    x_star[i] is the probability receiver i is told 1; the 1-branch pays
    Q_i(1)/x_star[i] and the 0-branch Q_i(0)/(1-x_star[i]).  A branch of
    probability zero pays nothing and its Q must already be zero.
    """
    n = instance.receivers
    x_star = _branch_probabilities(instance, scheme.distribution)
    p_one = []
    p_zero = []
    for i in range(n):
        if x_star[i] == 0:
            if scheme.q_one[i] != 0:
                raise InconsistentPayments(
                    f"receiver {i} is never told 1 but carries expected "
                    f"payment {scheme.q_one[i]}"
                )
            p_one.append(ZERO)
        else:
            p_one.append(scheme.q_one[i] / x_star[i])
        miss = ONE - x_star[i]
        if miss == 0:
            if scheme.q_zero[i] != 0:
                raise InconsistentPayments(
                    f"receiver {i} is always told 1 but carries expected "
                    f"payment {scheme.q_zero[i]} on the 0 branch"
                )
            p_zero.append(ZERO)
        else:
            p_zero.append(scheme.q_zero[i] / miss)
    return RealizedPayments(
        p_one=tuple(p_one), p_zero=tuple(p_zero), x_star=tuple(x_star)
    )
