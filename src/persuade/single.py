"""Single-receiver solvers.

The LP formulation optimizes jointly over a direct scheme and expected
payments: maximize expected sender payoff minus total payments, subject
to one follow-the-recommendation row per ordered action pair and a
probability simplex row per state.  The payment model picks the payment
polytope: no payments, non-negative, budget-balanced (sum zero), or
free.

The follow rows' dual multipliers reweight the receiver's payoff into a
dual-adjusted payoff; at an optimal dual the optimal scheme recommends,
in every state, only actions maximizing sender payoff plus dual-adjusted
payoff.  solve_optimal solves through lp.certified_solve, and that
certificate already implies the condition: the follow rows' duals are
-lambda, so a column's reduced cost is its state's mass times the
action's sender plus dual-adjusted payoff, less the state's simplex
dual; the certificate makes it at most 0 everywhere and 0 wherever the
scheme recommends, and makes every priced follow row tight.
verify_support_optimality checks the same condition for any scheme and
dual matrix, in ints on the instance's coding.

For action-symmetric instances the dual collapses to a single scalar
lambda and the optimizer of sender payoff + n*lambda*receiver payoff
(ties uniform) is optimal: at the smallest persuasive lambda for the
no-payment model, and at lambda = 1/(n-1) with threshold payments for
free payments.  Those fast paths are implemented here, and that scalar,
lifted to the full LP (lift), certifies their answers there.  Under
that scalar dual a scheme that treats the actions
alike is persuasive exactly when its follow payoff (the receiver's
expected payoff from following) reaches the unconditional expected
payoff of one action, so the lambda sweep tests each candidate with that
one comparison.  The fast paths compute in ints on the expanded
instance's coding (instance.coding: masses and payoffs over one common
denominator, built once and kept with the instance), and only the
returned values become Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Union

from . import lp, model
from .errors import (
    CharacterizationMismatch,
    NotSymmetric,
    SizeLimitExceeded,
    WrongActionCount,
)
from .model import (
    PaymentModel,
    PersuasionInstance,
    SignalingScheme,
    SingleCoding,
    TypedInstance,
)
from .rationals import breakpoint_grid, over_common

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class SingleVarMap:
    """Column and row layout of the single-receiver LP."""

    actions: int
    num_states: int
    payment_model: PaymentModel

    def phi(self, theta: int, i: int) -> int:
        return theta * self.actions + i

    def payment(self, i: int) -> Optional[int]:
        if self.payment_model is PaymentModel.ZERO:
            return None
        return self.num_states * self.actions + i

    def follow_row(self, i: int, j: int) -> int:
        # Rows ordered (0,1), (0,2), ..., (1,0), (1,2), ...
        if i == j:
            raise ValueError("no follow row for i == j")
        return i * (self.actions - 1) + (j if j < i else j - 1)


@dataclass(frozen=True)
class SingleDual:
    """Follow-row multipliers as an n x n matrix with a zero diagonal."""

    lam: tuple

    @property
    def symmetric_value(self) -> Optional[Fraction]:
        n = len(self.lam)
        off = [self.lam[i][j] for i in range(n) for j in range(n) if i != j]
        if off and all(v == off[0] for v in off):
            return off[0]
        return None


@dataclass(frozen=True)
class SingleResult:
    """A solved single-receiver instance under one payment model."""

    instance: PersuasionInstance
    payment_model: PaymentModel
    scheme: SignalingScheme
    utility: Fraction
    dual: Optional[SingleDual]
    problem: Optional[lp.LpProblem] = None
    solution: Optional[lp.LpSolution] = None


@dataclass(frozen=True)
class LambdaStarResult:
    """Smallest persuasive lambda and its scaled-welfare scheme."""

    lambda_star: Fraction
    scheme: SignalingScheme
    utility: Fraction
    candidates: tuple

    @property
    def dual(self) -> SingleDual:
        """lambda_star on every follow row: the dual that certifies the scheme."""
        return _constant_dual(len(self.scheme.payments), self.lambda_star)


@dataclass(frozen=True)
class DichotomyResult:
    """Winner of the two non-negative-payment candidates."""

    branch: str  # "no_payment" or "canonical_payment"
    result: SingleResult  # its dual: lambda_star or 1/(n-1), by branch
    lambda_star: Fraction
    no_payment_utility: Fraction
    canonical_utility: Fraction


def _require_size(n: int, m: int) -> None:
    """Raise SizeLimitExceeded when the LP over n actions and m states is too large.

    Both its scheme columns (n * m) and its follow rows (n * (n - 1))
    must stay within model.size_limit().
    """
    limit = model.size_limit()
    if n * m > limit:
        raise SizeLimitExceeded(
            f"{n} actions times {m} states exceed the configured limit of "
            f"{limit} scheme columns"
        )
    if n * (n - 1) > limit:
        raise SizeLimitExceeded(
            f"{n} actions give {n * (n - 1)} follow rows, over the configured "
            f"limit of {limit}"
        )


def _as_instance(
    instance: Union[PersuasionInstance, TypedInstance]
) -> PersuasionInstance:
    """The explicit instance, validated and sized before it is coded."""
    if isinstance(instance, TypedInstance):
        inst = instance.expanded
    else:
        inst = model.ensure_valid(instance)
    _require_size(inst.actions, inst.num_states)
    return inst


def build_lp(
    instance: PersuasionInstance, payment_model: PaymentModel
) -> tuple:
    """LP over scheme probabilities and (unless zero) expected payments.

    Raises SizeLimitExceeded, before anything is coded or allocated, when
    actions times states (the scheme columns) or the follow rows exceed
    model.size_limit().
    """
    n = instance.actions
    m = instance.num_states
    _require_size(n, m)
    vmap = SingleVarMap(actions=n, num_states=m, payment_model=payment_model)
    with_pay = payment_model is not PaymentModel.ZERO

    # Stated in ints over code.unit: masses times payoffs (or payoff
    # differences), and +-unit where the LP has +-1.
    code = instance.coding
    unit = code.unit

    # Columns phi(t, i) = t * n + i, then the payments.
    objective = [
        mass * s for mass, sender in zip(code.mass, code.sender) for s in sender
    ]
    free = [False] * (m * n)
    if with_pay:
        objective += [-unit] * n
        free += [payment_model is not PaymentModel.NONNEGATIVE] * n

    constraints = []
    for i in range(n):
        for j in range(n):
            if j == i:
                continue
            coeffs = []
            for t, (mass, receiver) in enumerate(zip(code.mass, code.receiver)):
                diff = mass * (receiver[i] - receiver[j])
                if diff:
                    coeffs.append((vmap.phi(t, i), diff))
            if with_pay:
                coeffs.append((vmap.payment(i), unit))
            constraints.append(
                lp.LinearConstraint(
                    coeffs=tuple(coeffs),
                    rel=lp.GE,
                    rhs=0,
                    name=f"follow[{i}->{j}]",
                )
            )
    for t in range(m):
        constraints.append(
            lp.LinearConstraint(
                coeffs=tuple([(vmap.phi(t, i), unit) for i in range(n)]),
                rel=lp.EQ,
                rhs=unit,
                name=f"simplex[{t}]",
            )
        )
    if payment_model is PaymentModel.BUDGET_BALANCED:
        constraints.append(
            lp.LinearConstraint(
                coeffs=tuple([(vmap.payment(i), unit) for i in range(n)]),
                rel=lp.EQ,
                rhs=0,
                name="budget",
            )
        )

    problem = lp.LpProblem(
        objective=tuple(objective),
        free=tuple(free),
        constraints=tuple(constraints),
        den=unit,
    )
    return problem, vmap


def solve_optimal(
    instance: Union[PersuasionInstance, TypedInstance],
    payment_model: PaymentModel,
) -> SingleResult:
    """Solve the LP to exact optimality and attach the certified dual."""
    inst = _as_instance(instance)
    if inst.actions == 1 and payment_model is PaymentModel.ARBITRARY:
        # With no alternative action there is no obedience constraint to
        # price, so an unrestricted charge makes the LP unbounded.
        raise WrongActionCount(
            "free payments are unbounded with a single action"
        )
    problem, vmap = build_lp(inst, payment_model)
    solution = lp.certified_solve(problem)

    n, m = inst.actions, inst.num_states
    primal = solution.primal
    distribution = tuple(
        [tuple([primal[vmap.phi(t, i)] for i in range(n)]) for t in range(m)]
    )
    if payment_model is PaymentModel.ZERO:
        payments = (ZERO,) * n
    else:
        payments = tuple([primal[vmap.payment(i)] for i in range(n)])
    scheme = SignalingScheme(distribution=distribution, payments=payments)

    lam = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j:
                # Follow rows are >=-rows; in max convention their duals
                # are <= 0 and the multipliers are their negatives.
                lam[i][j] = -solution.dual[vmap.follow_row(i, j)]
    dual = SingleDual(lam=tuple([tuple(row) for row in lam]))

    return SingleResult(
        instance=inst,
        payment_model=payment_model,
        scheme=scheme,
        utility=solution.objective,
        dual=dual,
        problem=problem,
        solution=solution,
    )


def verify_support_optimality(
    instance: PersuasionInstance, scheme: SignalingScheme, dual: SingleDual
) -> bool:
    """Support and complementary-slackness check against a dual matrix.

    True iff in every positive-probability state the scheme only
    recommends actions maximizing sender payoff plus dual-adjusted
    payoff, and every strictly positive multiplier sits on a tight
    follow constraint.  Computed in ints on the instance's coding, with
    the multipliers and the distribution each over one common denominator.
    """
    code = instance.coding
    n = code.actions
    values, lam, _ = _adjusted(code, dual)
    dist = scheme.distribution
    for mass, state_values, row in zip(code.mass, values, dist):
        best = max(state_values)
        if mass and any(p and v != best for p, v in zip(row, state_values)):
            return False

    # Tight rows: X[i][i] + P[i] == X[i][j], X over code.unit * d_den.
    d_den = lcm(*[v.denominator for row in dist for v in row])
    for i, multipliers in enumerate(lam):
        if not any(multipliers):
            continue
        cross = [0] * n
        for mass, receiver, row in zip(code.mass, code.receiver, dist):
            w = mass * row[i].numerator * (d_den // row[i].denominator)
            for j in range(n):
                cross[j] += w * receiver[j]
        pay = scheme.payments[i]
        pay_int = pay.numerator * code.unit * d_den
        for j, w in enumerate(multipliers):
            if w and j != i and (cross[i] - cross[j]) * pay.denominator + pay_int:
                return False
    return True


def _adjusted(code: SingleCoding, dual: SingleDual) -> tuple:
    """Sender plus dual-adjusted payoff of every action in every state.

    Returns (values, lam, lam_den), values and multipliers as ints times
    lam_den, the values also times the coding's D.
    """
    n = code.actions
    flat, lam_den = over_common([v for row in dual.lam for v in row])
    lam = [flat[i * n : i * n + n] for i in range(n)]
    values = [
        [
            lam_den * s + sum(w * (r - r_j) for w, r_j in zip(row, receiver))
            for s, r, row in zip(sender, receiver, lam)
        ]
        for sender, receiver in zip(code.sender, code.receiver)
    ]
    return values, lam, lam_den


def _argmax_sets(code: SingleCoding, a: int, b: int) -> list:
    """Per state, the actions maximizing s + (a/b) * r, for b > 0.

    Compared in ints as b*S + a*R.  Within one set the value is constant,
    so actions with equal receiver payoff also have equal sender payoff.
    """
    sets = []
    for sender, receiver in zip(code.sender, code.receiver):
        values = [b * s + a * r for s, r in zip(sender, receiver)]
        best = max(values)
        sets.append([i for i, v in enumerate(values) if v == best])
    return sets


def _uniform_rows(sets, n: int) -> tuple:
    """One distribution row per state, uniform over that state's set."""
    shares: dict = {}
    rows = []
    for winners in sets:
        k = len(winners)
        share = shares.get(k)
        if share is None:
            share = shares[k] = Fraction(1, k)
        row = [ZERO] * n
        for i in winners:
            row[i] = share
        rows.append(tuple(row))
    return tuple(rows)


def _uniform_cross(code: SingleCoding, sets) -> tuple:
    """Cross utilities and sender payoff of the uniform rows over sets.

    Returns (X, sender, L): X[i][j] = sum over states of mass times
    Pr[recommend i] times r(j), and the expected sender payoff, as ints
    over code.unit * L, L the lcm of the set sizes.
    """
    n = code.actions
    scale = lcm(*{len(winners) for winners in sets})
    cross = [[0] * n for _ in range(n)]
    sender_total = 0
    for m, sender, receiver, winners in zip(
        code.mass, code.sender, code.receiver, sets
    ):
        if not m:
            continue
        w = m * (scale // len(winners))
        for i in winners:
            sender_total += w * sender[i]
            row = cross[i]
            for j in range(n):
                row[j] += w * receiver[j]
    return cross, sender_total, scale


def welfare_weighted_scheme(
    instance: PersuasionInstance, weight: Fraction
) -> tuple:
    """Distribution recommending argmax of s + weight * r, ties uniform."""
    code = instance.coding
    sets = _argmax_sets(code, weight.numerator, weight.denominator)
    return _uniform_rows(sets, instance.actions)


def lambda_scheme(
    instance: Union[PersuasionInstance, TypedInstance], lam: Fraction
) -> SignalingScheme:
    """Scaled-welfare scheme for scalar lambda: argmax s + n*lambda*r, no payments."""
    inst = _as_instance(instance)
    distribution = welfare_weighted_scheme(inst, inst.actions * lam)
    return SignalingScheme(
        distribution=distribution, payments=(ZERO,) * inst.actions
    )


def _candidates(code: SingleCoding) -> tuple:
    n = code.actions
    crossings = set()
    for sender, receiver in zip(code.sender, code.receiver):
        for i in range(n):
            for j in range(i + 1, n):
                ds = sender[i] - sender[j]
                dr = receiver[j] - receiver[i]
                # The crossing ds / (n * dr) lies above 0.
                if ds and dr and (ds > 0) == (dr > 0):
                    crossings.add((abs(ds), abs(dr)))
    return breakpoint_grid({Fraction(ds, n * dr) for ds, dr in crossings})


def _require_symmetric(instance, inst: PersuasionInstance, what: str) -> None:
    typed = isinstance(instance, TypedInstance)
    if not model.is_symmetric(instance if typed else inst):
        raise NotSymmetric(f"{what} requires a symmetric instance")


def _is_persuasive(code: SingleCoding, scheme: SignalingScheme) -> bool:
    """model.is_persuasive in ints on the instance's coding.

    X[i][j] - X[i][i] <= P[i] for every j != i, the cross utilities X
    over code.unit times the distribution's common denominator.
    """
    n = code.actions
    dist = scheme.distribution
    d_den = lcm(*[v.denominator for row in dist for v in row])
    cross = [[0] * n for _ in range(n)]
    for mass, receiver, row in zip(code.mass, code.receiver, dist):
        if mass:
            for i, p in enumerate(row):
                if p:
                    w = mass * p.numerator * (d_den // p.denominator)
                    xi = cross[i]
                    for j in range(n):
                        xi[j] += w * receiver[j]
    scale = code.unit * d_den
    for i, (xi, pay) in enumerate(zip(cross, scheme.payments)):
        own, limit = xi[i], pay.numerator * scale
        if any(
            (x - own) * pay.denominator > limit for j, x in enumerate(xi) if j != i
        ):
            return False
    return True


def _sweep(code: SingleCoding) -> LambdaStarResult:
    """The scalar-lambda sweep on a symmetric instance's integer coding."""
    n = code.actions
    mass, senders, receivers = code.mass, code.sender, code.receiver
    # Unconditional expected receiver payoff of a fixed action, times
    # unit; the same for every action on a symmetric instance.
    unconditional = sum(m * receiver[0] for m, receiver in zip(mass, receivers))
    candidates = _candidates(code)
    for lam in candidates:
        sets = _argmax_sets(code, n * lam.numerator, lam.denominator)
        follow_hi = sum(
            m * max(receiver[i] for i in winners)
            for m, receiver, winners in zip(mass, receivers, sets)
        )
        if follow_hi >= unconditional:
            break
    else:
        raise CharacterizationMismatch(
            "no candidate lambda yields a persuasive scheme; the grid "
            "should always end in one"
        )

    # The receiver-worst and receiver-best actions of each tie set.
    lo_sets, hi_sets = [], []
    follow_lo = sender_lo = sender_hi = 0
    for m, sender, receiver, winners in zip(mass, senders, receivers, sets):
        r_lo = min(receiver[i] for i in winners)
        r_hi = max(receiver[i] for i in winners)
        lo = [i for i in winners if receiver[i] == r_lo]
        hi = [i for i in winners if receiver[i] == r_hi]
        lo_sets.append(lo)
        hi_sets.append(hi)
        follow_lo += m * r_lo
        sender_lo += m * sender[lo[0]]
        sender_hi += m * sender[hi[0]]

    unit = code.unit
    if follow_hi == follow_lo:
        rows = _uniform_rows(hi_sets, n)
        utility = Fraction(sender_hi, unit)
    else:
        # Within a tie set sender payoff falls as the follow payoff
        # rises, so mix the extremes to make the follow payoff as small
        # as persuasiveness allows: a share t on the receiver-best side.
        num = max(unconditional, follow_lo) - follow_lo
        den = follow_hi - follow_lo
        t = Fraction(num, den)
        weights = (ONE - t, t, ONE)  # receiver-worst side, best side, no sides
        shares: dict = {}

        def share(side, k):
            value = shares.get((side, k))
            if value is None:
                value = shares[side, k] = weights[side] / k
            return value

        blended = []
        for lo, hi in zip(lo_sets, hi_sets):
            row = [ZERO] * n
            if lo == hi:
                for i in lo:
                    row[i] = share(2, len(lo))
            else:
                for i in lo:
                    row[i] = share(0, len(lo))
                for i in hi:
                    row[i] = share(1, len(hi))
            blended.append(tuple(row))
        rows = tuple(blended)
        utility = Fraction(
            sender_lo * den + num * (sender_hi - sender_lo), unit * den
        )

    cross, sender_u, scale = _uniform_cross(code, sets)
    if sum(cross[i][i] for i in range(n)) >= unconditional * scale:
        uniform_utility = Fraction(sender_u, unit * scale)
        if uniform_utility >= utility:
            rows, utility = _uniform_rows(sets, n), uniform_utility

    scheme = SignalingScheme(distribution=rows, payments=(ZERO,) * n)
    if not _is_persuasive(code, scheme):
        raise CharacterizationMismatch(
            "the scheme at the critical lambda is not persuasive"
        )
    return LambdaStarResult(
        lambda_star=lam, scheme=scheme, utility=utility, candidates=candidates
    )


def find_lambda_star(
    instance: Union[PersuasionInstance, TypedInstance],
    *,
    cross_check: bool = True,
) -> LambdaStarResult:
    """Smallest lambda whose scaled-welfare support admits a persuasive scheme.

    Requires an action-symmetric instance.  Scanning the breakpoint grid
    upward, the first candidate lambda is found at which some scheme
    supported on the per-state argmax sets of s + n*lambda*r is
    persuasive without payments; that support then carries the optimal
    zero-payment scheme.  Every scheme built here treats the actions
    alike, and on a symmetric instance such a scheme is persuasive
    exactly when its follow payoff (the receiver's expected payoff from
    following) reaches the unconditional expected payoff of one action.
    So each candidate costs one scalar comparison: of the scheme that
    takes the receiver-best action of every argmax set, whose follow
    payoff is the largest the support allows.  Away from breakpoints the
    argmax is essentially unique and the scheme is the uniform
    tie-break.  At a breakpoint the uniform tie-break can overshoot the
    follow incentive, which wastes sender payoff: within a tie set
    s + n*lambda*r is constant, so sender utility falls one-for-one
    (times n*lambda) as the follow payoff rises, and the best scheme
    mixes the tied extremes so the follow payoff is as small as
    persuasiveness allows.  The uniform scheme is returned whenever it
    is persuasive and no such mixture beats it.  The sweep runs in ints
    over one common denominator; the returned scheme is checked for
    persuasiveness there too.  With cross_check the answer is certified
    on the zero-payment LP by lambda_star on every follow row (see lift).
    """
    inst = _as_instance(instance)
    _require_symmetric(instance, inst, "scalar-lambda sweep")
    sweep = _sweep(inst.coding)
    if cross_check:
        claim = lift(inst, PaymentModel.ZERO, sweep.scheme, sweep.utility, sweep.dual)
        lp.check_fast_path(*claim, "lambda sweep utility")
    return sweep


def _constant_dual(n: int, value: Fraction) -> SingleDual:
    lam = tuple(
        tuple(value if i != j else ZERO for j in range(n)) for i in range(n)
    )
    return SingleDual(lam=lam)


def lift(
    inst: PersuasionInstance,
    payment_model: PaymentModel,
    scheme: SignalingScheme,
    utility: Fraction,
    dual: SingleDual,
) -> tuple:
    """build_lp's LP (no budget row), and a fast path's answer claimed as its optimum.

    Follow row (i, j) carries -lam[i][j] and state t's simplex row
    mass_t * max_i (s_i + sum_j lam[i][j] (r_i - r_j)), computed in ints.
    """
    code = inst.coding
    problem, _ = build_lp(inst, payment_model)
    values, _, lam_den = _adjusted(code, dual)
    y = [Fraction(m * max(v), code.unit * lam_den) for m, v in zip(code.mass, values)]
    follow = [-v for i, row in enumerate(dual.lam) for j, v in enumerate(row) if i != j]
    primal = [p for row in scheme.distribution for p in row]
    if payment_model is not PaymentModel.ZERO:
        primal += scheme.payments
    claim = lp.LpSolution(lp.OPTIMAL, utility, tuple(primal), tuple(follow + y), 0)
    return problem, claim


def _threshold_parts(code: SingleCoding, weight: Fraction) -> tuple:
    """Argmax-of-s + weight*r rows (ties uniform) and their threshold payments.

    Returns (rows, thresholds, gross, unit): the minimal expected payment
    per recommendation, T[i] = max over j != i of X[i][j] - X[i][i], and
    the expected sender payoff before payments, as ints over unit.
    """
    n = code.actions
    sets = _argmax_sets(code, weight.numerator, weight.denominator)
    cross, gross, scale = _uniform_cross(code, sets)
    thresholds = [
        max((cross[i][j] for j in range(n) if j != i), default=0) - cross[i][i]
        for i in range(n)
    ]
    return _uniform_rows(sets, n), thresholds, gross, code.unit * scale


def _canonical(inst: PersuasionInstance, verify: bool, what: str) -> SingleResult:
    """Argmax of s + (n/(n-1)) r with threshold payments, and its dual 1/(n-1)."""
    n = inst.actions
    rows, thresholds, gross, unit = _threshold_parts(inst.coding, Fraction(n, n - 1))
    scheme = SignalingScheme(
        distribution=rows,
        payments=tuple(Fraction(t, unit) for t in thresholds),
    )
    utility = Fraction(gross - sum(thresholds), unit)
    dual = _constant_dual(n, Fraction(1, n - 1))
    if verify:
        claim = lift(inst, PaymentModel.ARBITRARY, scheme, utility, dual)
        lp.check_fast_path(*claim, what)
    return SingleResult(
        instance=inst,
        payment_model=PaymentModel.ARBITRARY,
        scheme=scheme,
        utility=utility,
        dual=dual,
    )


def canonical_two_action_scheme(
    instance: Union[PersuasionInstance, TypedInstance],
    *,
    verify: bool = True,
) -> SingleResult:
    """Free-payment optimum for two actions, any prior.

    Recommends argmax of s + 2r (ties uniform) and charges threshold
    payments: the symmetric fast path at n = 2, where no symmetry is
    needed.  With verify the answer is certified on the LP by the dual 1
    on both follow rows (see lift).
    """
    inst = _as_instance(instance)
    if inst.actions != 2:
        raise WrongActionCount(
            f"two-action fast path got {inst.actions} actions"
        )
    return _canonical(inst, verify, "two-action scheme utility")


def canonical_symmetric_scheme(
    instance: Union[PersuasionInstance, TypedInstance],
    *,
    verify: bool = True,
) -> SingleResult:
    """Free-payment optimum for symmetric instances with n >= 2 actions.

    Recommends argmax of s + (n/(n-1)) r (the scalar dual is 1/(n-1))
    with threshold payments.  Action symmetry makes every follow row
    tight under those payments, which is what lets the single scalar
    certify optimality; with verify it does, on the LP (see lift).
    """
    inst = _as_instance(instance)
    n = inst.actions
    if n < 2:
        raise WrongActionCount("symmetric fast path needs at least two actions")
    _require_symmetric(instance, inst, "symmetric fast path")
    return _canonical(inst, verify, "symmetric scheme utility")


def nonnegative_dichotomy(
    instance: Union[PersuasionInstance, TypedInstance],
    *,
    verify: bool = True,
) -> DichotomyResult:
    """Best of the two candidate optima under non-negative payments.

    Either the zero-payment optimum (payments identically 0) or the
    canonical symmetric scheme with its thresholds clipped at zero wins;
    ties go to the payment-free branch.  With verify the winner is
    certified on the LP by its branch's scalar dual (see lift).
    """
    inst = _as_instance(instance)
    n = inst.actions
    if n < 2:
        raise WrongActionCount("dichotomy needs at least two actions")
    _require_symmetric(instance, inst, "scalar-lambda sweep")
    code = inst.coding
    sweep = _sweep(code)

    rows, thresholds, gross, unit = _threshold_parts(code, Fraction(n, n - 1))
    clipped = [max(0, t) for t in thresholds]
    paid_scheme = SignalingScheme(
        distribution=rows, payments=tuple(Fraction(t, unit) for t in clipped)
    )
    paid_utility = Fraction(gross - sum(clipped), unit)

    if sweep.utility >= paid_utility:
        branch = "no_payment"
        scheme, utility, dual = sweep.scheme, sweep.utility, sweep.dual
    else:
        branch = "canonical_payment"
        scheme, utility = paid_scheme, paid_utility
        dual = _constant_dual(n, Fraction(1, n - 1))

    if verify:
        claim = lift(inst, PaymentModel.NONNEGATIVE, scheme, utility, dual)
        lp.check_fast_path(*claim, "dichotomy winner utility")
    result = SingleResult(
        instance=inst,
        payment_model=PaymentModel.NONNEGATIVE,
        scheme=scheme,
        utility=utility,
        dual=dual,
    )
    return DichotomyResult(
        branch=branch,
        result=result,
        lambda_star=sweep.lambda_star,
        no_payment_utility=sweep.utility,
        canonical_utility=paid_utility,
    )
