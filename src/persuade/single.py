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
payoff.  Every answer of solve_optimal carries a certificate of the
full LP, directly or through the orbit LP's (below), and that
certificate already implies the condition: the follow rows' duals are
-lambda, so a column's reduced cost is its state's mass times the
action's sender plus dual-adjusted payoff, less the state's simplex
dual; the certificate makes it at most 0 everywhere and 0 wherever the
scheme recommends, and makes every priced follow row tight.
verify_support_optimality checks the same condition for any scheme and
dual matrix, in ints on the instance's coding.

For action-symmetric instances the dual collapses to a single scalar
lambda, and the LP collapses the same way: averaging an optimal scheme
over the permutations of the actions keeps it optimal.  So every
symmetric answer, LP or closed form, is computed on the orbits of the
states (_orbits: one column per distinct payoff pair in each orbit),
certified on the orbit LP (one follow row), whose certificate lifts to
the full LP's, and written by one writer (_write): per state or, for an
iid instance past the cap of its expansion, per multiset of types
(OrbitScheme).  solve_optimal solves a symmetric typed instance there
and any other instance on the full LP, both through lp.certified_solve.
The optimizer of sender payoff + n*lambda*receiver payoff
(ties uniform) is optimal: at the smallest persuasive lambda for the
no-payment model, and at lambda = 1/(n-1) with threshold payments for
free payments.  Those fast paths are implemented here, and that scalar
on the orbit LP's follow row certifies their answers (_orbit_claim);
where it fails, the orbit LP is solved once and its scalar dual is
reported.  A scheme that treats the actions alike makes every follow
row equal to the orbit follow row over n(n-1), so it is persuasive
exactly when that row's activity (n times its follow payoff less the
receiver's summed payoff of all actions) is at least 0, and the lambda
sweep tests each candidate with that one comparison; every action's
threshold payment is minus the activity over n(n-1).  The fast paths
compute in ints on the orbit coding (pairs and masses over the
instance's common denominators), and only the returned values become
Fractions.  The two-action fast path, for any prior, reads each state's
actions as pairs of multiplicity 1 and is certified on the full LP
(lift).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import lcm

from . import lp, model
from ._record import record
from .errors import (
    CharacterizationMismatch,
    NotSymmetric,
    SizeLimitExceeded,
    WrongActionCount,
)
from .model import (
    OrbitCoding,
    OrbitScheme,
    PaymentModel,
    PersuasionInstance,
    SignalingScheme,
    SingleCoding,
    TypedInstance,
)
from .rationals import breakpoint_grid, over_common

ZERO = Fraction(0)
ONE = Fraction(1)


@record
class SingleDual:
    """Follow-row multipliers as an n x n matrix with a zero diagonal."""

    lam: tuple

    @property
    def symmetric_value(self) -> Fraction | None:
        n = len(self.lam)
        off = [self.lam[i][j] for i in range(n) for j in range(n) if i != j]
        if off and all(v == off[0] for v in off):
            return off[0]
        return None


@record
class SingleResult:
    """A solved single-receiver instance under one payment model.

    problem and solution are the LP solve_optimal solved and its
    certified optimum: build_lp's LP, or the orbit LP of a symmetric
    typed instance (see solve_optimal).  instance is the instance solved
    explicitly, or the TypedInstance itself where the scheme is an
    OrbitScheme.
    """

    instance: PersuasionInstance | TypedInstance
    payment_model: PaymentModel
    scheme: SignalingScheme | OrbitScheme
    utility: Fraction
    dual: SingleDual | None
    problem: lp.LpProblem | None = None
    solution: lp.LpSolution | None = None


@record
class LambdaStarResult:
    """Smallest persuasive lambda and its scaled-welfare scheme."""

    lambda_star: Fraction
    scheme: SignalingScheme | OrbitScheme
    utility: Fraction
    candidates: tuple
    # lambda_star, or the orbit LP's where it fails (see _orbit_claim)
    dual: SingleDual


@record
class DichotomyResult:
    """Winner of the two non-negative-payment candidates."""

    branch: str  # "no_payment" or "canonical_payment"
    result: SingleResult  # dual: lambda_star or 1/(n-1) by branch, or the orbit LP's
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
    _require_follow_rows(n)


def _require_follow_rows(n: int) -> None:
    """Raise SizeLimitExceeded when n actions' n(n-1) follow rows, or the
    off-diagonal entries of their multiplier matrix, exceed
    model.size_limit()."""
    limit = model.size_limit()
    if n * (n - 1) > limit:
        raise SizeLimitExceeded(
            f"{n} actions give {n * (n - 1)} follow rows, over the configured "
            f"limit of {limit}"
        )


def _as_instance(
    instance: PersuasionInstance | TypedInstance
) -> PersuasionInstance:
    """The explicit instance, validated and sized before it is coded."""
    if isinstance(instance, TypedInstance):
        inst = instance.expanded
    else:
        inst = model.ensure_valid(instance)
    _require_size(inst.actions, inst.num_states)
    return inst


def _orbits(instance: PersuasionInstance | TypedInstance) -> tuple:
    """The orbit view of an instance, (inst, of, code), which _write reads.

    code is the OrbitCoding of the states under permuting the actions.
    Below the cap of the expansion inst is the explicit instance
    (_as_instance) and of[t] state t's orbit, both from
    inst.coding.orbits, which for an iid instance equals iid_orbits field
    for field.  An iid instance with n >= 2 past the cap is never
    expanded: inst is the TypedInstance and (of, code) its iid_orbits,
    of[o] the types of orbit o's pairs.  It is validated, then sized
    before anything is enumerated: the follow rows (their multipliers
    are a result's dual matrix), then the orbits.
    """
    if (
        isinstance(instance, TypedInstance)
        and instance.iid_marginal is not None
        and instance.actions >= 2
        and not model.expands_within_limit(instance)
    ):
        model.ensure_valid(instance)
        _require_follow_rows(instance.actions)
        return (instance, *instance.iid_orbits)
    inst = _as_instance(instance)
    return (inst, *inst.coding.orbits)


def _write(view: tuple, rows, payment: Fraction) -> SignalingScheme | OrbitScheme:
    """The scheme that treats the actions alike with these orbit shares.

    rows[o][j] is the probability, in any state of orbit o, of
    recommending some action of pair code.counts[o][j], and payment is
    every action's expected payment; view is _orbits'.  Below the cap
    each pair's share is spread evenly over its actions, state by state;
    past it the scheme is an OrbitScheme, each pair's share on its type.
    """
    inst, of, code = view
    payments = (payment,) * code.actions
    if isinstance(inst, TypedInstance):
        orbits, distribution = [], []
        for present, pairs, y in zip(of, code.counts, rows):
            counts = [0] * len(inst.types)
            row = [ZERO] * len(inst.types)
            for ty, (_, m), p in zip(present, pairs, y):
                counts[ty], row[ty] = m, p
            orbits.append(tuple(counts))
            distribution.append(tuple(row))
        return OrbitScheme(
            orbits=tuple(orbits), distribution=tuple(distribution), payments=payments
        )
    shares = [
        {pair: p if m == 1 else p / m for (pair, m), p in zip(pairs, y)}
        for pairs, y in zip(code.counts, rows)
    ]
    states = inst.coding
    distribution = tuple(
        [
            tuple([shares[o][pair] for pair in zip(sender, receiver)])
            for o, sender, receiver in zip(of, states.sender, states.receiver)
        ]
    )
    return SignalingScheme(distribution=distribution, payments=payments)


def build_lp(
    instance: PersuasionInstance, payment_model: PaymentModel
) -> lp.LpProblem:
    """LP over scheme probabilities and (unless zero) expected payments.

    Its layout, which _claim writes and solve_optimal and _follow_dual
    read: column t * n + i is the probability that state t recommends
    action i, and column n * m + i, unless payments are zero, the
    expected payment of recommendation i.  The rows are the n(n-1)
    follow rows, ordered (0,1), (0,2), ..., (1,0), (1,2), ...; then one
    simplex row per state; then, under budget balance, the budget row.

    Raises SizeLimitExceeded, before anything is coded or allocated, when
    actions times states (the scheme columns) or the follow rows exceed
    model.size_limit().
    """
    n = instance.actions
    m = instance.num_states
    _require_size(n, m)
    with_pay = payment_model is not PaymentModel.ZERO

    # Stated in ints over code.unit: masses times payoffs (or payoff
    # differences), and +-unit where the LP has +-1.
    code = instance.coding
    unit = code.unit

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
                    coeffs.append((t * n + i, diff))
            if with_pay:
                coeffs.append((n * m + i, unit))
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
                coeffs=tuple([(t * n + i, unit) for i in range(n)]),
                rel=lp.EQ,
                rhs=unit,
                name=f"simplex[{t}]",
            )
        )
    if payment_model is PaymentModel.BUDGET_BALANCED:
        constraints.append(
            lp.LinearConstraint(
                coeffs=tuple([(n * m + i, unit) for i in range(n)]),
                rel=lp.EQ,
                rhs=0,
                name="budget",
            )
        )

    return lp.LpProblem(
        objective=tuple(objective),
        free=tuple(free),
        constraints=tuple(constraints),
        den=unit,
    )


def solve_optimal(
    instance: PersuasionInstance | TypedInstance,
    payment_model: PaymentModel,
) -> SingleResult:
    """Solve the LP to exact optimality and attach the certified dual.

    A typed instance with n >= 2 actions and a symmetric prior is solved
    and certified on its orbit LP (see _solve_orbits), whose certificate
    is one of build_lp's full LP, which is never built; any other
    instance is solved on the full LP.  problem and solution are the LP
    solved and its certified optimum.  An iid typed instance past the
    size cap of its expansion (model.expands_within_limit) gets its
    scheme as an OrbitScheme, and is never expanded (see _orbits); every
    other instance gets a scheme per state of its explicit instance.
    """
    typed = isinstance(instance, TypedInstance)
    if typed and instance.actions >= 2 and model.is_symmetric(instance):
        view = _orbits(instance)
        inst, _, code = view
        n = code.actions
        problem, solution = _solve_orbits(code, payment_model)
        # The orbit LP's columns: each orbit's pairs, then the payment.
        y = iter(solution.primal)
        rows = [tuple(islice(y, len(pairs))) for pairs in code.counts]
        scheme = _write(view, rows, next(y, ZERO))
        dual = _constant_dual(n, -solution.dual[0])
    else:
        inst = _as_instance(instance)
        n, m = inst.actions, inst.num_states
        if n == 1 and payment_model is PaymentModel.ARBITRARY:
            # With no alternative action there is no obedience constraint
            # to price, so an unrestricted charge makes the LP unbounded.
            raise WrongActionCount(
                "free payments are unbounded with a single action"
            )
        problem = build_lp(inst, payment_model)
        solution = lp.certified_solve(problem)
        # build_lp's columns: the scheme row by row, then the payments.
        primal = solution.primal
        distribution = tuple([primal[k : k + n] for k in range(0, n * m, n)])
        if payment_model is PaymentModel.ZERO:
            payments = (ZERO,) * n
        else:
            payments = primal[n * m : n * m + n]
        scheme = SignalingScheme(distribution=distribution, payments=payments)
        dual = _follow_dual(n, solution.dual)

    return SingleResult(
        instance=inst,
        payment_model=payment_model,
        scheme=scheme,
        utility=solution.objective,
        dual=dual,
        problem=problem,
        solution=solution,
    )


def _follow_dual(n: int, duals) -> SingleDual:
    """The multipliers of a dual of build_lp's LP, read off its follow rows.

    They are >=-rows; in max convention their duals are <= 0 and the
    multipliers are their negatives.
    """
    follow = iter(duals)
    return SingleDual(
        lam=tuple(
            [
                tuple([ZERO if i == j else -next(follow) for j in range(n)])
                for i in range(n)
            ]
        )
    )


def _gains(code: OrbitCoding) -> list:
    """Per orbit, each pair's n * r_tau - R_o: its coefficient on the
    orbit follow row over the orbit's mass, R_o the sum of the orbit's
    receiver payoffs."""
    n = code.actions
    gains = []
    for pairs in code.counts:
        total = sum([m * r for (_, r), m in pairs])
        gains.append([n * r - total for (_, r), _ in pairs])
    return gains


def _orbit_lp(code: OrbitCoding, payment_model: PaymentModel) -> lp.LpProblem:
    """The LP over the symmetric schemes of a symmetric instance.

    A scheme that treats the actions alike is fixed, in each orbit of
    states, by y[o][tau]: the probability that some action of (sender,
    receiver) pair tau is recommended.  Column y[o][tau], in the order
    of code.counts, has objective mu_o * s_tau; one convexity row per
    orbit sums them to 1; and the one follow row is the sum of
    build_lp's n(n-1) follow rows,
    sum mu_o * (n * r_tau - R_o) * y[o][tau] + n(n-1) * P >= 0, R_o the
    sum of the orbit's receiver payoffs.  The payment P of each action is
    absent under zero and budget-balanced payments (symmetric payments
    that sum to 0 are 0), >= 0 under nonnegative ones and free under
    arbitrary ones, with objective -n.  Stated in ints over code.unit.
    """
    n, unit = code.actions, code.unit
    objective: list = []
    follow: list = []
    rows = []
    for o, (pairs, mu, gains) in enumerate(zip(code.counts, code.mass, _gains(code))):
        first = len(objective)
        for j, (((s, _), _), g) in enumerate(zip(pairs, gains), first):
            objective.append(mu * s)
            if mu * g:
                follow.append((j, mu * g))
        rows.append(
            lp.LinearConstraint(
                coeffs=tuple([(j, unit) for j in range(first, len(objective))]),
                rel=lp.EQ,
                rhs=unit,
                name=f"orbit[{o}]",
            )
        )
    free = [False] * len(objective)
    if payment_model in (PaymentModel.NONNEGATIVE, PaymentModel.ARBITRARY):
        follow.append((len(objective), n * (n - 1) * unit))
        objective.append(-n * unit)
        free.append(payment_model is PaymentModel.ARBITRARY)
    row = lp.LinearConstraint(coeffs=tuple(follow), rel=lp.GE, rhs=0, name="follow")
    return lp.LpProblem(
        objective=tuple(objective),
        free=tuple(free),
        constraints=(row, *rows),
        den=unit,
    )


def _solve_orbits(code: OrbitCoding, payment_model: PaymentModel) -> tuple:
    """The orbit LP (_orbit_lp) of a symmetric instance with n >= 2, and
    its optimum, certified on it by lp.certified_solve.

    Averaging an optimal scheme over the permutations of the actions
    keeps it optimal, so the orbit LP has the full LP's optimum, and
    its certificate is one of build_lp's LP (symmetry in LPs: Bödi,
    Herr and Joswig, Math. Program. 137, 2013; Dughmi and Xu,
    "Algorithmic Bayesian Persuasion", STOC 2016).  Lift the optimal
    pair: x(t, i) = y[o][tau_i] / m_tau, m_tau the multiplicity of pair
    tau_i in state t, and P on every payment column; lambda, minus the
    follow row's dual, on every follow row, (mu_t / mu_o) * w_o on state
    t's simplex row, w_o orbit o's row dual, and (n-1) lambda - 1 on the
    budget row.  Then:
    - full column (t, i) sits in the n-1 rows i -> j, so its reduced
      cost is mu_t / mu_o times orbit column (o, tau_i)'s;
    - a payment column's reduced cost is the orbit P column's over n;
    - the prior and the lifted scheme are invariant under permuting the
      actions, and every ordered pair (i, j) lies in one orbit of S_n,
      so every full follow row equals the orbit follow row over n(n-1);
    - the two objective values are equal.
    So the lifted pair is feasible, slack and tight exactly where the
    orbit pair is, and the full LP is never built.  The solution counts
    the orbit LP's pivots.
    """
    problem = _orbit_lp(code, payment_model)
    return problem, lp.certified_solve(problem)


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
    values, lam, _ = _adjusted(code, dual)
    dist = scheme.distribution
    for mass, state_values, row in zip(code.mass, values, dist):
        best = max(state_values)
        if mass and any(p and v != best for p, v in zip(row, state_values)):
            return False

    # Tight rows: X[i][i] + P[i] == X[i][j].
    cross, scale = _cross(code, dist)
    for i, (multipliers, xi) in enumerate(zip(lam, cross)):
        if not any(multipliers):
            continue
        pay = scheme.payments[i]
        pay_int = pay.numerator * scale
        for j, w in enumerate(multipliers):
            if w and j != i and (xi[i] - xi[j]) * pay.denominator + pay_int:
                return False
    return True


def _cross(code: SingleCoding, dist) -> tuple:
    """The cross utilities X of a distribution in ints, and their scale.

    X[i][j] is the receiver's payoff of action j, summed over states
    weighted by the probability that i is recommended; the ints are X
    times scale, code.unit times the distribution's common denominator.
    """
    n = code.actions
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
    return cross, code.unit * d_den


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


def _argmax(counts, a: int, b: int) -> list:
    """Per orbit, the indices of its pairs maximizing s + (a/b) * r, b > 0.

    counts is an OrbitCoding's, or each state's actions as pairs of
    multiplicity 1.  Compared in ints as b*s + a*r.  Within one set the
    value is constant, so pairs with equal receiver payoff also have
    equal sender payoff.
    """
    sets = []
    for pairs in counts:
        values = [b * s + a * r for (s, r), _ in pairs]
        best = max(values)
        sets.append([j for j, v in enumerate(values) if v == best])
    return sets


def _tie_break(counts, sets) -> tuple:
    """The uniform tie-break over the sets, one row of shares per orbit:
    each pair of the set gets its multiplicity over the set's total."""
    shares: dict = {}
    rows = []
    for pairs, winners in zip(counts, sets):
        k = sum([pairs[j][1] for j in winners])
        row = [ZERO] * len(pairs)
        for j in winners:
            m = pairs[j][1]
            share = shares.get((m, k))
            if share is None:
                share = shares[m, k] = Fraction(m, k)
            row[j] = share
        rows.append(tuple(row))
    return tuple(rows)


def _follow(code: OrbitCoding, gains, rows) -> tuple:
    """The orbit follow row's activity and the sender payoff of orbit shares.

    Returns (activity, sender, scale), the first two as ints over
    code.unit * scale, scale the shares' common denominator.
    """
    scale = lcm(*[p.denominator for row in rows for p in row])
    activity = sender = 0
    for pairs, mu, gain, row in zip(code.counts, code.mass, gains, rows):
        if mu:
            for ((s, _), _), g, p in zip(pairs, gain, row):
                if p:
                    w = mu * p.numerator * (scale // p.denominator)
                    activity += w * g
                    sender += w * s
    return activity, sender, scale


def welfare_weighted_scheme(
    instance: PersuasionInstance, weight: Fraction
) -> tuple:
    """Distribution recommending argmax of s + weight * r, ties uniform."""
    code = instance.coding
    # Each state's actions as pairs of multiplicity 1.
    states = zip(code.sender, code.receiver)
    counts = [[(pair, 1) for pair in zip(s, r)] for s, r in states]
    return _tie_break(counts, _argmax(counts, weight.numerator, weight.denominator))


def lambda_scheme(
    instance: PersuasionInstance | TypedInstance, lam: Fraction
) -> SignalingScheme:
    """Scaled-welfare scheme for scalar lambda: argmax s + n*lambda*r, no payments."""
    inst = _as_instance(instance)
    distribution = welfare_weighted_scheme(inst, inst.actions * lam)
    return SignalingScheme(
        distribution=distribution, payments=(ZERO,) * inst.actions
    )


def _candidates(code: OrbitCoding) -> tuple:
    """The sweep's grid over the lambdas at which two pairs of one orbit
    tie in s + n*lambda*r (rationals.breakpoint_grid)."""
    n = code.actions
    crossings = set()
    for pairs in code.counts:
        for k, ((s, r), _) in enumerate(pairs):
            for (s_other, r_other), _ in pairs[k + 1 :]:
                ds, dr = s - s_other, r_other - r
                # The crossing ds / (n * dr) lies above 0.
                if ds and dr and (ds > 0) == (dr > 0):
                    crossings.add((abs(ds), abs(dr)))
    return breakpoint_grid({Fraction(ds, n * dr) for ds, dr in crossings})


def _require_symmetric(instance, what: str) -> None:
    if not model.is_symmetric(instance):
        raise NotSymmetric(f"{what} requires a symmetric instance")


def _sweep(code: OrbitCoding, gains) -> tuple:
    """The scalar-lambda sweep on a symmetric instance's orbit coding.

    Returns (lambda*, rows, utility, candidates), rows the scheme's orbit
    shares (see _write).  Raises CharacterizationMismatch unless that
    scheme meets the orbit follow row.
    """
    n, unit = code.actions, code.unit
    counts, mass = code.counts, code.mass
    candidates = _candidates(code)
    for lam in candidates:
        sets = _argmax(counts, n * lam.numerator, lam.denominator)
        # Each tie set's receiver-best pair (its gain grows with r).
        hi = [max(winners, key=gain.__getitem__) for gain, winners in zip(gains, sets)]
        act_hi = sum([mu * gain[j] for mu, gain, j in zip(mass, gains, hi)])
        if act_hi >= 0:
            break
    else:
        raise CharacterizationMismatch(
            "no candidate lambda yields a persuasive scheme; the grid "
            "should always end in one"
        )

    lo = [min(winners, key=gain.__getitem__) for gain, winners in zip(gains, sets)]
    act_lo = sum([mu * gain[j] for mu, gain, j in zip(mass, gains, lo)])
    sender_lo = sum([mu * pairs[j][0][0] for mu, pairs, j in zip(mass, counts, lo)])
    sender_hi = sum([mu * pairs[j][0][0] for mu, pairs, j in zip(mass, counts, hi)])
    if act_hi == act_lo:
        t, utility = ONE, Fraction(sender_hi, unit)
    else:
        # Within a tie set sender payoff falls as the follow payoff
        # rises, so mix the extremes to make the activity as small as
        # persuasiveness allows: a share t on the receiver-best side.
        num = max(0, -act_lo)
        den = act_hi - act_lo
        t = Fraction(num, den)
        utility = Fraction(
            sender_lo * den + num * (sender_hi - sender_lo), unit * den
        )
    rows = []
    for pairs, j_lo, j_hi in zip(counts, lo, hi):
        row = [ZERO] * len(pairs)
        if j_lo == j_hi:
            row[j_lo] = ONE
        else:
            row[j_lo], row[j_hi] = ONE - t, t
        rows.append(tuple(row))

    uniform = _tie_break(counts, sets)
    activity, sender, scale = _follow(code, gains, uniform)
    if activity >= 0:
        uniform_utility = Fraction(sender, unit * scale)
        if uniform_utility >= utility:
            rows, utility = uniform, uniform_utility

    if _follow(code, gains, rows)[0] < 0:
        raise CharacterizationMismatch(
            "the scheme at the critical lambda is not persuasive"
        )
    return lam, rows, utility, candidates


def find_lambda_star(
    instance: PersuasionInstance | TypedInstance,
    *,
    cross_check: bool = True,
) -> LambdaStarResult:
    """Smallest lambda whose scaled-welfare support admits a persuasive scheme.

    Requires an action-symmetric instance.  Scanning the breakpoint grid
    upward, the first candidate lambda is found at which some scheme
    supported on the per-state argmax sets of s + n*lambda*r is
    persuasive without payments; that support then carries the optimal
    zero-payment scheme.  Each candidate costs one comparison: the orbit
    follow row's activity (see the module docstring) of the scheme that
    takes each orbit's receiver-best tied pair, the largest the support
    allows.  Away from breakpoints the scheme is the uniform tie-break.
    At a breakpoint that can overshoot the follow incentive and waste
    sender payoff, which falls one-for-one (times n*lambda) as the
    follow payoff rises within a tie set; so the tied extremes are mixed
    to make the activity as small as persuasiveness allows, and the
    uniform scheme is returned only where it is persuasive and no
    mixture beats it.  The returned scheme is checked against the
    follow row too.  With cross_check the answer is certified on the
    zero-payment orbit LP by lambda_star (see _answer).
    """
    view = _orbits(instance)
    code = view[2]
    _require_symmetric(instance, "scalar-lambda sweep")
    lam, rows, utility, candidates = _sweep(code, _gains(code))
    what = "lambda sweep utility" if cross_check else None
    result = _answer(view, PaymentModel.ZERO, rows, ZERO, utility, lam, what)
    return LambdaStarResult(
        lambda_star=lam,
        scheme=result.scheme,
        utility=utility,
        candidates=candidates,
        dual=result.dual,
    )


def _constant_dual(n: int, value: Fraction) -> SingleDual:
    """The multiplier matrix with value on every follow row."""
    lam = tuple(
        [tuple([ZERO if i == j else value for j in range(n)]) for i in range(n)]
    )
    return SingleDual(lam=lam)


def _claim(
    payment_model: PaymentModel,
    scheme: SignalingScheme,
    utility: Fraction,
    dual: SingleDual,
    simplex_duals,
    iterations: int = 0,
) -> lp.LpSolution:
    """An answer written in build_lp's layout as an optimal pair.

    The primal is the scheme row by row, then its payments unless they
    are zero.  The dual is -lam[i][j] on follow row (i, j), simplex_duals
    on the simplex rows and, under budget balance, sum_j lam[0][j] - 1
    ((n-1) lambda - 1 for a constant lambda) on the budget row, which
    prices each free payment column at 0 when every action's
    multipliers sum alike.
    """
    primal = [p for row in scheme.distribution for p in row]
    if payment_model is not PaymentModel.ZERO:
        primal += scheme.payments
    duals = [-v for i, row in enumerate(dual.lam) for j, v in enumerate(row) if i != j]
    duals += simplex_duals
    if payment_model is PaymentModel.BUDGET_BALANCED:
        duals.append(sum(dual.lam[0], ZERO) - 1)
    return lp.LpSolution(lp.OPTIMAL, utility, tuple(primal), tuple(duals), iterations)


def lift(
    inst: PersuasionInstance,
    payment_model: PaymentModel,
    scheme: SignalingScheme,
    utility: Fraction,
    dual: SingleDual,
) -> tuple:
    """build_lp's LP, and a fast path's answer claimed as its optimum.

    State t's simplex row carries mass_t * max_i (s_i + sum_j lam[i][j]
    (r_i - r_j)), computed in ints; _claim writes the rest.
    """
    code = inst.coding
    problem = build_lp(inst, payment_model)
    values, _, lam_den = _adjusted(code, dual)
    y = [Fraction(m * max(v), code.unit * lam_den) for m, v in zip(code.mass, values)]
    return problem, _claim(payment_model, scheme, utility, dual, y)


def _orbit_claim(code, payment_model, rows, payment, utility, lam) -> tuple:
    """The orbit LP, and a symmetric fast path's answer claimed as its
    optimum with the scalar dual lam.

    The primal is the orbit shares, then the payment where the LP has a
    payment column.  The dual is -lam on the follow row and
    mu_o * max_tau (s_tau + lam * (n * r_tau - R_o)) on orbit o's row,
    computed in ints; lifted as in _solve_orbits, it is lift's claim.
    """
    problem = _orbit_lp(code, payment_model)
    primal = [p for row in rows for p in row]
    if len(primal) < problem.num_vars:
        primal.append(payment)
    a, b = lam.numerator, lam.denominator
    duals = [-lam]
    for pairs, mu, gain in zip(code.counts, code.mass, _gains(code)):
        best = max([b * s + a * g for ((s, _), _), g in zip(pairs, gain)])
        duals.append(Fraction(mu * best, code.unit * b))
    return problem, lp.LpSolution(lp.OPTIMAL, utility, tuple(primal), tuple(duals), 0)


def _answer(view, payment_model, rows, payment, utility, lam, what) -> SingleResult:
    """A symmetric fast path's answer: its orbit shares written by
    _write, and the scalar dual lam.

    Unless what is None the answer is certified on the orbit LP (see
    _orbit_claim), and the dual is the one that certified it: lam, or
    minus the solved follow row dual where lam fails and
    lp.check_fast_path solves.
    """
    inst, _, code = view
    if what is not None:
        problem, claim = _orbit_claim(code, payment_model, rows, payment, utility, lam)
        certified = lp.check_fast_path(problem, claim, what)
        if certified is not claim:
            lam = -certified.dual[0]
    return SingleResult(
        instance=inst,
        payment_model=payment_model,
        scheme=_write(view, rows, payment),
        utility=utility,
        dual=_constant_dual(code.actions, lam),
    )


def _threshold_scheme(code: OrbitCoding, gains) -> tuple:
    """Argmax of s + (n/(n-1)) r, ties uniform, as orbit shares, with
    every action's threshold payment and the gross sender payoff.

    The threshold, minus the orbit follow row's activity over n(n-1), is
    the least payment that meets every follow row.
    """
    n = code.actions
    rows = _tie_break(code.counts, _argmax(code.counts, n, n - 1))
    activity, gross, scale = _follow(code, gains, rows)
    unit = code.unit * scale
    return rows, Fraction(-activity, unit * n * (n - 1)), Fraction(gross, unit)


def canonical_two_action_scheme(
    instance: PersuasionInstance | TypedInstance,
    *,
    verify: bool = True,
) -> SingleResult:
    """Free-payment optimum for two actions, any prior.

    Recommends argmax of s + 2r (ties uniform) and charges threshold
    payments: the symmetric fast path at n = 2, where no symmetry is
    needed.  With verify the answer is certified on the LP by the dual 1
    on both follow rows (see lift), and the result's dual is the one
    that certified it.
    """
    inst = _as_instance(instance)
    if inst.actions != 2:
        raise WrongActionCount(
            f"two-action fast path got {inst.actions} actions"
        )
    distribution = welfare_weighted_scheme(inst, Fraction(2))
    cross, scale = _cross(inst.coding, distribution)
    payments = tuple(
        [Fraction(cross[i][1 - i] - cross[i][i], scale) for i in range(2)]
    )
    scheme = SignalingScheme(distribution=distribution, payments=payments)
    utility = model.sender_utility(inst, scheme)
    dual = _constant_dual(2, ONE)
    if verify:
        problem, claim = lift(inst, PaymentModel.ARBITRARY, scheme, utility, dual)
        certified = lp.check_fast_path(problem, claim, "two-action scheme utility")
        if certified is not claim:
            dual = _follow_dual(2, certified.dual)
    return SingleResult(
        instance=inst,
        payment_model=PaymentModel.ARBITRARY,
        scheme=scheme,
        utility=utility,
        dual=dual,
    )


def canonical_symmetric_scheme(
    instance: PersuasionInstance | TypedInstance,
    *,
    verify: bool = True,
) -> SingleResult:
    """Free-payment optimum for symmetric instances with n >= 2 actions.

    Recommends argmax of s + (n/(n-1)) r (the scalar dual is 1/(n-1))
    with threshold payments.  Action symmetry makes every follow row
    tight under those payments, which is what lets the single scalar
    certify optimality; with verify it does, on the orbit LP (see
    _orbit_claim).
    """
    view = _orbits(instance)
    code = view[2]
    n = code.actions
    if n < 2:
        raise WrongActionCount("symmetric fast path needs at least two actions")
    _require_symmetric(instance, "symmetric fast path")
    rows, threshold, gross = _threshold_scheme(code, _gains(code))
    what = "symmetric scheme utility" if verify else None
    utility, lam = gross - n * threshold, Fraction(1, n - 1)
    return _answer(view, PaymentModel.ARBITRARY, rows, threshold, utility, lam, what)


def nonnegative_dichotomy(
    instance: PersuasionInstance | TypedInstance,
    *,
    verify: bool = True,
) -> DichotomyResult:
    """Best of the two candidate optima under non-negative payments.

    Either the zero-payment optimum (payments identically 0) or the
    canonical symmetric scheme with its thresholds clipped at zero wins;
    ties go to the payment-free branch.  With verify the winner is
    certified on the orbit LP by its branch's scalar dual (see
    _orbit_claim).
    """
    view = _orbits(instance)
    code = view[2]
    n = code.actions
    if n < 2:
        raise WrongActionCount("dichotomy needs at least two actions")
    _require_symmetric(instance, "scalar-lambda sweep")
    gains = _gains(code)
    lam_star, free_rows, free_utility, _ = _sweep(code, gains)
    paid_rows, threshold, gross = _threshold_scheme(code, gains)
    clipped = max(ZERO, threshold)
    paid_utility = gross - n * clipped

    if free_utility >= paid_utility:
        branch, rows, payment = "no_payment", free_rows, ZERO
        utility, lam = free_utility, lam_star
    else:
        branch, rows, payment = "canonical_payment", paid_rows, clipped
        utility, lam = paid_utility, Fraction(1, n - 1)

    what = "dichotomy winner utility" if verify else None
    return DichotomyResult(
        branch=branch,
        result=_answer(
            view, PaymentModel.NONNEGATIVE, rows, payment, utility, lam, what
        ),
        lambda_star=lam_star,
        no_payment_utility=free_utility,
        canonical_utility=paid_utility,
    )
