"""Domain types and base operations for persuasion instances.

Two families of instances:

* Single receiver: finitely many states, n actions, sender payoff
  s_theta(i) and receiver payoff r_theta(i) per state and action.  A
  direct scheme recommends an action per state; the sender may add an
  expected payment P(i) attached to each recommendation.
* Multiple receivers, binary actions: payoffs depend on the set of
  receivers playing 1, encoded as bitmasks with receiver 0 in the least
  significant bit.

All probabilities and payoffs are exact Fractions.  Payments influence a
receiver only through their conditional expectation given the
recommendation, so persuasiveness of (scheme, payments) reduces to
comparing expected payments against per-recommendation thresholds.
"""

from __future__ import annotations

import collections
import enum
import functools
import itertools
import math
import os
import random
from fractions import Fraction

from ._record import record
from .errors import (
    GenerationFailed,
    InconsistentPayments,
    InvalidSetting,
    SizeLimitExceeded,
    ValidationFailed,
    ValidationIssue,
)

ZERO = Fraction(0)
ONE = Fraction(1)

SIZE_LIMIT_ENV = "PERSUADE_SIZE_LIMIT"
DEFAULT_SIZE_LIMIT = 4096


class PaymentModel(enum.Enum):
    """Which expected-payment vectors the sender may commit to."""

    ZERO = "zero"
    NONNEGATIVE = "nonnegative"
    BUDGET_BALANCED = "budget_balanced"
    ARBITRARY = "arbitrary"

    @classmethod
    def from_name(cls, name: str) -> "PaymentModel":
        for member in cls:
            if member.value == name:
                return member
        raise ValueError(f"unknown payment model {name!r}")


@record
class State:
    """One state of the world for a single-receiver instance."""

    prob: Fraction
    sender: tuple
    receiver: tuple


@record
class PersuasionInstance:
    """Single-receiver instance: prior over states, payoffs per action."""

    actions: int
    states: tuple
    default_model: PaymentModel = PaymentModel.ZERO

    @property
    def num_states(self) -> int:
        return len(self.states)

    @functools.cached_property
    def coding(self) -> SingleCoding:
        """The instance in ints (SingleCoding), built on first use and kept."""
        return _single_coding(self)


@record
class ActionType:
    """Scalar payoffs earned when an action of this type is taken."""

    sender: Fraction
    receiver: Fraction


@record
class TypedInstance:
    """Single-receiver instance where each action draws a payoff type.

    The state is the profile of types across actions.  Exactly one of
    iid_marginal (a distribution over types, actions drawn independently)
    or joint (explicit profile probabilities) is set.
    """

    actions: int
    types: tuple
    iid_marginal: tuple | None = None
    joint: tuple | None = None  # ((profile tuple, prob), ...)
    default_model: PaymentModel = PaymentModel.ZERO

    @functools.cached_property
    def expanded(self) -> PersuasionInstance:
        """expand_typed(self), built on first use and kept with the instance."""
        return expand_typed(self)

    @functools.cached_property
    def iid_orbits(self) -> tuple:
        """_iid_orbits(self), built on first use and kept with the instance."""
        return _iid_orbits(self)


@record
class SignalingScheme:
    """A direct scheme plus expected payments per recommendation.

    distribution[theta][i] is the probability of recommending action i in
    state theta; payments[i] is the expected payment E[p * 1(rec = i)]
    attached to recommendation i (positive means sender pays receiver).
    """

    distribution: tuple
    payments: tuple


@record
class OrbitScheme:
    """A scheme of an iid typed instance that treats the actions alike.

    The states are grouped by their multiset of types, and orbits[o]
    gives orbit o's as a count per type; a type whose payoffs equal an
    earlier type's counts as that earlier type.  distribution[o][tau] is
    the probability, in any state of orbit o, of recommending some
    action of type tau, spread uniformly over the actions of that type;
    payments[i] is as in SignalingScheme.
    """

    orbits: tuple
    distribution: tuple
    payments: tuple


@record
class CrossUtilityMatrix:
    """X[i][j]: expected receiver payoff of playing j on recommendation i.

    Entries are unconditional expectations (weighted by the probability
    that i is recommended), which is the form persuasiveness constraints
    use.
    """

    values: tuple

    def entry(self, i: int, j: int) -> Fraction:
        return self.values[i][j]


@record
class MultiState:
    """One state for a multi-receiver binary-action instance.

    sender[S] and receivers[i][S] are indexed by the bitmask S of the
    receivers playing 1 (receiver 0 is the least significant bit).
    """

    prob: Fraction
    sender: tuple
    receivers: tuple


@record
class MultiAgentInstance:
    """Multi-receiver binary-action instance."""

    receivers: int
    states: tuple
    default_model: PaymentModel = PaymentModel.ZERO

    @property
    def num_states(self) -> int:
        return len(self.states)

    @property
    def num_subsets(self) -> int:
        return 1 << self.receivers

    @functools.cached_property
    def coding(self) -> MultiCoding:
        """The instance in ints (MultiCoding), built on first use and kept."""
        return _multi_coding(self)


@record
class MultiAgentScheme:
    """Per-state distribution over recommended 1-sets, plus payments.

    q_one[i] / q_zero[i] are expected payments attached to receiver i's
    1- and 0-recommendations respectively.
    """

    distribution: tuple
    q_one: tuple
    q_zero: tuple


Instance = PersuasionInstance | TypedInstance | MultiAgentInstance


# ---------------------------------------------------------------------------
# Validation


def _check_prob_vector(issues, probs, where):
    total = ZERO
    for k, p in enumerate(probs):
        if p < 0:
            issues.append(
                ValidationIssue(
                    "NegativeProbability", f"{where}[{k}]", f"probability {p} < 0"
                )
            )
        total += p
    if total != 1:
        issues.append(
            ValidationIssue(
                "ProbabilityNotNormalized", where, f"probabilities sum to {total}"
            )
        )


def _covers_subsets(values, n: int) -> bool:
    """Whether values holds 2**n entries, one per subset, without building 2**n."""
    size = len(values)
    return size.bit_length() == n + 1 and not size & (size - 1)


def validate(instance: Instance) -> tuple:
    """Every violated input invariant, empty when the instance is well formed."""
    issues: list = []
    if isinstance(instance, PersuasionInstance):
        if instance.actions < 1:
            issues.append(
                ValidationIssue(
                    "WrongActionCount", "actions", f"need >= 1, got {instance.actions}"
                )
            )
        for t, state in enumerate(instance.states):
            if len(state.sender) != instance.actions:
                issues.append(
                    ValidationIssue(
                        "DimensionMismatch",
                        f"states[{t}].sender",
                        f"expected {instance.actions} payoffs, got {len(state.sender)}",
                    )
                )
            if len(state.receiver) != instance.actions:
                issues.append(
                    ValidationIssue(
                        "DimensionMismatch",
                        f"states[{t}].receiver",
                        f"expected {instance.actions} payoffs, got {len(state.receiver)}",
                    )
                )
        _check_prob_vector(
            issues, [s.prob for s in instance.states], "states"
        )
    elif isinstance(instance, TypedInstance):
        if instance.actions < 1:
            issues.append(
                ValidationIssue(
                    "WrongActionCount", "actions", f"need >= 1, got {instance.actions}"
                )
            )
        if not instance.types:
            issues.append(
                ValidationIssue("DimensionMismatch", "types", "no types given")
            )
        has_iid = instance.iid_marginal is not None
        has_joint = instance.joint is not None
        if has_iid == has_joint:
            issues.append(
                ValidationIssue(
                    "DimensionMismatch",
                    "distribution",
                    "exactly one of iid_marginal and joint must be set",
                )
            )
        elif has_iid:
            if len(instance.iid_marginal) != len(instance.types):
                issues.append(
                    ValidationIssue(
                        "DimensionMismatch",
                        "iid_marginal",
                        f"expected {len(instance.types)} entries, "
                        f"got {len(instance.iid_marginal)}",
                    )
                )
            else:
                _check_prob_vector(issues, instance.iid_marginal, "iid_marginal")
        else:
            seen = set()
            for k, (profile, _prob) in enumerate(instance.joint):
                if len(profile) != instance.actions:
                    issues.append(
                        ValidationIssue(
                            "DimensionMismatch",
                            f"joint[{k}]",
                            f"profile length {len(profile)} != {instance.actions}",
                        )
                    )
                if any(
                    not 0 <= ty < len(instance.types) for ty in profile
                ):
                    issues.append(
                        ValidationIssue(
                            "DimensionMismatch",
                            f"joint[{k}]",
                            f"profile {profile} references an unknown type",
                        )
                    )
                if profile in seen:
                    issues.append(
                        ValidationIssue(
                            "DimensionMismatch",
                            f"joint[{k}]",
                            f"duplicate profile {profile}",
                        )
                    )
                seen.add(profile)
            _check_prob_vector(
                issues, [p for _, p in instance.joint], "joint"
            )
    elif isinstance(instance, MultiAgentInstance):
        if instance.receivers < 1:
            issues.append(
                ValidationIssue(
                    "WrongActionCount",
                    "receivers",
                    f"need >= 1, got {instance.receivers}",
                )
            )
        n = max(instance.receivers, 0)
        for t, state in enumerate(instance.states):
            if not _covers_subsets(state.sender, n):
                issues.append(
                    ValidationIssue(
                        "DimensionMismatch",
                        f"states[{t}].sender",
                        f"expected 2**{n} subset payoffs, got {len(state.sender)}",
                    )
                )
            if len(state.receivers) != instance.receivers:
                issues.append(
                    ValidationIssue(
                        "DimensionMismatch",
                        f"states[{t}].receivers",
                        f"expected {instance.receivers} payoff tables, "
                        f"got {len(state.receivers)}",
                    )
                )
            else:
                for i, table in enumerate(state.receivers):
                    if not _covers_subsets(table, n):
                        issues.append(
                            ValidationIssue(
                                "DimensionMismatch",
                                f"states[{t}].receivers[{i}]",
                                f"expected 2**{n} subset payoffs, got {len(table)}",
                            )
                        )
        _check_prob_vector(
            issues, [s.prob for s in instance.states], "states"
        )
    else:
        issues.append(
            ValidationIssue(
                "DimensionMismatch", "instance", f"unknown instance type {type(instance)}"
            )
        )
    return tuple(issues)


def ensure_valid(instance: Instance) -> Instance:
    """Return the instance unchanged or raise ValidationFailed with all issues."""
    issues = validate(instance)
    if issues:
        raise ValidationFailed(issues)
    return instance


def size_limit() -> int:
    """Maximum size of an explicit LP or enumeration.

    It caps the scheme columns of every explicit LP or enumeration, and
    the follow rows of the single-receiver LP.  Read from
    PERSUADE_SIZE_LIMIT (default 4096) on every call; a value that is
    not a positive integer raises InvalidSetting.
    """
    raw = os.environ.get(SIZE_LIMIT_ENV)
    if not raw:
        return DEFAULT_SIZE_LIMIT
    try:
        limit = int(raw)
    except ValueError:
        limit = 0  # rejected below, with the values below 1
    if limit < 1:
        raise InvalidSetting(
            f"{SIZE_LIMIT_ENV}={raw!r} is not a positive integer"
        )
    return limit


# ---------------------------------------------------------------------------
# Typed expansion and symmetry


def expand_typed(instance: TypedInstance) -> PersuasionInstance:
    """Materialize a typed instance as an explicit state list.

    States are type profiles; taking action i earns the payoffs of the
    type sitting on action i.  iid profiles enumerate in lexicographic
    order so the expansion is deterministic.  Raises SizeLimitExceeded,
    before enumerating, when actions times profiles (the single-receiver
    LP's scheme columns) exceeds size_limit().
    """
    ensure_valid(instance)
    n = instance.actions
    limit = size_limit()
    columns, count = _expanded_columns(instance, limit)
    if columns > limit:
        raise SizeLimitExceeded(
            f"{n} actions times {count} type profiles exceed the configured "
            f"limit of {limit} scheme columns"
        )
    states = []
    if instance.iid_marginal is not None:
        for profile in itertools.product(range(len(instance.types)), repeat=n):
            prob = ONE
            for ty in profile:
                prob *= instance.iid_marginal[ty]
            states.append(_profile_state(instance, profile, prob))
    else:
        for profile, prob in instance.joint:
            states.append(_profile_state(instance, tuple(profile), prob))
    return PersuasionInstance(
        actions=n, states=tuple(states), default_model=instance.default_model
    )


def _expanded_columns(instance: TypedInstance, limit: int) -> tuple:
    """The expanded LP's scheme columns, exact up to past limit, and a
    text counting its profiles."""
    n = instance.actions
    if instance.iid_marginal is not None:
        k = len(instance.types)
        # k**n profiles; past limit.bit_length() actions 2**n alone
        # exceeds the limit, so the exponent is clipped there.
        return n * k ** min(n, limit.bit_length()), f"{k}**{n}"
    return n * len(instance.joint), str(len(instance.joint))


def expands_within_limit(instance: TypedInstance) -> bool:
    """Whether expand_typed(instance) stays within size_limit().

    Counts as expand_typed does, and enumerates nothing.  It does not
    validate the instance, which expand_typed does first.
    """
    limit = size_limit()
    return _expanded_columns(instance, limit)[0] <= limit


def _multiset_count(n: int, k: int, limit: int) -> int:
    """C(n + k - 1, k - 1), the multisets of n out of k types, exact up
    to the first value past limit."""
    count = 1
    for i in range(1, k):
        count = count * (n + i) // i  # C(n + i, i), growing with i
        if count > limit:
            break
    return count


def _iid_orbits(instance: TypedInstance) -> tuple:
    """The orbits of an iid instance's states, without expanding it.

    Returns (types, coding).  coding is the OrbitCoding that
    expand_typed(instance).coding.orbits gives, equal to it field for
    field: one orbit per multiset of payoff pairs, in the order
    expand_typed's profiles first reach them, with mass multinomial(n;
    m) * prod q_tau**m_tau in ints over the same unit.  types[o][j] is
    the type of coding.counts[o][j]'s pair, the lowest-indexed type with
    those payoffs: types with equal payoffs are merged into it.

    Validates the instance, and raises SizeLimitExceeded, before
    anything is enumerated, when the multisets of types, C(n+k-1, k-1),
    or the orbit LP's columns exceed size_limit().
    """
    ensure_valid(instance)
    if instance.iid_marginal is None:
        raise ValueError("iid_orbits needs an iid prior")
    n, types = instance.actions, instance.types
    k = len(types)
    limit = size_limit()
    first: dict = {}
    merged = [first.setdefault((t.sender, t.receiver), i) for i, t in enumerate(types)]
    classes = len(first)
    multisets = _multiset_count(n, k, limit)
    if multisets > limit:
        raise SizeLimitExceeded(
            f"{n} actions over {k} iid types give C({n + k - 1}, {k - 1}) type "
            f"multisets, over the configured limit of {limit} scheme columns"
        )
    # An orbit with j distinct pairs has j columns, and C(c, j) * C(n-1,
    # j-1) of the orbits over c distinct pairs have j.
    columns = sum(
        j * math.comb(classes, j) * math.comb(n - 1, j - 1)
        for j in range(1, min(n, classes) + 1)
    )
    if columns > limit:
        raise SizeLimitExceeded(
            f"{n} actions over {k} iid types give {columns} orbit LP columns, "
            f"over the configured limit of {limit} scheme columns"
        )

    # A profile's probability depends only on its multiset of types, and
    # expand_typed's E is the lcm of their denominators.
    q = instance.iid_marginal
    weight: dict = {}
    dens = set()
    for combo in itertools.combinations_with_replacement(range(k), n):
        prob = ONE
        profiles = math.factorial(n)
        for ty, run in itertools.groupby(combo):
            m = len(list(run))
            prob *= q[ty] ** m
            profiles //= math.factorial(m)
        dens.add(prob.denominator)
        key = tuple(sorted([merged[ty] for ty in combo]))
        weight.setdefault(key, []).append((profiles, prob))
    e = math.lcm(*dens)
    d = math.lcm(*{v.denominator for t in types for v in (t.sender, t.receiver)})
    pair = list(
        zip(_ints([t.sender for t in types], d), _ints([t.receiver for t in types], d))
    )

    # A profile's multiset of merged types is first reached at its sorted
    # self, so the orbits come in sorted order of those multisets.
    of_types, counts, mass = [], [], []
    for key in itertools.combinations_with_replacement(sorted(first.values()), n):
        present = sorted(collections.Counter(key).items(), key=lambda c: pair[c[0]])
        of_types.append(tuple([ty for ty, _ in present]))
        counts.append(tuple([(pair[ty], m) for ty, m in present]))
        mass.append(
            sum(
                [p * prob.numerator * (e // prob.denominator) for p, prob in weight[key]]
            )
        )
    coding = OrbitCoding(
        actions=n, counts=tuple(counts), mass=tuple(mass), unit=e * d
    )
    return tuple(of_types), coding


def _profile_state(instance: TypedInstance, profile, prob) -> State:
    return State(
        prob=prob,
        sender=tuple(instance.types[ty].sender for ty in profile),
        receiver=tuple(instance.types[ty].receiver for ty in profile),
    )


def is_symmetric(instance: PersuasionInstance | TypedInstance) -> bool:
    """Whether the prior is invariant under every permutation of actions.

    Typed instances with an iid marginal are symmetric by construction;
    any other instance is decided on its coding, which keeps the verdict
    (SingleCoding.symmetric).
    """
    if isinstance(instance, TypedInstance):
        if instance.iid_marginal is not None:
            return True
        instance = instance.expanded
    return instance.coding.symmetric


# ---------------------------------------------------------------------------
# Integer codings


@record
class SingleCoding:
    """A single-receiver instance in ints over one common denominator.

    mass[t] is state t's probability times E, and sender[t][i] and
    receiver[t][i] are its payoffs times D, for the least such E and D.
    A sum of masses times payoffs is then an int over unit = E * D, and
    the solvers compare such sums without building a Fraction.
    """

    actions: int
    mass: tuple
    sender: tuple
    receiver: tuple
    unit: int

    @functools.cached_property
    def orbits(self) -> tuple:
        """The states grouped by permuting actions: (of, OrbitCoding).

        A state's orbit is its sorted tuple of per-action (sender,
        receiver) int pairs, numbered in order of first appearance, and
        of[t] is state t's.  Built on first use and kept.
        """
        index: dict = {}
        of, counts, mass = [], [], []
        for m, sender, receiver in zip(self.mass, self.sender, self.receiver):
            key = tuple(sorted(zip(sender, receiver)))
            o = index.get(key)
            if o is None:
                o = index[key] = len(counts)
                counts.append(tuple(collections.Counter(key).items()))
                mass.append(0)
            of.append(o)
            mass[o] += m
        coding = OrbitCoding(
            actions=self.actions, counts=tuple(counts), mass=tuple(mass), unit=self.unit
        )
        return tuple(of), coding

    @functools.cached_property
    def symmetric(self) -> bool:
        """model.is_symmetric's verdict, found on first use and kept.

        Payoff profiles are aggregated into a map (sender vector,
        receiver vector) -> total mass, and the map must be unchanged
        when action coordinates are permuted.  That holds iff every key
        with positive mass carries its orbit's mass (orbits) divided by
        the orbit's size, n! / prod(m!) keys with m running over the
        multiplicities of its pairs: the keys present then fill the orbit.
        """
        of, orbits = self.orbits
        counts, orbit_mass = orbits.counts, orbits.mass
        base: dict = {}
        for o, mass, sender, receiver in zip(of, self.mass, self.sender, self.receiver):
            if mass:
                key = (o, tuple(zip(sender, receiver)))
                base[key] = base.get(key, 0) + mass
        sizes: dict = {}
        for (o, _), mass in base.items():
            size = sizes.get(o)
            if size is None:
                size = math.factorial(self.actions)
                for _, m in counts[o]:
                    size //= math.factorial(m)
                sizes[o] = size
            if mass * size != orbit_mass[o]:
                return False
        return True


@record
class OrbitCoding:
    """The orbits of a single-receiver instance's states under permuting
    the actions, in ints over one common denominator.

    counts[o] holds orbit o's distinct per-action (sender, receiver)
    pairs, sorted, each with its multiplicity, as ((pair, m), ...), and
    mass[o] is the orbit's probability; pairs and masses are the ints of
    the instance's SingleCoding, over the same unit.
    """

    actions: int
    counts: tuple
    mass: tuple
    unit: int


@record
class MultiCoding:
    """A multi-receiver instance in ints over one common denominator.

    mass[t] is state t's probability times E and sender[t][S] its sender
    payoff times D, for the least such E and D.  gain[t][i][S] is
    u_i(S with i) - u_i(S without i) times D, for every S: receiver i's
    marginal utility at S when i is in S, its gain from switching to 1
    when it is not.  pull[t][S] is the net marginal pull of S times D:
    the members' gains minus the outsiders'.  payoff_den is D, and a sum
    of masses times payoffs is an int over unit = E * D.
    """

    receivers: int
    mass: tuple
    sender: tuple
    gain: tuple
    pull: tuple
    payoff_den: int
    unit: int


def _ints(values, d: int) -> tuple:
    return tuple([v.numerator * (d // v.denominator) for v in values])


def _single_coding(instance: PersuasionInstance) -> SingleCoding:
    states = instance.states
    e = math.lcm(*{state.prob.denominator for state in states})
    d = math.lcm(
        *{v.denominator for state in states for v in state.sender + state.receiver}
    )
    return SingleCoding(
        actions=instance.actions,
        mass=_ints([state.prob for state in states], e),
        sender=tuple([_ints(state.sender, d) for state in states]),
        receiver=tuple([_ints(state.receiver, d) for state in states]),
        unit=e * d,
    )


def _multi_coding(instance: MultiAgentInstance) -> MultiCoding:
    states = instance.states
    nsub = instance.num_subsets
    e = math.lcm(*{state.prob.denominator for state in states})
    d = math.lcm(
        *{
            v.denominator
            for state in states
            for table in (state.sender, *state.receivers)
            for v in table
        }
    )
    gain, pull = [], []
    for state in states:
        gains = []
        pulls = [0] * nsub
        for i, table in enumerate(state.receivers):
            u = _ints(table, d)
            bit = 1 << i
            g = tuple([u[subset | bit] - u[subset & ~bit] for subset in range(nsub)])
            for subset, v in enumerate(g):
                pulls[subset] += v if subset & bit else -v
            gains.append(g)
        gain.append(tuple(gains))
        pull.append(tuple(pulls))
    return MultiCoding(
        receivers=instance.receivers,
        mass=_ints([state.prob for state in states], e),
        sender=tuple([_ints(state.sender, d) for state in states]),
        gain=tuple(gain),
        pull=tuple(pull),
        payoff_den=d,
        unit=e * d,
    )


# ---------------------------------------------------------------------------
# Scheme arithmetic


def cross_utility(instance: PersuasionInstance, distribution) -> CrossUtilityMatrix:
    """X[i][j] = sum_theta mu_theta phi_theta(i) r_theta(j)."""
    n = instance.actions
    values = [[ZERO] * n for _ in range(n)]
    for state, dist_row in zip(instance.states, distribution):
        if not state.prob:
            continue
        for i in range(n):
            weight = state.prob * dist_row[i]
            if not weight:
                continue
            row = values[i]
            for j in range(n):
                row[j] = row[j] + weight * state.receiver[j]
    return CrossUtilityMatrix(values=tuple(tuple(row) for row in values))


def recommendation_probabilities(instance: PersuasionInstance, distribution) -> tuple:
    """Unconditional probability that each action is recommended."""
    n = instance.actions
    probs = [ZERO] * n
    for state, dist_row in zip(instance.states, distribution):
        for i in range(n):
            probs[i] += state.prob * dist_row[i]
    return tuple(probs)


def payment_thresholds(instance: PersuasionInstance, distribution) -> tuple:
    """Minimal expected payments making the distribution persuasive.

    T[i] = max_{j != i} X[i][j] - X[i][i], in unconditional (expected
    value) form; 0 when there is no alternative action.  A payment vector
    P is persuasive for the distribution iff P[i] >= T[i] for all i.
    """
    x = cross_utility(instance, distribution)
    n = instance.actions
    thresholds = []
    for i in range(n):
        gaps = [x.entry(i, j) - x.entry(i, i) for j in range(n) if j != i]
        thresholds.append(max(gaps) if gaps else ZERO)
    return tuple(thresholds)


def is_persuasive(instance: PersuasionInstance, scheme: SignalingScheme) -> bool:
    """Whether following every recommendation is a best response.

    P[i] >= T[i] for every i, T the payment thresholds; always true for
    a single-action instance, whatever the payments.
    """
    if instance.actions == 1:
        return True
    thresholds = payment_thresholds(instance, scheme.distribution)
    return all(p >= t for p, t in zip(scheme.payments, thresholds, strict=True))


def orbit_is_persuasive(instance: TypedInstance, scheme: OrbitScheme) -> bool:
    """is_persuasive for a scheme in orbit form of an iid instance.

    The scheme treats the actions alike, so the receiver's side of every
    follow row i -> j is one value: the sum over orbits of the orbit's
    probability times sum_tau y[tau] * (n * r_tau - R), R the orbit's
    total receiver payoff, divided by n(n-1).  The scheme is persuasive
    iff that value plus the least payment is >= 0.  An orbit's
    probability is multinomial(n; m) * prod Q_tau**m_tau, where Q_tau is
    the marginal of type tau plus those of the later types it merges.
    """
    n = instance.actions
    if n == 1:
        return True
    types = instance.types
    first: dict = {}
    share = [ZERO] * len(types)
    for i, (t, q) in enumerate(zip(types, instance.iid_marginal)):
        share[first.setdefault((t.sender, t.receiver), i)] += q
    total = ZERO
    for counts, row in zip(scheme.orbits, scheme.distribution, strict=True):
        prob = Fraction(math.factorial(n))
        receiver = ZERO
        for ty, m in enumerate(counts):
            if m:
                prob *= share[ty] ** m / math.factorial(m)
                receiver += m * types[ty].receiver
        total += prob * sum(
            (p * (n * types[ty].receiver - receiver) for ty, p in enumerate(row) if p),
            ZERO,
        )
    return total / (n * (n - 1)) + min(scheme.payments) >= 0


def sender_utility(instance: PersuasionInstance, scheme: SignalingScheme) -> Fraction:
    """Expected sender payoff net of payments."""
    total = ZERO
    for state, dist_row in zip(instance.states, scheme.distribution):
        if not state.prob:
            continue
        for i in range(instance.actions):
            if dist_row[i]:
                total += state.prob * dist_row[i] * state.sender[i]
    return total - sum(scheme.payments, ZERO)


def per_recommendation_payments(
    instance: PersuasionInstance, scheme: SignalingScheme
) -> tuple:
    """Conditional payment per recommendation: P[i] / Pr[rec = i].

    A never-made recommendation must carry zero expected payment; that
    case reports 0, anything else raises InconsistentPayments.
    """
    probs = recommendation_probabilities(instance, scheme.distribution)
    out = []
    for i in range(instance.actions):
        if probs[i]:
            out.append(scheme.payments[i] / probs[i])
        elif scheme.payments[i]:
            raise InconsistentPayments(
                f"recommendation {i} has probability 0 but expected payment "
                f"{scheme.payments[i]}"
            )
        else:
            out.append(ZERO)
    return tuple(out)


# ---------------------------------------------------------------------------
# Random generators (seeded, exact)


def _random_payoff(rng: random.Random, bound: int = 3) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.choice((1, 1, 2)))


def _random_probs(rng: random.Random, k: int) -> tuple:
    weights = [rng.randint(1, 4) for _ in range(k)]
    total = sum(weights)
    return tuple(Fraction(w, total) for w in weights)


def random_instance(
    seed: int,
    *,
    actions: int = 2,
    states: int = 4,
    symmetric: bool = False,
    types: int = 2,
    joint: bool = False,
) -> PersuasionInstance | TypedInstance:
    """Draw a random instance deterministically from the seed.

    With symmetric=True the result is a TypedInstance whose prior is
    invariant under action permutations: an iid type draw by default, or
    an explicitly symmetrized joint distribution when joint=True.
    """
    rng = random.Random(seed)
    if symmetric:
        if types < 1:
            raise GenerationFailed("need at least one type")
        type_list = tuple(
            ActionType(sender=_random_payoff(rng), receiver=_random_payoff(rng))
            for _ in range(types)
        )
        if not joint:
            return TypedInstance(
                actions=actions,
                types=type_list,
                iid_marginal=_random_probs(rng, types),
            )
        orbit_weight: dict = {}
        profiles = list(itertools.product(range(types), repeat=actions))
        for profile in profiles:
            key = tuple(sorted(profile))
            if key not in orbit_weight:
                orbit_weight[key] = rng.randint(1, 4)
        denom = sum(orbit_weight[tuple(sorted(p))] for p in profiles)
        joint_rows = tuple(
            (p, Fraction(orbit_weight[tuple(sorted(p))], denom)) for p in profiles
        )
        return TypedInstance(actions=actions, types=type_list, joint=joint_rows)
    probs = _random_probs(rng, states)
    state_list = tuple(
        State(
            prob=probs[t],
            sender=tuple(_random_payoff(rng) for _ in range(actions)),
            receiver=tuple(_random_payoff(rng) for _ in range(actions)),
        )
        for t in range(states)
    )
    return PersuasionInstance(actions=actions, states=state_list)


def random_multi_instance(
    seed: int,
    *,
    receivers: int = 2,
    states: int = 2,
    positive_externalities: bool = False,
    monotone_sender: bool = False,
) -> MultiAgentInstance:
    """Draw a random multi-receiver binary-action instance.

    positive_externalities makes every receiver's gain from switching to
    1 non-decreasing in the set of other 1-players (built additively, so
    it holds by construction).  monotone_sender makes the sender payoff
    non-decreasing in the 1-set.
    """
    rng = random.Random(seed)
    n = receivers
    size = 1 << n
    probs = _random_probs(rng, states)
    state_list = []
    for t in range(states):
        if monotone_sender:
            base = Fraction(rng.randint(-2, 2))
            gains = [Fraction(rng.randint(0, 3)) for _ in range(n)]
            pair_bonus = {
                (i, j): Fraction(rng.randint(0, 1))
                for i in range(n)
                for j in range(i + 1, n)
            }
            sender = []
            for mask in range(size):
                members = [i for i in range(n) if mask >> i & 1]
                value = base + sum((gains[i] for i in members), ZERO)
                for a in range(len(members)):
                    for b in range(a + 1, len(members)):
                        value += pair_bonus[(members[a], members[b])]
                sender.append(value)
        else:
            sender = [_random_payoff(rng) for _ in range(size)]
        tables = []
        for i in range(n):
            if positive_externalities:
                table = [ZERO] * size
                # Free values when i plays 0; switching gain is additive
                # in the other 1-players with non-negative weights, so it
                # can only grow as the set grows.
                for mask in range(size):
                    if not mask >> i & 1:
                        table[mask] = _random_payoff(rng)
                gain_base = Fraction(rng.randint(-2, 2))
                gain_coef = [Fraction(rng.randint(0, 2)) for _ in range(n)]
                for mask in range(size):
                    if mask >> i & 1:
                        gain = gain_base + sum(
                            (
                                gain_coef[j]
                                for j in range(n)
                                if j != i and mask >> j & 1
                            ),
                            ZERO,
                        )
                        table[mask] = table[mask & ~(1 << i)] + gain
            else:
                table = [_random_payoff(rng) for _ in range(size)]
            tables.append(tuple(table))
        state_list.append(
            MultiState(prob=probs[t], sender=tuple(sender), receivers=tuple(tables))
        )
    return MultiAgentInstance(receivers=n, states=tuple(state_list))
