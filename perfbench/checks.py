"""Independent correctness checks of every operation's output.

Imported by run.py only, never by the measured worker, so scipy stays
out of the measured process.  Nothing here calls the program: instances
are rebuilt from plain JSON records, typed instances are expanded here
(profiles in lexicographic order for iid priors, in the listed order for
joint ones, as the program documents), and every check works from the
paper's definitions:

* a float LP of each (instance, payment model) pair, with obedience rows
  carrying the expected payments (keep-1 and keep-0 rows for multiple
  receivers), solved by ``scipy.optimize.linprog(method="highs")``; the
  exact optimum must agree within ``HIGHS_TOL``;
* exact re-evaluation of every returned scheme with ``Fraction``: each
  row is a distribution, obedience holds with the scheme's payments,
  the payment model holds exactly, and the value equals the reported
  optimum;
* per instance: a fast path equals its LP exactly, every method reports
  the same optimum for a model, and zero <= nonnegative <= arbitrary,
  zero <= budget_balanced <= arbitrary;
* the paper's fixtures: sec4_1 is 9/8 under arbitrary payments, sec4_2
  is 1/2, 1/2, 1, 3/2 under zero, nonnegative, budget-balanced and
  arbitrary payments.

No check pins a vertex, a route or a scheme: any optimal output passes.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog

F = Fraction
HIGHS_TOL = 1e-6  # absolute, scaled by max(1, |optimum|)

FIXTURES = {
    ("sec4_1", "arbitrary"): F(9, 8),
    ("sec4_2", "zero"): F(1, 2),
    ("sec4_2", "nonnegative"): F(1, 2),
    ("sec4_2", "budget_balanced"): F(1),
    ("sec4_2", "arbitrary"): F(3, 2),
}


def _vec(values) -> list:
    return [F(v) for v in values]


def parse_instance(doc):
    """("single", actions, [(p, s, r)]) or ("multi", receivers, [(p, f, u)])."""
    kind = doc["kind"]
    if kind == "single":
        states = [(F(p), _vec(s), _vec(r)) for p, s, r in doc["states"]]
        return "single", doc["actions"], states
    if kind == "typed":
        n = doc["actions"]
        types = [(F(s), F(r)) for s, r in doc["types"]]
        if doc["iid"] is not None:
            marginal = _vec(doc["iid"])
            rows = []
            for profile in itertools.product(range(len(types)), repeat=n):
                prob = F(1)
                for ty in profile:
                    prob *= marginal[ty]
                rows.append((profile, prob))
        else:
            rows = [(tuple(p), F(q)) for p, q in doc["joint"]]
        states = [
            (prob, [types[t][0] for t in profile], [types[t][1] for t in profile])
            for profile, prob in rows
        ]
        return "single", n, states
    if kind == "multi":
        states = [
            (F(p), _vec(f), [_vec(u) for u in tables]) for p, f, tables in doc["states"]
        ]
        return "multi", doc["receivers"], states
    raise ValueError(f"unknown instance kind {kind!r}")


# ---------------------------------------------------------------------------
# Exact re-evaluation


def _rows_are_distributions(dist, num_states, width, fails) -> bool:
    if len(dist) != num_states:
        fails.append(f"{len(dist)} scheme rows for {num_states} states")
        return False
    for t, row in enumerate(dist):
        if len(row) != width:
            fails.append(f"row {t} has {len(row)} entries, expected {width}")
            return False
        if any(p < 0 for p in row) or sum(row, F(0)) != 1:
            fails.append(f"row {t} is not a distribution")
    return True


def _payment_model_holds(pm, payments, fails) -> None:
    if pm == "zero" and any(payments):
        fails.append("payments under the zero model")
    elif pm == "nonnegative" and any(p < 0 for p in payments):
        fails.append("negative payment under the nonnegative model")
    elif pm == "budget_balanced" and sum(payments, F(0)) != 0:
        fails.append(f"payments sum to {sum(payments, F(0))}, not 0")


def check_single_scheme(inst, pm, sch) -> list:
    _, n, states = inst
    fails: list = []
    dist, pay, utility = [_vec(r) for r in sch["dist"]], _vec(sch["pay"]), F(sch["utility"])
    if not _rows_are_distributions(dist, len(states), n, fails):
        return fails
    if len(pay) != n:
        return fails + ["payment vector has the wrong length"]
    _payment_model_holds(pm, pay, fails)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            slack = pay[i] + sum(
                (p * row[i] * (r[i] - r[j]) for (p, _, r), row in zip(states, dist)),
                F(0),
            )
            if slack < 0:
                fails.append(f"obedience {i}->{j} violated by {-slack}")
    value = sum(
        (p * row[i] * s[i] for (p, s, _), row in zip(states, dist) for i in range(n)),
        F(0),
    ) - sum(pay, F(0))
    if value != utility:
        fails.append(f"scheme is worth {value}, reported {utility}")
    return fails


def _gain(u, i, subset):
    """Receiver i's gain from playing 1 rather than 0 next to subset minus i."""
    return u[i][subset | (1 << i)] - u[i][subset & ~(1 << i)]


def one_probabilities(inst, dist) -> list:
    _, n, states = inst
    return [
        sum(
            (p * row[s] for (p, _, _), row in zip(states, dist) for s in range(1 << n) if s >> i & 1),
            F(0),
        )
        for i in range(n)
    ]


def check_multi_scheme(inst, pm, sch) -> list:
    _, n, states = inst
    fails: list = []
    dist = [_vec(r) for r in sch["dist"]]
    q1, q0, utility = _vec(sch["q1"]), _vec(sch["q0"]), F(sch["utility"])
    if not _rows_are_distributions(dist, len(states), 1 << n, fails):
        return fails
    if len(q1) != n or len(q0) != n:
        return fails + ["payment vectors have the wrong length"]
    _payment_model_holds(pm, q1 + q0, fails)
    for i in range(n):
        keep1 = q1[i]
        keep0 = -q0[i]
        for (p, _, u), row in zip(states, dist):
            for subset, x in enumerate(row):
                if not x:
                    continue
                if subset >> i & 1:
                    keep1 += p * x * _gain(u, i, subset)
                else:
                    keep0 += p * x * _gain(u, i, subset)
        if keep1 < 0:
            fails.append(f"receiver {i} told 1 gains {-keep1} by playing 0")
        if keep0 > 0:
            fails.append(f"receiver {i} told 0 gains {keep0} by playing 1")
    value = sum(
        (p * x * f[s] for (p, f, _), row in zip(states, dist) for s, x in enumerate(row)),
        F(0),
    ) - sum(q1, F(0)) - sum(q0, F(0))
    if value != utility:
        fails.append(f"scheme is worth {value}, reported {utility}")
    return fails


def check_recovered(inst, sch, rec) -> list:
    """Per-recommendation transfers must reproduce the expected payments."""
    x = one_probabilities(inst, [_vec(r) for r in sch["dist"]])
    fails = []
    if _vec(rec["x"]) != x:
        fails.append("recovered one-probabilities differ from the scheme's")
    for i, (p1, p0) in enumerate(zip(_vec(rec["p1"]), _vec(rec["p0"]))):
        if p1 * x[i] != F(sch["q1"][i]) or p0 * (1 - x[i]) != F(sch["q0"][i]):
            fails.append(f"recovered payments of receiver {i} miss their expectation")
    return fails


def check_scheme(inst, pm, sch) -> list:
    if inst[0] == "single":
        return check_single_scheme(inst, pm, sch)
    return check_multi_scheme(inst, pm, sch)


# ---------------------------------------------------------------------------
# Float LP solved by HiGHS


def _single_lp(inst, pm):
    _, n, states = inst
    m = len(states)
    pay = pm != "zero"
    nv = m * n + (n if pay else 0)
    c = np.zeros(nv)
    for t, (p, s, _) in enumerate(states):
        for i in range(n):
            c[t * n + i] = -float(p * s[i])
    a_ub, a_eq, b_eq = [], [], []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            row = np.zeros(nv)  # -(obedience lhs) <= 0
            for t, (p, _, r) in enumerate(states):
                row[t * n + i] = -float(p * (r[i] - r[j]))
            if pay:
                row[m * n + i] = -1.0
            a_ub.append(row)
    for t in range(m):
        row = np.zeros(nv)
        row[t * n : t * n + n] = 1.0
        a_eq.append(row)
        b_eq.append(1.0)
    if pay:
        c[m * n :] = 1.0
    if pm == "budget_balanced":
        row = np.zeros(nv)
        row[m * n :] = 1.0
        a_eq.append(row)
        b_eq.append(0.0)
    free = (None, None)
    bounds = [(0, None)] * (m * n) + [(0, None) if pm == "nonnegative" else free] * (nv - m * n)
    return c, a_ub, a_eq, b_eq, bounds


def _multi_lp(inst, pm):
    _, n, states = inst
    m, nsub = len(states), 1 << n
    pay = pm != "zero"
    cols = m * nsub
    nv = cols + (2 * n if pay else 0)
    c = np.zeros(nv)
    for t, (p, f, _) in enumerate(states):
        for s in range(nsub):
            c[t * nsub + s] = -float(p * f[s])
    if pay:
        c[cols:] = 1.0
    a_ub, a_eq, b_eq = [], [], []
    for i in range(n):
        keep1 = np.zeros(nv)  # -(sum gain + q1) <= 0
        keep0 = np.zeros(nv)  # sum gain - q0 <= 0
        for t, (p, _, u) in enumerate(states):
            for s in range(nsub):
                g = float(p * _gain(u, i, s))
                if s >> i & 1:
                    keep1[t * nsub + s] = -g
                else:
                    keep0[t * nsub + s] = g
        if pay:
            keep1[cols + i] = -1.0
            keep0[cols + n + i] = -1.0
        a_ub += [keep1, keep0]
    for t in range(m):
        row = np.zeros(nv)
        row[t * nsub : (t + 1) * nsub] = 1.0
        a_eq.append(row)
        b_eq.append(1.0)
    if pm == "budget_balanced":
        row = np.zeros(nv)
        row[cols:] = 1.0
        a_eq.append(row)
        b_eq.append(0.0)
    free = (None, None)
    bounds = [(0, None)] * cols + [(0, None) if pm == "nonnegative" else free] * (nv - cols)
    return c, a_ub, a_eq, b_eq, bounds


def highs_value(inst, pm) -> float:
    c, a_ub, a_eq, b_eq, bounds = (_single_lp if inst[0] == "single" else _multi_lp)(inst, pm)
    res = linprog(
        c,
        A_ub=np.array(a_ub) if a_ub else None,
        b_ub=np.zeros(len(a_ub)) if a_ub else None,
        A_eq=np.array(a_eq),
        b_eq=np.array(b_eq),
        bounds=bounds,
        method="highs",
    )
    if res.status != 0:
        raise ValueError(f"HiGHS status {res.status}: {res.message}")
    return -res.fun


# ---------------------------------------------------------------------------
# Records


def _flags(stdout: str) -> dict:
    for line in stdout.splitlines():
        if line.startswith("flags:"):
            return dict(tok.split("=", 1) for tok in line[len("flags:") :].split())
    return {}


def _objective(stdout: str):
    for line in stdout.splitlines():
        if line.startswith("objective:"):
            return F(line.split()[1])
    return None


def cli_results(rec) -> tuple:
    """(results, failures) of one persuade-solve record."""
    fails = []
    flags = _flags(rec["stdout"])
    # budget_balanced reports a property of the scheme, which nonnegative
    # and arbitrary payments need not have; every other flag is a check.
    if rec["model"] in ("nonnegative", "arbitrary"):
        flags.pop("budget_balanced", None)
    if "persuasive" not in flags or any(v != "yes" for v in flags.values()):
        fails.append(f"flags not all yes: {flags}")
    doc = rec["out"]
    if doc is None:
        return {}, fails + ["no --out scheme written"]
    sch = {"utility": doc["sender_utility"], "dist": doc["distribution"]}
    if doc["kind"] == "single_scheme":
        sch["pay"] = doc["payments"]
    else:
        sch["q1"], sch["q0"] = doc["q_one"], doc["q_zero"]
    if _objective(rec["stdout"]) != F(doc["sender_utility"]):
        fails.append("printed objective differs from the scheme file's")
    key = "lp" if rec["method"] == "lp" else "fast"
    return {key: sch}, fails


class Checker:
    """Checks a run's records group by group and keeps only the tallies."""

    def __init__(self, instances):
        self.instances = {k: parse_instance(v) for k, v in instances.items()}
        self.highs: dict = {}
        self.attempted = 0
        self.failed = 0  # raised, exited non-zero, or failed a check
        self.wrong = 0  # failed a check
        self.fixtures_seen: set = set()
        self.messages: list = []
        self._group: list = []

    def _note(self, rec, text) -> None:
        if len(self.messages) < 20:
            self.messages.append(
                f"round {rec['round']} op {rec['op']} {rec['inst']}/{rec['model']}/"
                f"{rec['method']}: {text}"
            )

    def feed(self, rec) -> None:
        if self._group and (
            self._group[0][0]["round"] != rec["round"]
            or self._group[0][0]["inst"] != rec["inst"]
        ):
            self.flush()
        self._group.append((rec, []))

    def _highs(self, inst_key, pm) -> float:
        if (inst_key, pm) not in self.highs:
            self.highs[(inst_key, pm)] = highs_value(self.instances[inst_key], pm)
        return self.highs[(inst_key, pm)]

    def _check_op(self, rec, fails) -> dict:
        """The op's optimum per model, after its own checks."""
        inst = self.instances[rec["inst"]]
        pm = rec["model"]
        if "stdout" in rec:
            results, cli_fails = cli_results(rec)
            fails += cli_fails
        else:
            results = {k: rec[k] for k in ("lp", "fast") if k in rec}
        values = []
        for key, sch in results.items():
            fails += [f"{key}: {f}" for f in check_scheme(inst, pm, sch)]
            values.append(F(sch["utility"]))
        if "recovered" in rec:
            fails += check_recovered(inst, results["fast"], rec["recovered"])
        if len(set(values)) > 1:
            fails.append(f"fast path {values[1]} != LP {values[0]}")
        if values:
            value = values[0]
            try:
                ref = self._highs(rec["inst"], pm)
                if abs(float(value) - ref) > HIGHS_TOL * max(1.0, abs(ref)):
                    fails.append(f"optimum {value} disagrees with HiGHS {ref!r}")
            except ValueError as exc:
                fails.append(str(exc))
            expected = FIXTURES.get((rec["inst"], pm))
            if expected is not None:
                self.fixtures_seen.add((rec["inst"], pm))
                if value != expected:
                    fails.append(f"fixture optimum {value}, the paper gives {expected}")
        return values[0] if values else None

    def flush(self) -> None:
        group, self._group = self._group, []
        by_model: dict = {}
        for rec, fails in group:
            if rec["error"] is not None:
                continue
            try:
                value = self._check_op(rec, fails)
            except (KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
                fails.append(f"unreadable result: {type(exc).__name__}: {exc}")
                value = None
            if value is not None:
                by_model.setdefault(rec["model"], []).append((value, rec, fails))
        # Every method must report the same optimum for a model.
        best = {}
        for pm, entries in by_model.items():
            if len({v for v, _, _ in entries}) > 1:
                for _, _, fails in entries:
                    fails.append(f"methods disagree under {pm}: {[v for v, _, _ in entries]}")
            best[pm] = entries[0][0]
        for low, high in (
            ("zero", "nonnegative"),
            ("nonnegative", "arbitrary"),
            ("zero", "budget_balanced"),
            ("budget_balanced", "arbitrary"),
        ):
            if low in best and high in best and best[low] > best[high]:
                for _, fails in group:
                    fails.append(f"{low} optimum {best[low]} > {high} optimum {best[high]}")
        for rec, fails in group:
            self.attempted += 1
            if rec["error"] is not None:
                self.failed += 1
                self._note(rec, rec["error"])
            elif fails:
                self.failed += 1
                self.wrong += 1
                self._note(rec, "; ".join(fails))
