"""Closed-form dual certificates of the fast paths, and their LP fallback.

Each fast path's scalar dual, written out on every row of the full LP,
certifies its answer there, so with verification on no fast path solves
an LP.  Where a lifted dual fails, one LP solve decides: an honest
answer passes and a wrong value raises CharacterizationMismatch (exit 4
from the CLI).  The cutting plane solves one LP per round and reads its
scheme from the last round's duals.
"""

import json
from fractions import Fraction as F

import pytest

from persuade import cli, jsonio, lp, model, multi, reduction, single
from persuade._record import replace
from persuade.errors import CharacterizationMismatch
from persuade.model import PaymentModel
from persuade.multi import MultiDual
from persuade.single import SingleDual

from test_multi import ZERO_MASS_MULTI, ZS_MULTI
from test_multi_coding import oracle_virtual_payoff

ZERO = F(0)
ONE = F(1)


@pytest.fixture
def solves(monkeypatch):
    """The problems lp.solve is called on from here on."""
    seen = []
    real = lp.solve

    def counting(problem):
        seen.append(problem)
        return real(problem)

    monkeypatch.setattr(lp, "solve", counting)
    return seen


def _symmetric(seed, actions=3, types=2, joint=False):
    return model.random_instance(
        seed, actions=actions, symmetric=True, types=types, joint=joint
    )


def _symmetric_corpus(seeds):
    for seed in seeds:
        for actions, types in ((2, 2), (3, 2), (3, 3), (4, 2)):
            yield _symmetric(seed, actions, types, joint=seed % 2 == 0)


def _single_certifies(inst, payment_model, scheme, utility, dual):
    return lp.certify_report(*single.lift(inst, payment_model, scheme, utility, dual))


def _multi_certifies(inst, payment_model, scheme, utility, dual):
    return lp.certify_report(*multi.lift(inst, payment_model, scheme, utility, dual))


# ---------------------------------------------------------------------------
# Every closed-form dual certifies


def test_single_receiver_closed_forms_certify():
    for typed in _symmetric_corpus(range(1, 31)):
        inst = typed.expanded
        n = inst.actions
        sweep = single.find_lambda_star(inst, cross_check=False)
        assert sweep.dual == single._constant_dual(n, sweep.lambda_star)
        assert _single_certifies(
            inst, PaymentModel.ZERO, sweep.scheme, sweep.utility, sweep.dual
        ) == []
        free = single.canonical_symmetric_scheme(inst, verify=False)
        assert free.dual.symmetric_value == F(1, n - 1)
        assert _single_certifies(
            inst, PaymentModel.ARBITRARY, free.scheme, free.utility, free.dual
        ) == []
        outcome = single.nonnegative_dichotomy(inst, verify=False)
        won = outcome.result
        expected = sweep.lambda_star if outcome.branch == "no_payment" else F(1, n - 1)
        assert won.dual.symmetric_value == expected
        assert _single_certifies(
            inst, PaymentModel.NONNEGATIVE, won.scheme, won.utility, won.dual
        ) == []


def test_zero_payment_sweep_certifies_under_budget_balance():
    # Symmetric payments that sum to 0 are 0, so the zero-payment optimum
    # is the budget-balanced one; lifted there, lambda* on every follow
    # row and (n-1) lambda* - 1 on the budget row certify it.
    for typed in _symmetric_corpus(range(1, 21)):
        inst = typed.expanded
        sweep = single.find_lambda_star(inst, cross_check=False)
        problem, claim = single.lift(
            inst, PaymentModel.BUDGET_BALANCED, sweep.scheme, sweep.utility, sweep.dual
        )
        assert claim.dual[-1] == (inst.actions - 1) * sweep.lambda_star - 1
        assert lp.certify_report(problem, claim) == []


def test_two_action_dual_certifies_on_any_prior():
    for seed in range(1, 61):
        inst = model.random_instance(seed, actions=2, states=1 + seed % 4)
        result = single.canonical_two_action_scheme(inst, verify=False)
        assert result.dual == single._constant_dual(2, ONE)
        assert _single_certifies(
            inst, PaymentModel.ARBITRARY, result.scheme, result.utility, result.dual
        ) == []


def _multi_corpus(seeds):
    for seed in seeds:
        for receivers, states in ((2, 2), (2, 4), (3, 3)):
            yield model.random_multi_instance(seed, receivers=receivers, states=states)


def test_multi_receiver_duals_certify():
    routes = set()
    for inst in (*_multi_corpus(range(1, 31)), ZS_MULTI, ZERO_MASS_MULTI):
        free = multi.solve_arbitrary(inst)
        assert free.dual.alpha == free.dual.beta == (ONE,) * inst.receivers
        assert free.dual.gamma == ONE
        assert sum(free.dual.y, ZERO) == free.utility
        assert _multi_certifies(
            inst, PaymentModel.ARBITRARY, free.scheme, free.utility, free.dual
        ) == []
        balanced = multi.solve_budget_balanced(inst)
        assert _multi_certifies(
            inst,
            PaymentModel.BUDGET_BALANCED,
            balanced.scheme,
            balanced.utility,
            balanced.dual,
        ) == []
        routes.add(balanced.via)
    assert routes == {"argmax", "gamma_sweep", "lp_support"}


def test_cutting_plane_dual_certifies_on_the_full_zero_payment_lp():
    for seed in range(1, 31):
        inst = model.random_multi_instance(
            seed,
            receivers=2 + seed % 2,
            states=2 + seed % 3,
            positive_externalities=True,
            monotone_sender=True,
        )
        result = reduction.cutting_plane_solve(inst)
        zeros = (ZERO,) * inst.receivers
        dual = MultiDual(alpha=result.alpha, beta=zeros, gamma=None, y=result.y)
        assert _multi_certifies(
            inst, PaymentModel.ZERO, result.scheme, result.objective, dual
        ) == []


def _json_dual(doc, n):
    dual = doc["dual"]
    if "lambda" in dual:
        return SingleDual(lam=tuple(tuple(F(v) for v in row) for row in dual["lambda"]))
    return single._constant_dual(n, F(dual["symmetric_lambda"]))


@pytest.mark.parametrize("payment_model", ["zero", "nonnegative", "arbitrary"])
def test_written_fast_duals_certify(tmp_path, capsys, payment_model):
    # Seeds 4 and 14 of the 3-action shape win on the paid dichotomy
    # branch, where lambda* is not the certifying 1/(n-1).
    pm = PaymentModel.from_name(payment_model)
    branches = set()
    for seed in (1, 2, 3, 4, 14):
        for typed in (_symmetric(seed), _symmetric(seed, actions=2)):
            path = tmp_path / "inst.json"
            out = tmp_path / "scheme.json"
            jsonio.save_instance(str(path), typed)
            argv = ["solve", str(path), "--model", payment_model, "--method", "fast"]
            assert cli.main(argv + ["--out", str(out)]) == 0
            report = capsys.readouterr().out
            assert "dual_certified=yes" in report
            branches.update(w for w in report.split() if w.endswith("_payment"))
            doc = json.loads(out.read_text(encoding="utf-8"))
            inst = typed.expanded
            scheme = jsonio.scheme_from_json(doc)
            dual = _json_dual(doc, inst.actions)
            utility = F(doc["sender_utility"])
            assert _single_certifies(inst, pm, scheme, utility, dual) == []
    if pm is PaymentModel.NONNEGATIVE:
        assert branches == {"no_payment", "canonical_payment"}


# (seed, receivers, states) whose budget-balanced scheme comes from the
# gamma sweep, where the swept gamma is not the LP's gamma*.
_GAMMA_SWEEP = ((1, 2, 2), (1, 2, 4), (3, 2, 2), (3, 3, 3))


def _written_multi_duals_certify(tmp_path, capsys, payment_model, corpus):
    """Solve each instance with --method fast and check that its JSON dual,
    alpha = beta = gamma_star, certifies; return (report, JSON) pairs."""
    pm = PaymentModel.from_name(payment_model)
    written = []
    for inst in corpus:
        path = tmp_path / "inst.json"
        out = tmp_path / "scheme.json"
        jsonio.save_instance(str(path), inst)
        argv = ["solve", str(path), "--model", payment_model, "--method", "fast"]
        assert cli.main(argv + ["--out", str(out)]) == 0
        report = capsys.readouterr().out
        assert "dual_certified=yes" in report
        doc = json.loads(out.read_text(encoding="utf-8"))
        written.append((report, doc))
        gamma = F(doc["dual"]["gamma_star"])
        weights = (gamma,) * inst.receivers
        # Each state's dual: its mass times its largest virtual payoff.
        y = tuple(
            state.prob
            * max(
                oracle_virtual_payoff(inst, t, subset, gamma)
                for subset in range(inst.num_subsets)
            )
            for t, state in enumerate(inst.states)
        )
        dual = MultiDual(alpha=weights, beta=weights, gamma=gamma, y=y)
        scheme = jsonio.scheme_from_json(doc)
        utility = F(doc["sender_utility"])
        assert _multi_certifies(inst, pm, scheme, utility, dual) == []
    return written


def test_written_multi_arbitrary_dual_certifies(tmp_path, capsys):
    _written_multi_duals_certify(
        tmp_path, capsys, "arbitrary", list(_multi_corpus((1, 2, 3)))
    )


# (seed, receivers, states) whose budget-balanced scheme comes from the
# gamma sweep, where the swept gamma is not the LP's gamma*.
_GAMMA_SWEEP = ((1, 2, 2), (1, 2, 4), (3, 2, 2), (3, 3, 3))


def test_written_budget_balanced_dual_certifies(tmp_path, capsys):
    corpus = [
        model.random_multi_instance(seed, receivers=receivers, states=states)
        for seed, receivers, states in _GAMMA_SWEEP
    ]
    written = _written_multi_duals_certify(
        tmp_path, capsys, "budget_balanced", corpus
    )
    for inst, (report, doc) in zip(corpus, written):
        swept = multi.solve_budget_balanced(inst)
        assert swept.via == "gamma_sweep" and swept.gamma_star != swept.dual.gamma
        line = f"scheme reconstruction: gamma_sweep at gamma {swept.gamma_star}"
        assert line in report.splitlines()
        gamma = [doc["dual"]["gamma_star"]] * inst.receivers
        assert doc["dual"]["alpha"] == doc["dual"]["beta"] == gamma


# ---------------------------------------------------------------------------
# No second solve


def _single_fast_paths(inst):
    return (
        lambda: single.find_lambda_star(inst),
        lambda: single.canonical_symmetric_scheme(inst),
        lambda: single.nonnegative_dichotomy(inst),
        lambda: single.canonical_two_action_scheme(
            model.random_instance(5, actions=2, states=3)
        ),
    )


def test_verified_fast_paths_solve_no_lp(solves):
    for seed in (1, 4, 14):
        for call in _single_fast_paths(_symmetric(seed)):
            call()
        inst = model.random_multi_instance(seed, receivers=2, states=3)
        multi.solve_arbitrary(inst)
        assert solves == []
        multi.solve_budget_balanced(inst)
        assert len(solves) == 1
        solves.clear()


@pytest.mark.parametrize(
    "kind, payment_model, expected",
    [
        ("single", "zero", 0),
        ("single", "nonnegative", 0),
        ("single", "arbitrary", 0),
        ("two_action", "arbitrary", 0),
        ("multi", "arbitrary", 0),
        ("multi", "budget_balanced", 1),
    ],
)
def test_fast_cli_solve_counts(
    tmp_path, capsys, monkeypatch, solves, kind, payment_model, expected
):
    if kind == "multi":
        instance = model.random_multi_instance(2, receivers=2, states=3)
    else:
        instance = _symmetric(4, actions=2 if kind == "two_action" else 3)
    builds = []
    build = multi.build_lp_binary

    def counting(*args):
        builds.append(args)
        return build(*args)

    monkeypatch.setattr(multi, "build_lp_binary", counting)
    path = tmp_path / "inst.json"
    jsonio.save_instance(str(path), instance)
    argv = ["solve", str(path), "--model", payment_model, "--method", "fast"]
    assert cli.main(argv) == 0
    assert "dual_certified=yes" in capsys.readouterr().out
    assert len(solves) == expected
    # One LP built per answer: the one its certificate is checked on.
    assert len(builds) == (1 if kind == "multi" else 0)


def test_cutting_plane_solves_one_lp_per_round(solves):
    for seed in range(1, 11):
        inst = model.random_multi_instance(
            seed,
            receivers=2 + seed % 2,
            states=2 + seed % 3,
            positive_externalities=True,
            monotone_sender=True,
        )
        solves.clear()
        result = reduction.cutting_plane_solve(inst)
        assert len(solves) == result.rounds


# ---------------------------------------------------------------------------
# A lifted dual that fails falls back to one LP solve


def _wrong_lift(monkeypatch, module):
    """Zero the dual of every claim a fast path makes: multi's and the
    two-action path's through lift, the symmetric paths' through
    single._orbit_claim."""
    names = ("lift", "_orbit_claim") if module is single else ("lift",)
    for name in names:
        real = getattr(module, name)

        def wrong(*args, real=real):
            problem, claim = real(*args)
            return problem, replace(claim, dual=tuple(ZERO for _ in claim.dual))

        monkeypatch.setattr(module, name, wrong)


def _nudge_utility(monkeypatch):
    """Raise every fast-path utility: single via the threshold schemes'
    gross payoff and the two-action path's model.sender_utility, multi
    via the evaluated sender payoff."""
    parts, utility, evaluate = (
        single._threshold_scheme,
        model.sender_utility,
        multi._evaluate,
    )

    def nudged_parts(code, gains):
        rows, threshold, gross = parts(code, gains)
        return rows, threshold, gross + F(1, 1000)

    def nudged_utility(inst, scheme):
        return utility(inst, scheme) + F(1, 1000)

    def nudged_evaluate(code, distribution):
        sender, follow_one, switch_zero, den = evaluate(code, distribution)
        return sender + 1, follow_one, switch_zero, den

    monkeypatch.setattr(single, "_threshold_scheme", nudged_parts)
    monkeypatch.setattr(model, "sender_utility", nudged_utility)
    monkeypatch.setattr(multi, "_evaluate", nudged_evaluate)


_FALLBACK_CASES = [
    ("single", "arbitrary", lambda: single.canonical_symmetric_scheme(_symmetric(4))),
    (
        "two_action",
        "arbitrary",
        lambda: single.canonical_two_action_scheme(_symmetric(4, actions=2)),
    ),
    ("single", "nonnegative", lambda: single.nonnegative_dichotomy(_symmetric(4))),
    (
        "multi",
        "arbitrary",
        lambda: multi.solve_arbitrary(
            model.random_multi_instance(2, receivers=2, states=3)
        ),
    ),
]


@pytest.mark.parametrize("kind, payment_model, call", _FALLBACK_CASES)
def test_failed_lift_falls_back_to_one_solve(
    tmp_path, capsys, monkeypatch, solves, kind, payment_model, call
):
    _wrong_lift(monkeypatch, multi if kind == "multi" else single)
    call()
    assert len(solves) == 1

    if kind == "multi":
        instance = model.random_multi_instance(2, receivers=2, states=3)
    else:
        instance = _symmetric(4, actions=2 if kind == "two_action" else 3)
    path = tmp_path / "inst.json"
    jsonio.save_instance(str(path), instance)
    argv = ["solve", str(path), "--model", payment_model, "--method", "fast"]
    solves.clear()
    assert cli.main(argv) == 0
    assert "dual_certified=yes" in capsys.readouterr().out
    # The fast path checks its answer itself; the CLI does not check again.
    assert len(solves) == 1

    _nudge_utility(monkeypatch)
    with pytest.raises(CharacterizationMismatch, match="!= LP optimum"):
        call()
    assert cli.main(argv) == cli.EXIT_MISMATCH == 4
    assert "!= LP optimum" in capsys.readouterr().err


def test_check_fast_path_returns_the_pair_that_certified(solves):
    inst = _symmetric(4).expanded
    result = single.canonical_symmetric_scheme(inst, verify=False)
    problem, claim = single.lift(
        inst, PaymentModel.ARBITRARY, result.scheme, result.utility, result.dual
    )
    assert lp.check_fast_path(problem, claim, "canonical scheme") is claim
    assert solves == []
    perturbed = replace(claim, dual=tuple(v + F(1, 7) for v in claim.dual))
    assert lp.certify_report(problem, perturbed)
    certified = lp.check_fast_path(problem, perturbed, "canonical scheme")
    assert len(solves) == 1
    assert certified.primal == claim.primal
    assert certified.objective == claim.objective
    assert certified.dual == lp.solve(problem).dual
    assert lp.certify_report(problem, certified) == []


@pytest.mark.parametrize("payment_model", ["zero", "nonnegative", "arbitrary"])
def test_fast_paths_report_the_dual_that_certified(
    tmp_path, capsys, monkeypatch, solves, payment_model
):
    # With each claimed dual zeroed, the fast paths fall back to one
    # solve of the orbit LP and report its scalar dual, in their results
    # and in the written JSON; lifted, it certifies on the full LP.
    # Under zero payments the full LP's own dual is not constant.
    pm = PaymentModel.from_name(payment_model)
    typed = _symmetric(4)
    inst = typed.expanded
    orbit_lp = single._orbit_lp(inst.coding.orbits[1], pm)
    solved = single._constant_dual(inst.actions, -lp.solve(orbit_lp).dual[0])
    full = single._follow_dual(inst.actions, lp.solve(single.build_lp(inst, pm)).dual)
    assert (full == solved) is (pm is not PaymentModel.ZERO)
    certifies = _single_certifies  # through the unpatched lift
    _wrong_lift(monkeypatch, single)
    solves.clear()
    if pm is PaymentModel.ZERO:
        result = single.find_lambda_star(typed)
    elif pm is PaymentModel.NONNEGATIVE:
        result = single.nonnegative_dichotomy(typed).result
    else:
        result = single.canonical_symmetric_scheme(typed)
    assert solves == [orbit_lp]
    monkeypatch.undo()
    assert result.dual == solved
    assert certifies(inst, pm, result.scheme, result.utility, result.dual) == []

    _wrong_lift(monkeypatch, single)
    path = tmp_path / "inst.json"
    out = tmp_path / "scheme.json"
    jsonio.save_instance(str(path), typed)
    argv = ["solve", str(path), "--model", payment_model, "--method", "fast"]
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert "dual_certified=yes" in capsys.readouterr().out
    monkeypatch.undo()
    doc = json.loads(out.read_text(encoding="utf-8"))
    dual = _json_dual(doc, inst.actions)
    assert dual == solved
    scheme = jsonio.scheme_from_json(doc)
    assert certifies(inst, pm, scheme, F(doc["sender_utility"]), dual) == []


def test_multi_fast_path_reports_the_dual_that_certified(monkeypatch):
    inst = model.random_multi_instance(2, receivers=2, states=3)
    _wrong_lift(monkeypatch, multi)
    result = multi.solve_arbitrary(inst)
    monkeypatch.undo()
    solved = multi.solve_lp(inst, PaymentModel.ARBITRARY).dual
    assert result.dual == solved
    assert _multi_certifies(
        inst, PaymentModel.ARBITRARY, result.scheme, result.utility, result.dual
    ) == []


def test_fallback_certifies_the_claimed_primal(solves):
    # The canonical scheme with its payments zeroed is not persuasive, yet
    # it claims the optimal value; with its dual zeroed too, the lifted
    # dual fails, and the one fallback solve's dual refuses the scheme.
    inst = _symmetric(4).expanded
    result = single.canonical_symmetric_scheme(inst, verify=False)
    free = replace(result.scheme, payments=(ZERO,) * inst.actions)
    assert not model.is_persuasive(inst, free)
    zero = single._constant_dual(inst.actions, ZERO)
    claim = single.lift(inst, PaymentModel.ARBITRARY, free, result.utility, zero)
    with pytest.raises(CharacterizationMismatch, match="fails its certificate"):
        lp.check_fast_path(*claim, "zeroed scheme")
    assert len(solves) == 1


# ---------------------------------------------------------------------------
# Budget balance is certified with the dual of its one LP solve


def _off_the_follow_rows(monkeypatch):
    """Move 1000 of receiver 0's payment from its 1- to its 0-branch on
    every budget-balanced reconstruction: balanced still, not persuasive."""
    normalize = multi._normalize_dead_branches

    def moved(*args):
        q_one, q_zero = normalize(*args)
        return (q_one[0] - 1000,) + q_one[1:], (q_zero[0] + 1000,) + q_zero[1:]

    monkeypatch.setattr(multi, "_normalize_dead_branches", moved)


def test_nudged_budget_balanced_scheme_raises_without_a_second_solve(
    tmp_path, capsys, monkeypatch, solves
):
    corpus = {
        "argmax": model.random_multi_instance(2, receivers=2, states=2),
        "gamma_sweep": model.random_multi_instance(1, receivers=2, states=2),
        "lp_support": ZERO_MASS_MULTI,
    }
    for via, inst in corpus.items():
        assert multi.solve_budget_balanced(inst).via == via
    _off_the_follow_rows(monkeypatch)
    for via, inst in corpus.items():
        solves.clear()
        with pytest.raises(CharacterizationMismatch, match=f"via {via} fails"):
            multi.solve_budget_balanced(inst)
        assert len(solves) == 1

    path = tmp_path / "inst.json"
    jsonio.save_instance(str(path), corpus["argmax"])
    argv = ["solve", str(path), "--model", "budget_balanced", "--method", "fast"]
    assert cli.main(argv) == cli.EXIT_MISMATCH == 4
    assert "follow1[0]" in capsys.readouterr().err
