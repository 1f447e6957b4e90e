"""End-to-end tests of the command-line front end and its exit codes."""

import json
import os
import subprocess
import sys
from fractions import Fraction as F

import pytest

from persuade import (
    _pivot_py,
    cli,
    examples,
    jsonio,
    lp,
    model,
    multi,
    reduction,
    single,
    verify,
)
from persuade.verify import PropertyReport


def write_instance(tmp_path, instance, name="inst.json"):
    path = tmp_path / name
    jsonio.save_instance(str(path), instance)
    return str(path)


def report_line(out, label):
    """The key=value pairs of the report's "label:" line ({} if absent)."""
    for line in out.splitlines():
        if line.startswith(f"{label}: "):
            return dict(tok.split("=") for tok in line.split()[1:])
    return {}


def test_examples_roundtrip_and_unknown_name(tmp_path, capsys):
    out = tmp_path / "a.json"
    assert cli.main(["examples", "sec4_1", "--out", str(out)]) == 0
    assert jsonio.load_instance(str(out)) == examples.two_action_type_instance()
    assert "wrote sec4_1" in capsys.readouterr().out

    assert cli.main(["examples", "no-such-example"]) == 2
    assert "unknown example" in capsys.readouterr().err


def test_solve_fast_arbitrary_reports_canonical_value(tmp_path, capsys):
    path = write_instance(tmp_path, examples.two_action_type_instance())
    code = cli.main(["solve", path, "--model", "arbitrary", "--method", "fast"])
    out = capsys.readouterr().out
    assert code == 0
    assert "objective: 9/8" in out
    assert "dual_certified=yes" in out
    assert "persuasive=yes" in out


def test_solve_lp_budget_balanced_two_state(tmp_path, capsys):
    path = write_instance(tmp_path, examples.zero_sum_two_state_instance())
    code = cli.main(
        ["solve", path, "--model", "budget_balanced", "--method", "lp"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "objective: 1 (= 1)" in out
    assert "budget_balanced=yes" in out


def solve_and_report(tmp_path, capsys, instance, payment_model):
    """Solve through the CLI: (flags, properties, total of written payments)."""
    path = write_instance(tmp_path, instance)
    out_path = tmp_path / "scheme.json"
    code = cli.main(["solve", path, "--model", payment_model, "--out", str(out_path)])
    assert code == 0
    out = capsys.readouterr().out
    flags, properties = report_line(out, "flags"), report_line(out, "properties")
    # Every flag is a check, so all read yes on a correct answer.
    assert flags and set(flags.values()) == {"yes"}
    scheme = jsonio.scheme_from_json(json.loads(out_path.read_text(encoding="utf-8")))
    if isinstance(scheme, model.MultiAgentScheme):
        total = multi.total_payments(scheme)
    else:
        total = sum(scheme.payments, F(0))
    return flags, properties, total


@pytest.mark.parametrize("payment_model", cli.MODELS)
@pytest.mark.parametrize("multi_receiver", [False, True])
def test_budget_balance_is_a_flag_only_where_the_model_requires_it(
    tmp_path, capsys, payment_model, multi_receiver
):
    if multi_receiver:
        instance = model.random_multi_instance(4, receivers=2, states=3)
    else:
        instance = examples.zero_sum_two_state_instance()
    flags, properties, total = solve_and_report(
        tmp_path, capsys, instance, payment_model
    )
    if payment_model in ("zero", "budget_balanced"):
        assert "budget_balanced" in flags and not properties
    else:
        # The model allows unbalanced transfers, so whether this optimum
        # pays any is reported, not checked.  On both instances the
        # nonnegative optimum equals the payment-free one (1/2 and 2), so
        # a vertex that pays nothing is as optimal as one that does.
        assert "budget_balanced" not in flags
        assert properties == {"budget_balanced": "yes" if total == 0 else "no"}


def test_budget_balanced_property_reads_no_when_payments_are_needed(tmp_path, capsys):
    # The nonnegative optimum 4/7 exceeds the payment-free -4/7.  Payments
    # are >= 0, so one summing to 0 pays nothing and reaches only -4/7:
    # every nonnegative optimum pays a positive total.
    instance = model.random_instance(16, actions=2, states=2)
    zero, nonnegative = model.PaymentModel.ZERO, model.PaymentModel.NONNEGATIVE
    assert single.solve_optimal(instance, zero).utility == F(-4, 7)
    assert single.solve_optimal(instance, nonnegative).utility == F(4, 7)
    flags, properties, total = solve_and_report(
        tmp_path, capsys, instance, "nonnegative"
    )
    assert "budget_balanced" not in flags
    assert total != 0
    assert properties == {"budget_balanced": "no"}


def test_scheme_file_roundtrips_and_reverifies(tmp_path):
    instance = examples.two_action_type_instance()
    path = write_instance(tmp_path, instance)
    out = tmp_path / "scheme.json"
    code = cli.main(
        [
            "solve",
            path,
            "--model",
            "arbitrary",
            "--method",
            "fast",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    scheme = jsonio.scheme_from_json(doc)
    expanded = model.expand_typed(instance)
    assert model.is_persuasive(expanded, scheme)
    utility = model.sender_utility(expanded, scheme)
    assert utility == F(9, 8)
    assert doc["sender_utility"] == "9/8"
    assert "lambda" in doc["dual"]


def test_fast_zero_requires_symmetry(tmp_path, capsys):
    instance = model.random_instance(7, actions=3, states=3, symmetric=False)
    path = write_instance(tmp_path, instance)
    code = cli.main(["solve", path, "--method", "fast"])
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_budget_balanced_has_no_single_receiver_fast_path(tmp_path, capsys):
    path = write_instance(tmp_path, examples.zero_sum_two_state_instance())
    code = cli.main(
        ["solve", path, "--model", "budget_balanced", "--method", "fast"]
    )
    assert code == 3
    assert "use --method lp" in capsys.readouterr().err


def test_characterization_mismatch_exits_4(tmp_path, capsys, monkeypatch):
    # The fast path's own check raises; the CLI does not check again.
    instance = examples.zero_sum_two_state_instance()
    path = write_instance(tmp_path, instance)
    parts = single._threshold_parts

    def nudged(code, weight):
        rows, thresholds, gross, unit = parts(code, weight)
        return rows, thresholds, gross + 1, unit

    monkeypatch.setattr(single, "_threshold_parts", nudged)
    code = cli.main(["solve", path, "--model", "arbitrary", "--method", "fast"])
    assert code == 4
    assert "two-action scheme utility" in capsys.readouterr().err


@pytest.mark.parametrize("joint", [False, True])
@pytest.mark.parametrize("payment_model", ["zero", "nonnegative", "arbitrary"])
def test_fast_solve_expands_a_typed_instance_once(
    tmp_path, capsys, monkeypatch, joint, payment_model
):
    instance = model.random_instance(
        3, actions=3, symmetric=True, types=2, joint=joint
    )
    path = write_instance(tmp_path, instance)
    calls = []
    real = model.expand_typed

    def counting(typed):
        calls.append(typed)
        return real(typed)

    monkeypatch.setattr(model, "expand_typed", counting)
    code = cli.main(["solve", path, "--model", payment_model, "--method", "fast"])
    assert code == 0
    assert "dual_certified=yes" in capsys.readouterr().out
    assert len(calls) == 1


def test_size_limit_exits_5(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(model.SIZE_LIMIT_ENV, "8")
    instance = model.random_multi_instance(2, receivers=3, states=2)
    path = write_instance(tmp_path, instance)
    code = cli.main(["solve", path, "--method", "lp"])
    assert code == 5
    assert "error:" in capsys.readouterr().err


def test_typed_size_limit_exits_5(tmp_path, capsys, monkeypatch):
    # 13 actions over 2 iid types: 106,496 scheme columns.
    typed = model.TypedInstance(
        actions=13,
        types=(
            model.ActionType(sender=F(1), receiver=F(0)),
            model.ActionType(sender=F(0), receiver=F(1)),
        ),
        iid_marginal=(F(1, 2), F(1, 2)),
    )
    path = write_instance(tmp_path, typed)

    def never_enumerate(*args):
        raise AssertionError("expand_typed enumerated profiles past the size cap")

    monkeypatch.setattr(model, "_profile_state", never_enumerate)
    for method in ("lp", "fast"):
        code = cli.main(["solve", path, "--model", "zero", "--method", method])
        assert code == 5
        assert "scheme columns" in capsys.readouterr().err


def test_explicit_single_size_limit_exits_5(tmp_path, capsys, monkeypatch):
    # 3 actions times 4 states: 12 scheme columns, over a cap of 4.
    monkeypatch.setenv(model.SIZE_LIMIT_ENV, "4")
    instance = model.random_instance(5, actions=3, states=4)
    path = write_instance(tmp_path, instance)

    def never_code(*args):
        raise AssertionError("build_lp coded an instance past the size cap")

    monkeypatch.setattr(model, "_single_coding", never_code)
    for payment_model in cli.MODELS:
        code = cli.main(["solve", path, "--model", payment_model, "--method", "lp"])
        assert code == 5
        assert "scheme columns" in capsys.readouterr().err
    monkeypatch.undo()  # the default cap, and the real coding
    assert cli.main(["solve", path, "--method", "lp"]) == 0


def test_follow_rows_size_limit_exits_5(tmp_path, capsys, monkeypatch):
    # 4 actions times 1 state: 4 scheme columns but 12 follow rows, over
    # a cap of 10.
    monkeypatch.setenv(model.SIZE_LIMIT_ENV, "10")
    instance = model.random_instance(5, actions=4, states=1)
    path = write_instance(tmp_path, instance)

    def never_code(*args):
        raise AssertionError("build_lp coded an instance past the size cap")

    monkeypatch.setattr(model, "_single_coding", never_code)
    for payment_model in cli.MODELS:
        code = cli.main(["solve", path, "--model", payment_model, "--method", "lp"])
        assert code == 5
        assert "12 follow rows" in capsys.readouterr().err
    monkeypatch.undo()
    assert cli.main(["solve", path, "--method", "lp"]) == 0


def test_unverified_fast_path_size_limit_exits_5(tmp_path, capsys, monkeypatch):
    # 2 actions times 4 states: 8 scheme columns, over a cap of 4.
    monkeypatch.setenv(model.SIZE_LIMIT_ENV, "4")
    instance = model.random_instance(5, actions=2, states=4)
    path = write_instance(tmp_path, instance)
    argv = ["solve", path, "--model", "arbitrary", "--method", "fast"]
    assert cli.main(argv) == 5
    assert "scheme columns" in capsys.readouterr().err
    monkeypatch.undo()
    assert cli.main(argv) == 0


@pytest.mark.parametrize(
    "model_name, method", [("arbitrary", "fast"), ("zero", "cutting-plane")]
)
def test_multi_size_limit_exits_5_before_coding(
    tmp_path, capsys, monkeypatch, model_name, method
):
    # 3 receivers: 8 subsets and 16 scheme columns, over a cap of 4.  The
    # instance need not be reducible: its size is checked first.
    monkeypatch.setenv(model.SIZE_LIMIT_ENV, "4")
    instance = model.random_multi_instance(2, receivers=3, states=2)
    path = write_instance(tmp_path, instance)

    def never_code(*args):
        raise AssertionError("the instance was coded past the size cap")

    monkeypatch.setattr(model, "_multi_coding", never_code)
    assert cli.main(["solve", path, "--model", model_name, "--method", method]) == 5
    assert "exceed the configured limit 4" in capsys.readouterr().err


@pytest.fixture
def codings(monkeypatch):
    """Calls of model's two coding builders from here on, by builder."""
    calls = {"single": 0, "multi": 0}
    for kind in calls:
        real = getattr(model, f"_{kind}_coding")

        def counting(instance, real=real, kind=kind):
            calls[kind] += 1
            return real(instance)

        monkeypatch.setattr(model, f"_{kind}_coding", counting)
    return calls


@pytest.mark.parametrize("payment_model", ["budget_balanced", "arbitrary"])
def test_multi_fast_call_codes_the_instance_once(
    tmp_path, capsys, codings, payment_model
):
    instance = model.random_multi_instance(3, receivers=2, states=3)
    path = write_instance(tmp_path, instance)
    argv = ["solve", path, "--model", payment_model, "--method", "fast"]
    assert cli.main(argv + ["--out", str(tmp_path / "out.json")]) == 0
    assert "dual_certified=yes" in capsys.readouterr().out
    assert codings == {"single": 0, "multi": 1}


def test_cutting_plane_call_codes_the_instance_once(tmp_path, capsys, codings):
    instance = model.random_multi_instance(
        1, receivers=3, states=3, positive_externalities=True, monotone_sender=True
    )
    path = write_instance(tmp_path, instance)
    assert cli.main(["solve", path, "--method", "cutting-plane"]) == 0
    assert "dual_certified=yes" in capsys.readouterr().out
    assert codings == {"single": 0, "multi": 1}


def test_checked_lambda_sweep_codes_the_instance_once(codings):
    # The symmetry check, the sweep and the lifted certificate share one
    # coding of the expanded joint prior.
    typed = model.random_instance(6, actions=3, symmetric=True, types=2, joint=True)
    single.find_lambda_star(typed, cross_check=True)
    assert codings == {"single": 1, "multi": 0}


@pytest.mark.parametrize("raw", ["abc", "-5"])
@pytest.mark.parametrize("kind", ["multi", "typed"])
def test_bad_size_limit_exits_2(tmp_path, capsys, monkeypatch, raw, kind):
    if kind == "multi":
        instance = model.random_multi_instance(2, receivers=2, states=2)
    else:
        instance = model.random_instance(2, actions=2, symmetric=True)
    path = write_instance(tmp_path, instance)
    monkeypatch.setenv(model.SIZE_LIMIT_ENV, raw)
    assert cli.main(["solve", path, "--method", "lp"]) == 2
    assert f"error: {model.SIZE_LIMIT_ENV}={raw!r}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["--method", "lp"],
        ["--model", "nonnegative", "--method", "fast"],
    ],
)
def test_single_receiver_solve_leaves_other_modules_unimported(tmp_path, argv):
    path = write_instance(tmp_path, model.random_instance(3, actions=3, symmetric=True))
    script = (
        "import sys\n"
        "from persuade import cli\n"
        f"code = cli.main(['solve', {path!r}, '--out', {str(tmp_path / 'o.json')!r}]"
        f" + {argv!r})\n"
        "names = ('persuade.multi', 'persuade.reduction', 'persuade.verify')\n"
        "print(code, sorted(n for n in names if n in sys.modules))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"


def test_cli_starts_without_dataclasses_or_unused_modules(tmp_path):
    path = write_instance(tmp_path, model.random_instance(3, actions=3, symmetric=True))
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    script = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "from persuade import cli\n"
        "names = ('dataclasses', 'inspect', 'persuade.examples',"
        " 'persuade.multi', 'persuade.reduction', 'persuade.verify', 'typing')\n"
        "print(sorted(n for n in names if n in sys.modules))\n"
        f"code = cli.main(['solve', {path!r}, '--out', {str(tmp_path / 'o.json')!r}])\n"
        "print(code, 'persuade.multi' in sys.modules, 'typing' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "[]"
    assert lines[-1] == "0 False False"


def test_unknown_suite_is_a_usage_error(capsys):
    assert cli.main(["verify", "--suite", "no-such-suite"]) == 2
    assert "invalid choice: 'no-such-suite'" in capsys.readouterr().err


@pytest.mark.parametrize("seeds", ["0", "-3"])
def test_seed_count_below_one_is_a_usage_error(capsys, monkeypatch, seeds):
    def never_run(*args, **kwargs):
        raise AssertionError("a campaign ran with no seeds")

    monkeypatch.setattr(verify, "run_all", never_run)
    assert cli.main(["verify", "--seeds", seeds]) == 2
    assert f"must be at least 1, got {seeds}" in capsys.readouterr().err


def test_iteration_limit_exits_6(tmp_path, capsys, monkeypatch):
    path = write_instance(tmp_path, examples.zero_sum_two_state_instance())
    def out_of_pivots(tab, basis, enterable, max_iter):
        return _pivot_py.ITERATION_LIMIT, max_iter

    monkeypatch.setattr(_pivot_py, "run_simplex", out_of_pivots)
    assert cli.main(["solve", path, "--model", "arbitrary"]) == 6
    assert "error: simplex exceeded" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["lp", "fast"])
def test_failed_certificate_exits_7(tmp_path, capsys, monkeypatch, method):
    path = write_instance(tmp_path, examples.zero_sum_two_state_instance())
    monkeypatch.setattr(lp, "certify_report", lambda problem, solution: ["forged"])
    code = cli.main(["solve", path, "--model", "arbitrary", "--method", method])
    assert code == cli.EXIT_CERTIFICATE == 7
    assert "error: optimality certificate failed: forged" in capsys.readouterr().err


def test_cutting_plane_reports_generated_rows(tmp_path, capsys):
    instance = model.random_multi_instance(
        4,
        receivers=2,
        states=2,
        positive_externalities=True,
        monotone_sender=True,
    )
    path = write_instance(tmp_path, instance)
    code = cli.main(["solve", path, "--method", "cutting-plane"])
    out = capsys.readouterr().out
    assert code == 0
    assert "generated rows:" in out
    assert "dual_certified=yes" in out

    code = cli.main(
        ["solve", path, "--model", "arbitrary", "--method", "cutting-plane"]
    )
    assert code == 3


def test_failed_repair_exits_4(tmp_path, capsys, monkeypatch):
    # This instance's restricted optimum needs one repair move; with the
    # move bound forced to 0 the repair reports a mismatch, not a traceback.
    instance = model.random_multi_instance(
        6,
        receivers=2,
        states=2,
        positive_externalities=True,
        monotone_sender=True,
    )
    path = write_instance(tmp_path, instance)
    monkeypatch.setattr(reduction, "_move_bound", lambda receivers, support: 0)
    code = cli.main(["solve", path, "--method", "cutting-plane"])
    assert code == cli.EXIT_MISMATCH == 4
    assert "error: repair exceeded its structural move bound" in capsys.readouterr().err


def test_no_verify_is_not_an_option(tmp_path, capsys):
    path = write_instance(tmp_path, examples.two_action_type_instance())
    argv = ["solve", path, "--model", "arbitrary", "--method", "fast"]
    assert cli.main(argv + ["--no-verify"]) == 2
    assert "unrecognized arguments: --no-verify" in capsys.readouterr().err


def _instance_of_kind(kind):
    if kind == "multi":
        return model.random_multi_instance(
            3, receivers=2, states=3, positive_externalities=True, monotone_sender=True
        )
    typed = model.random_instance(
        3, actions=3, symmetric=True, types=2, joint=kind == "joint"
    )
    return model.expand_typed(typed) if kind == "explicit" else typed


def _methods_that_apply(kind, payment_model):
    if kind == "multi":
        fast = payment_model in ("budget_balanced", "arbitrary")
        return ["lp"] + ["fast"] * fast + ["cutting-plane"] * (payment_model == "zero")
    return ["lp"] + ["fast"] * (payment_model != "budget_balanced")


@pytest.mark.parametrize("payment_model", cli.MODELS)
@pytest.mark.parametrize("kind", ["explicit", "iid", "joint", "multi"])
def test_every_solve_reports_dual_certified(tmp_path, capsys, kind, payment_model):
    path = write_instance(tmp_path, _instance_of_kind(kind))
    for method in _methods_that_apply(kind, payment_model):
        argv = ["solve", path, "--model", payment_model, "--method", method]
        assert cli.main(argv) == 0, method
        flags = report_line(capsys.readouterr().out, "flags")
        assert flags["dual_certified"] == "yes", method


@pytest.mark.parametrize("payment_model", ["zero", "nonnegative", "arbitrary"])
def test_lp_and_fast_write_the_same_dual_keys(tmp_path, payment_model):
    path = write_instance(tmp_path, examples.two_action_type_instance())
    keys = []
    for method in ("lp", "fast"):
        out = tmp_path / f"{method}.json"
        argv = ["solve", path, "--model", payment_model, "--method", method]
        assert cli.main(argv + ["--out", str(out)]) == 0
        keys.append(list(json.loads(out.read_text(encoding="utf-8"))["dual"]))
    assert keys[0] == keys[1] == ["lambda", "symmetric_lambda"]


def test_unreadable_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken", encoding="utf-8")
    assert cli.main(["solve", str(bad)]) == 2
    capsys.readouterr()
    assert cli.main(["solve", str(tmp_path / "missing.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_verify_failure_writes_counterexample(tmp_path, capsys, monkeypatch):
    witness = examples.zero_sum_two_state_instance()
    failing = PropertyReport(
        suite="single",
        name="payment_identity",
        runs=3,
        failures=((5, "threshold mismatch"),),
        counterexamples=((5, witness),),
    )

    def fake_run_suite(suite, **kwargs):
        assert suite == "single"
        return [failing]

    monkeypatch.setattr(verify, "run_suite", fake_run_suite)
    code = cli.main(
        [
            "verify",
            "--suite",
            "single",
            "--counterexample-dir",
            str(tmp_path),
        ]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "2/3 FAIL" in out
    assert "seed 5: threshold mismatch" in out
    written = tmp_path / "counterexample-single-payment_identity-seed5.json"
    assert written.exists()
    assert jsonio.load_instance(str(written)) == witness


def test_verify_passes_on_a_small_run(capsys):
    code = cli.main(
        ["verify", "--suite", "single", "--seeds", "4", "--max-actions", "2"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "4/4 pass" in out


def test_missing_subcommand_is_a_usage_error(capsys):
    assert cli.main([]) == 2
    capsys.readouterr()
