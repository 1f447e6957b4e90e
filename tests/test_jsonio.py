"""JSON round-trips, exact parsing, and document validation."""

import contextlib
import io
import json
import os
import tempfile
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persuade import cli, examples, jsonio, model
from persuade.errors import MalformedRational, PersuadeError, ValidationFailed
from persuade.model import MultiAgentScheme, SignalingScheme


def roundtrip(instance):
    doc = jsonio.instance_to_json(instance)
    return jsonio.instance_from_json(json.loads(json.dumps(doc)))


def test_single_instance_roundtrip():
    inst = examples.zero_sum_two_state_instance()
    assert roundtrip(inst) == inst
    doc = jsonio.instance_to_json(inst)
    assert doc["kind"] == "single"
    assert doc["states"][0]["prob"] == "1/2"


def test_typed_instance_roundtrips_both_distributions():
    iid = examples.two_action_type_instance()
    assert roundtrip(iid) == iid
    joint = model.random_instance(5, actions=2, symmetric=True, types=2, joint=True)
    assert roundtrip(joint) == joint
    doc = jsonio.instance_to_json(joint)
    assert "joint" in doc["distribution"]


def test_multi_instance_roundtrip():
    inst = model.random_multi_instance(3, receivers=2, states=3)
    assert roundtrip(inst) == inst
    doc = jsonio.instance_to_json(inst)
    assert doc["kind"] == "multi"
    assert len(doc["states"][0]["sender"]) == 4


def test_decimal_strings_parse_exactly():
    doc = {
        "kind": "single",
        "actions": 2,
        "states": [
            {"prob": "0.25", "sender": ["1", "0"], "receiver": ["0", "1"]},
            {"prob": "3/4", "sender": ["0", "1"], "receiver": ["1", "0"]},
        ],
    }
    inst = jsonio.instance_from_json(doc)
    assert inst.states[0].prob == F(1, 4)
    assert inst.default_model is model.PaymentModel.ZERO


def test_float_literals_are_rejected():
    doc = {
        "kind": "single",
        "actions": 2,
        "states": [{"prob": 0.25, "sender": ["1", "0"], "receiver": ["0", "1"]}],
    }
    with pytest.raises(MalformedRational):
        jsonio.instance_from_json(doc)


def test_malformed_documents_are_rejected():
    with pytest.raises(ValidationFailed):
        jsonio.instance_from_json({"kind": "mystery"})
    with pytest.raises(ValidationFailed):
        jsonio.instance_from_json({"kind": "single", "actions": 2})
    with pytest.raises(ValidationFailed):
        jsonio.instance_from_json(
            {
                "kind": "single_typed",
                "actions": 2,
                "types": [{"sender": "1", "receiver": "0"}],
                "distribution": {},
            }
        )
    with pytest.raises(ValidationFailed):
        jsonio.instance_from_json([1, 2, 3])


def test_loading_validates_the_instance():
    doc = {
        "kind": "single",
        "actions": 2,
        "states": [{"prob": "1/3", "sender": ["1", "0"], "receiver": ["0", "1"]}],
    }
    with pytest.raises(ValidationFailed):
        jsonio.instance_from_json(doc)


def test_scheme_documents_roundtrip():
    scheme = SignalingScheme(
        distribution=((F(1), F(0)), (F(1, 2), F(1, 2))),
        payments=(F(-1, 2), F(0)),
    )
    doc = jsonio.scheme_to_json(
        scheme, sender_utility=F(9, 8), dual={"symmetric_lambda": "1"}
    )
    again = jsonio.scheme_from_json(json.loads(json.dumps(doc)))
    assert again == scheme
    assert doc["sender_utility"] == "9/8"

    mscheme = MultiAgentScheme(
        distribution=((F(0), F(1, 4), F(0), F(3, 4)),),
        q_one=(F(0), F(1, 3)),
        q_zero=(F(-1, 3), F(0)),
    )
    mdoc = jsonio.scheme_to_json(mscheme, dual={"gamma_star": "1/2"})
    assert jsonio.scheme_from_json(json.loads(json.dumps(mdoc))) == mscheme
    with pytest.raises(ValidationFailed):
        jsonio.scheme_from_json({"kind": "nope"})


def test_file_helpers_roundtrip(tmp_path):
    inst = examples.zero_sum_single_receiver_multi()
    path = tmp_path / "inst.json"
    jsonio.save_instance(str(path), inst)
    assert jsonio.load_instance(str(path)) == inst
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ValidationFailed):
        jsonio.load_instance(str(bad))


# ---------------------------------------------------------------------------
# Malformed documents: a typed error, never a traceback


def _base_documents():
    return [
        jsonio.instance_to_json(examples.zero_sum_two_state_instance()),
        jsonio.instance_to_json(examples.two_action_type_instance()),
        jsonio.instance_to_json(
            model.random_instance(5, actions=2, symmetric=True, types=2, joint=True)
        ),
        jsonio.instance_to_json(examples.zero_sum_single_receiver_multi()),
        jsonio.instance_to_json(model.random_multi_instance(3, receivers=2, states=2)),
    ]


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _paths(value, prefix + (index,))


# Wrong types, floats, numbers a Fraction parses and strings it does not.
_junk = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 4),
    st.floats(-2, 2),
    st.sampled_from(["", "x", "1/0", "-1", "1/2", "0.5", "nan", "2"]),
    st.just([]),
    st.just({}),
    st.lists(st.sampled_from(["1", "0", 1, 0.5]), max_size=3),
)


def _scheme_documents():
    single_scheme = SignalingScheme(
        distribution=((F(1), F(0)), (F(1, 2), F(1, 2))),
        payments=(F(-1, 2), F(0)),
    )
    multi_scheme = MultiAgentScheme(
        distribution=((F(0), F(1, 4), F(0), F(3, 4)), (F(1), F(0), F(0), F(0))),
        q_one=(F(0), F(1, 3)),
        q_zero=(F(-1, 3), F(0)),
    )
    return [
        jsonio.scheme_to_json(
            single_scheme, sender_utility=F(9, 8), dual={"symmetric_lambda": "1"}
        ),
        jsonio.scheme_to_json(multi_scheme, dual={"gamma_star": "1/2"}),
    ]


@st.composite
def _malformed_document(draw, bases=None):
    """A valid document (an instance unless bases are given), one to three edits.

    An edit replaces a value with junk, deletes a key or an entry (a
    missing field, a ragged vector), duplicates an entry, or negates a
    rational (a negative mass).
    """
    bases = _base_documents() if bases is None else bases
    doc = json.loads(json.dumps(draw(st.sampled_from(bases))))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = draw(_junk)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key, value = path[-1], parent[path[-1]]
        edit = draw(st.sampled_from(["replace", "delete", "duplicate", "negate"]))
        if edit == "delete":
            del parent[key]
        elif edit == "duplicate" and isinstance(parent, list):
            parent.append(value)
        elif edit == "negate" and isinstance(value, str):
            parent[key] = "-" + value
        else:
            parent[key] = draw(_junk)
        if not isinstance(doc, (dict, list)):
            break
    return doc


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_malformed_document())
def test_malformed_documents_raise_typed_errors(doc):
    try:
        instance = jsonio.instance_from_json(doc)
    except PersuadeError:
        return
    assert model.validate(instance) == ()


def test_scheme_with_a_scalar_distribution_is_rejected():
    documents = (
        {"kind": "single_scheme", "distribution": 5, "payments": []},
        {"kind": "multi_scheme", "distribution": 5, "q_one": [], "q_zero": []},
    )
    for doc in documents:
        with pytest.raises(ValidationFailed, match="distribution must be a JSON array"):
            jsonio.scheme_from_json(doc)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_malformed_document(_scheme_documents()))
def test_malformed_scheme_documents_raise_typed_errors(doc):
    try:
        scheme = jsonio.scheme_from_json(doc)
    except PersuadeError:
        return
    rows = scheme.distribution
    if isinstance(scheme, SignalingScheme):
        vectors = (scheme.payments,)
    else:
        vectors = (scheme.q_one, scheme.q_zero)
    assert all(type(v) is F for vector in (*rows, *vectors) for v in vector)


def test_cli_solve_maps_malformed_documents_to_exit_codes():
    exit_codes = {
        cli.EXIT_OK,
        cli.EXIT_INVALID_INPUT,
        cli.EXIT_PRECONDITION,
        cli.EXIT_MISMATCH,
        cli.EXIT_SIZE_LIMIT,
        cli.EXIT_ITERATION_LIMIT,
        cli.EXIT_CERTIFICATE,
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "instance.json")
        out = os.path.join(tmp, "report.json")

        @settings(max_examples=150, deadline=None, derandomize=True)
        @given(_malformed_document())
        def check(doc):
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(doc, handle)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
                io.StringIO()
            ):
                code = cli.main(["solve", path, "--out", out])
            assert code in exit_codes

        check()

        # A decimal whose exponent runs past the integer digit limit is
        # refused while parsing, before any number is built.
        doc = {
            "kind": "single",
            "actions": 2,
            "states": [
                {"prob": "1", "sender": ["1e100000", "0"], "receiver": ["0", "1"]}
            ],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            assert cli.main(["solve", path]) == cli.EXIT_INVALID_INPUT
        assert "cannot parse rational from '1e100000'" in err.getvalue()

        # Files json cannot read: invalid UTF-8, nesting past the
        # recursion limit, an integer past the digit limit.
        unreadable = (
            b"\xff\xfe{}",
            b"[" * 100_000,
            b'{"kind": "multi", "receivers": ' + b"9" * 5_000 + b"}",
        )
        for raw in unreadable:
            with open(path, "wb") as handle:
                handle.write(raw)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
                err
            ):
                assert cli.main(["solve", path]) == cli.EXIT_INVALID_INPUT
            assert "is not valid JSON" in err.getvalue()


@pytest.mark.parametrize("receivers", [2_000, 20_000])
def test_cli_solve_sizes_the_receiver_count_before_building_the_subsets(
    tmp_path, capsys, receivers
):
    doc = {
        "kind": "multi",
        "receivers": receivers,
        "states": [{"prob": "1", "sender": ["0", "1"], "receivers": [["0", "0"]]}],
    }
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["solve", str(path)]) == cli.EXIT_INVALID_INPUT
    err = capsys.readouterr().err
    assert f"expected 2**{receivers} subset payoffs, got 2" in err
    assert len(err) < 400
