"""JSON serialization for instances and schemes.

Every number travels as a string in "p/q" or decimal form and is parsed
exactly; floats are rejected at the parsing layer so no binary rounding
can enter.  Instance documents carry a "kind" discriminator: "single"
for explicit single-receiver states, "single_typed" for per-action type
draws (iid marginal or explicit joint), and "multi" for binary-action
multi-receiver instances whose vectors are indexed by subset bitmask
with receiver 0 at the least significant bit.  Scheme documents mirror
the corresponding scheme records plus a sender_utility field and a
dual section, and round-trip losslessly: "single_scheme" per state,
"orbit_scheme" per multiset of types (model.OrbitScheme: "orbits" holds
each multiset as an integer count per type) and "multi_scheme".
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import ValidationFailed, ValidationIssue
from .model import (
    ActionType,
    MultiAgentInstance,
    MultiAgentScheme,
    MultiState,
    OrbitScheme,
    PaymentModel,
    PersuasionInstance,
    SignalingScheme,
    State,
    TypedInstance,
    ensure_valid,
)
from .rationals import format_rational, parse_rational

Instance = PersuasionInstance | TypedInstance | MultiAgentInstance
Scheme = SignalingScheme | OrbitScheme | MultiAgentScheme


def _fail(message: str) -> ValidationFailed:
    issue = ValidationIssue(
        code="MalformedDocument", location="document", message=message
    )
    return ValidationFailed([issue])


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise _fail(f"{where} must be a JSON object")
    return value


def _array(value, where: str) -> list:
    if not isinstance(value, list):
        raise _fail(f"{where} must be a JSON array")
    return value


def _objects(value, where: str) -> list:
    return [_object(v, f"{where}[{k}]") for k, v in enumerate(_array(value, where))]


def _integer(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _fail(f"{where} must be an integer")
    return value


def _vector(values) -> tuple:
    return tuple(parse_rational(v) for v in _array(values, "a vector of numbers"))


def _strings(values) -> list:
    return [format_rational(v) for v in values]


# ---------------------------------------------------------------------------
# Instances


def instance_to_json(instance: Instance) -> dict:
    """Serialize any instance kind into its JSON document."""
    if isinstance(instance, PersuasionInstance):
        return {
            "kind": "single",
            "actions": instance.actions,
            "payment_model": instance.default_model.value,
            "states": [
                {
                    "prob": format_rational(s.prob),
                    "sender": _strings(s.sender),
                    "receiver": _strings(s.receiver),
                }
                for s in instance.states
            ],
        }
    if isinstance(instance, TypedInstance):
        doc = {
            "kind": "single_typed",
            "actions": instance.actions,
            "payment_model": instance.default_model.value,
            "types": [
                {
                    "sender": format_rational(t.sender),
                    "receiver": format_rational(t.receiver),
                }
                for t in instance.types
            ],
        }
        if instance.iid_marginal is not None:
            doc["distribution"] = {"iid_marginal": _strings(instance.iid_marginal)}
        else:
            doc["distribution"] = {
                "joint": [
                    {"profile": list(profile), "prob": format_rational(prob)}
                    for profile, prob in instance.joint
                ]
            }
        return doc
    if isinstance(instance, MultiAgentInstance):
        return {
            "kind": "multi",
            "receivers": instance.receivers,
            "payment_model": instance.default_model.value,
            "states": [
                {
                    "prob": format_rational(s.prob),
                    "sender": _strings(s.sender),
                    "receivers": [_strings(table) for table in s.receivers],
                }
                for s in instance.states
            ],
        }
    raise TypeError(f"cannot serialize {type(instance).__name__}")


def _payment_model(data: dict) -> PaymentModel:
    name = data.get("payment_model", "zero")
    try:
        return PaymentModel.from_name(name)
    except ValueError as exc:
        raise _fail(str(exc)) from exc


def _require(data: dict, key: str):
    if key not in data:
        raise _fail(f"missing required field {key!r}")
    return data[key]


def _joint_row(row: dict) -> tuple:
    profile = _array(_require(row, "profile"), "profile")
    return (
        tuple(_integer(ty, "profile entry") for ty in profile),
        parse_rational(_require(row, "prob")),
    )


def instance_from_json(data: dict) -> Instance:
    """Parse and validate an instance document of any kind.

    A field of the wrong JSON type raises ValidationFailed, as a missing
    one does; numbers go through parse_rational.
    """
    data = _object(data, "instance document")
    kind = data.get("kind")
    if kind == "single":
        states = tuple(
            State(
                prob=parse_rational(_require(s, "prob")),
                sender=_vector(_require(s, "sender")),
                receiver=_vector(_require(s, "receiver")),
            )
            for s in _objects(_require(data, "states"), "states")
        )
        instance: Instance = PersuasionInstance(
            actions=_integer(_require(data, "actions"), "actions"),
            states=states,
            default_model=_payment_model(data),
        )
    elif kind == "single_typed":
        types = tuple(
            ActionType(
                sender=parse_rational(_require(t, "sender")),
                receiver=parse_rational(_require(t, "receiver")),
            )
            for t in _objects(_require(data, "types"), "types")
        )
        dist = _object(_require(data, "distribution"), "distribution")
        iid = dist.get("iid_marginal")
        joint = dist.get("joint")
        if (iid is None) == (joint is None):
            raise _fail(
                "distribution needs exactly one of iid_marginal or joint"
            )
        instance = TypedInstance(
            actions=_integer(_require(data, "actions"), "actions"),
            types=types,
            iid_marginal=None if iid is None else _vector(iid),
            joint=None
            if joint is None
            else tuple(_joint_row(row) for row in _objects(joint, "joint")),
            default_model=_payment_model(data),
        )
    elif kind == "multi":
        states = tuple(
            MultiState(
                prob=parse_rational(_require(s, "prob")),
                sender=_vector(_require(s, "sender")),
                receivers=tuple(
                    _vector(table)
                    for table in _array(_require(s, "receivers"), "receivers")
                ),
            )
            for s in _objects(_require(data, "states"), "states")
        )
        instance = MultiAgentInstance(
            receivers=_integer(_require(data, "receivers"), "receivers"),
            states=states,
            default_model=_payment_model(data),
        )
    else:
        raise _fail(f"unknown instance kind {kind!r}")
    return ensure_valid(instance)


# ---------------------------------------------------------------------------
# Schemes


def scheme_to_json(
    scheme: Scheme,
    *,
    sender_utility: Fraction | None = None,
    dual: dict | None = None,
    recovered_payments: dict | None = None,
) -> dict:
    """Serialize a scheme plus its report metadata.

    dual is a pre-rendered section (strings already formatted), e.g.
    {"lambda": [[...]], "symmetric_lambda": "1/2"} or {"gamma_star": "2"}.
    """
    if isinstance(scheme, SignalingScheme):
        doc = {
            "kind": "single_scheme",
            "distribution": [_strings(row) for row in scheme.distribution],
            "payments": _strings(scheme.payments),
        }
    elif isinstance(scheme, OrbitScheme):
        doc = {
            "kind": "orbit_scheme",
            "orbits": [list(counts) for counts in scheme.orbits],
            "distribution": [_strings(row) for row in scheme.distribution],
            "payments": _strings(scheme.payments),
        }
    elif isinstance(scheme, MultiAgentScheme):
        doc = {
            "kind": "multi_scheme",
            "distribution": [_strings(row) for row in scheme.distribution],
            "q_one": _strings(scheme.q_one),
            "q_zero": _strings(scheme.q_zero),
        }
    else:
        raise TypeError(f"cannot serialize {type(scheme).__name__}")
    if sender_utility is not None:
        doc["sender_utility"] = format_rational(sender_utility)
    doc["dual"] = dual if dual is not None else {}
    if recovered_payments is not None:
        doc["recovered_payments"] = recovered_payments
    return doc


def _rows(data: dict) -> tuple:
    rows = _array(_require(data, "distribution"), "distribution")
    return tuple(_vector(row) for row in rows)


def scheme_from_json(data: dict) -> Scheme:
    """Reconstruct the scheme object from its document."""
    if not isinstance(data, dict):
        raise _fail("scheme document must be a JSON object")
    kind = data.get("kind")
    if kind == "single_scheme":
        return SignalingScheme(
            distribution=_rows(data),
            payments=_vector(_require(data, "payments")),
        )
    if kind == "orbit_scheme":
        orbits = _array(_require(data, "orbits"), "orbits")
        return OrbitScheme(
            orbits=tuple(
                tuple(_integer(m, "orbit count") for m in _array(row, "orbit"))
                for row in orbits
            ),
            distribution=_rows(data),
            payments=_vector(_require(data, "payments")),
        )
    if kind == "multi_scheme":
        return MultiAgentScheme(
            distribution=_rows(data),
            q_one=_vector(_require(data, "q_one")),
            q_zero=_vector(_require(data, "q_zero")),
        )
    raise _fail(f"unknown scheme kind {kind!r}")


# ---------------------------------------------------------------------------
# File helpers


def load_instance(path: str) -> Instance:
    """Read, parse, and validate an instance file.

    A file that is not UTF-8 JSON, nests deeper than the recursion
    limit or holds an integer too long to convert raises ValidationFailed.
    """
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        # ValueError covers JSONDecodeError, UnicodeDecodeError and the
        # integer digit limit.
        except (ValueError, RecursionError) as exc:
            raise _fail(f"{path} is not valid JSON: {exc}") from exc
    return instance_from_json(data)


def save_json(path: str, document: dict) -> None:
    """Write a document with stable formatting and a trailing newline."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=False)
        handle.write("\n")


def save_instance(path: str, instance: Instance) -> None:
    save_json(path, instance_to_json(instance))
