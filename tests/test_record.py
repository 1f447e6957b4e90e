"""Records against frozen dataclasses with the same fields.

Every record class of the package is compared with a twin made by
dataclasses.make_dataclass(..., frozen=True): repr, equality, hash and
construction agree on drawn field values.  The package itself imports
neither dataclasses nor typing.
"""

import ast
import dataclasses
import importlib
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persuade import lp, model
from persuade._record import FrozenInstanceError, record, replace

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
MODULES = ("errors", "model", "lp", "single", "multi", "reduction", "verify")


def _records():
    found = []
    for name in MODULES:
        module = importlib.import_module(f"persuade.{name}")
        found += [
            cls
            for cls in vars(module).values()
            if isinstance(cls, type)
            and cls.__module__ == module.__name__
            and "_record_values" in cls.__dict__
        ]
    return found


RECORDS = _records()


def _fields(cls):
    """(name, has default, default) per field, in order."""
    return [
        (name, name in cls.__dict__, cls.__dict__.get(name))
        for name in cls.__match_args__
    ]


def _twin(cls):
    spec = [
        (name, object, dataclasses.field(default=default)) if has else (name, object)
        for name, has, default in _fields(cls)
    ]
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True)


def _other(cls):
    """A second record class with cls's fields and defaults."""
    namespace = {"__annotations__": dict.fromkeys(cls.__match_args__, "object")}
    namespace.update((name, default) for name, has, default in _fields(cls) if has)
    return record(type("Other", (), namespace))


TWINS = {cls: _twin(cls) for cls in RECORDS}

_VALUE = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.fractions(max_denominator=4),
    st.text("ab", max_size=2),
    st.tuples(st.integers(-2, 2), st.fractions(max_denominator=3)),
)


@st.composite
def _values(draw, cls):
    """One value per field; LpProblem's must pass its __post_init__."""
    if cls is lp.LpProblem:
        n = draw(st.integers(0, 3))
        objective = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        free = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        return (tuple(objective), tuple(free), (), draw(st.integers(1, 4)))
    return tuple(draw(_VALUE) for _ in cls.__match_args__)


def _plain(cls):
    """Fixed field values that every record class accepts."""
    if cls is lp.LpProblem:
        return ((1,), (False,), (), 1)
    return tuple(range(len(cls.__match_args__)))


def test_every_record_class_is_found():
    # 11 in model, 5 in multi, 4 in single, 3 in lp, 2 in reduction,
    # 1 each in errors and verify.
    assert len(RECORDS) == 27
    assert lp.LpProblem in RECORDS and model.MultiCoding in RECORDS


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_record_matches_frozen_dataclass(cls, data):
    twin = TWINS[cls]
    a = data.draw(_values(cls))
    b = data.draw(st.one_of(st.just(a), _values(cls)))
    ra, rb, ta, tb = cls(*a), cls(*b), twin(*a), twin(*b)
    assert repr(ra) == repr(ta)
    assert (ra == rb) == (ta == tb)
    assert (ra != rb) == (ta != tb)
    assert hash(ra) == hash(ta)
    assert ra == cls(*a) and hash(ra) == hash(cls(*a))
    assert cls.__match_args__ == twin.__match_args__

    keywords = dict(zip(cls.__match_args__, a))
    assert cls(**keywords) == ra
    required = {n: keywords[n] for n, has, _ in _fields(cls) if not has}
    assert repr(cls(**required)) == repr(twin(**required))

    # Another class with the same field values never compares equal.
    assert ra != ta and not ra == ta
    assert ra != _other(cls)(*a)
    assert ra != a


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_missing_or_extra_argument_is_a_type_error(cls):
    values = _plain(cls)
    required = [name for name, has, _ in _fields(cls) if not has]
    for make in (cls, TWINS[cls]):
        with pytest.raises(TypeError):
            make(*values[: len(required) - 1])
        with pytest.raises(TypeError):
            make(*values, None)
        with pytest.raises(TypeError):
            make(*values, unknown=None)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_records_are_frozen(cls):
    instance = cls(*_plain(cls))
    for name in cls.__match_args__ + ("unknown",):
        with pytest.raises(FrozenInstanceError) as raised:
            setattr(instance, name, None)
        assert isinstance(raised.value, AttributeError)
        with pytest.raises(FrozenInstanceError):
            delattr(instance, name)


def test_replace_keeps_other_fields_and_checks_again():
    row = lp.LinearConstraint(((0, 1),), "<=", 1, "cap")
    problem = lp.LpProblem((1, 2), (False, True), (row,), den=3)
    changed = replace(problem, objective=(2, 1))
    assert changed == lp.LpProblem((2, 1), (False, True), (row,), den=3)
    assert replace(problem) == problem and replace(problem) is not problem
    with pytest.raises(ValueError, match="den must be a positive int"):
        replace(problem, den=0)
    with pytest.raises(TypeError):
        replace(problem, unknown=1)
    with pytest.raises(TypeError):
        replace((1, 2), den=1)


@pytest.mark.parametrize(
    "instance, cached",
    [
        (model.random_instance(4, actions=3, states=2), "coding"),
        (model.random_instance(4, actions=3, symmetric=True, types=2), "expanded"),
        (model.random_multi_instance(4, receivers=2, states=2), "coding"),
    ],
)
def test_cached_property_stays_out_of_eq_hash_and_repr(instance, cached):
    fresh = replace(instance)
    before = (hash(instance), repr(instance))
    getattr(instance, cached)
    assert cached in vars(instance) and cached not in vars(fresh)
    assert instance == fresh
    assert (hash(instance), repr(instance)) == before == (hash(fresh), repr(fresh))
    assert f"{cached}=" not in repr(instance)


def _package_trees():
    """(file name, parsed module) for every module of the package."""
    package = os.path.join(SRC, "persuade")
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(package, name)
        with open(path, encoding="utf-8") as handle:
            yield name, ast.parse(handle.read(), filename=path)


def test_no_module_imports_dataclasses():
    found = []
    for name, tree in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] in ("dataclasses", "typing") for m in modules):
                found.append(f"{name}:{node.lineno}")
    assert found == []


def test_no_module_checks_with_assert():
    # python -O strips assert statements; every check raises a typed error.
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _package_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == []
