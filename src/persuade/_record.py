"""Immutable value records: the part of a frozen dataclass the package uses.

@record turns a class whose annotated names are its fields (in order,
with class-level defaults) into an immutable record: a generated
__init__ that calls __post_init__ when the class defines one, equality
between records of the same class with equal field tuples, the hash of
the field tuple, a Name(field=value, ...) repr, __match_args__, and
FrozenInstanceError on any attribute assignment or deletion.  Instances
keep a __dict__, so a functools.cached_property caches there and stays
out of equality, hash and repr.
"""

from __future__ import annotations


class FrozenInstanceError(AttributeError):
    """An attempt to assign or delete an attribute of a record."""


def _eq(self, other):
    if other.__class__ is self.__class__:
        return self._record_values() == other._record_values()
    return NotImplemented


def _hash(self):
    return hash(self._record_values())


def _repr(self):
    fields = (f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
    return f"{self.__class__.__qualname__}({', '.join(fields)})"


def _setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def record(cls):
    """Make cls an immutable record over its annotated fields."""
    names = tuple(cls.__dict__.get("__annotations__", {}))
    namespace = {"_object_setattr": object.__setattr__}
    params = []
    for name in names:
        if name in cls.__dict__:
            namespace[f"_default_{name}"] = cls.__dict__[name]
            params.append(f"{name}=_default_{name}")
        else:
            params.append(name)
    lines = [f"def __init__(self, {', '.join(params)}):"]
    lines += [f" _object_setattr(self, {name!r}, {name})" for name in names]
    if hasattr(cls, "__post_init__"):
        lines.append(" self.__post_init__()")
    values = "".join(f"self.{name}, " for name in names)
    lines.append(f"def _record_values(self):\n return ({values})")
    exec("\n".join(lines), namespace)
    for method in ("__init__", "_record_values"):
        function = namespace[method]
        function.__qualname__ = f"{cls.__qualname__}.{method}"
        setattr(cls, method, function)
    cls.__match_args__ = names
    cls.__eq__ = _eq
    cls.__hash__ = _hash
    cls.__repr__ = _repr
    cls.__setattr__ = _setattr
    cls.__delattr__ = _delattr
    return cls


def replace(obj, /, **changes):
    """A copy of record obj with the named fields changed.

    The copy is built by obj's class, so __post_init__ checks it again.
    """
    if "_record_values" not in type(obj).__dict__:
        raise TypeError("replace() should be called on record instances")
    for name in obj.__match_args__:
        changes.setdefault(name, getattr(obj, name))
    return obj.__class__(**changes)
