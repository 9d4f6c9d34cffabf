"""Frozen value records, built without generated code, whose field
annotations are their only type rules.  Building a record checks each
field annotated with one of these aliases of int and float, or with
Optional[...] of one, which also takes None, and a refused value raises
ValueError "<name> must be ...":

    Integer   an int that is not a bool      "must be an integer"
    Count     an Integer, at least 1         "must be an integer >= 1"
    Finite    a finite int or float that is  "must be a finite number"
              not a bool
    Positive  a Finite greater than 0        "must be > 0"

A field annotated with the name of `bool`, an Enum, a Record class or a
typing.Union of Record classes, bare or in Optional[...], takes only an
instance of one: "<name> must be one of <classes>".  The name resolves in
the record module's globals when its first instance is built.  Any other
annotation, such as `int`, `str` or `list[int]`, checks nothing.
"""
import builtins
import math
import sys
from enum import Enum
from typing import get_args

Integer = int
Count = int
Finite = float
Positive = float


class Record:
    """Immutable value whose fields are its class's own annotations, in
    order, with any class-level value as the default; any other class
    attribute, such as a policy's `ident`, is not a field.

    The annotations are read once, when a subclass is created, into
    `_fields` (name -> annotation text) and `_defaults`, out of the class
    dict, and into the field checks (`_checks`) when its first instance is
    built; every subclass shares the methods below.  __init__ takes the
    fields by position or name, runs each field's check and then calls
    __post_init__ for the rules between fields and the ranges.  An instance
    equals only an instance of the same class with equal fields, hashes its
    fields, reprs as `Name(field=value, ...)` and rejects assignment."""

    _fields = {}
    _defaults = {}
    _checks = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = dict(cls.__annotations__)
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields
                         if name in cls.__dict__}
        # a default left in the class would shadow each instance's value,
        # and 3.12 and later leave a load of a shadowed attribute generic
        for name in cls._defaults:
            delattr(cls, name)
        cls._checks = None

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        given = dict(zip(fields, args))
        if (len(args) > len(fields) or not kwargs.keys() <= fields.keys()
                or not given.keys().isdisjoint(kwargs)):
            raise TypeError(f"{type(self).__name__}() takes "
                            f"({', '.join(fields)}), got {args!r} {kwargs!r}")
        values = {**self._defaults, **given, **kwargs}
        missing = fields.keys() - values.keys()
        if missing:
            raise TypeError(f"{type(self).__name__}() is missing "
                            f"{', '.join(sorted(missing))}")
        checks = self._checks
        if checks is None:  # the first instance: resolve the annotations
            namespace = vars(sys.modules[type(self).__module__])
            pairs = ((name, _check(text, namespace))
                     for name, text in fields.items())
            checks = tuple(pair for pair in pairs if pair[1] is not None)
            type(self)._checks = checks
        for name, check in checks:
            check(name, values[name])
        # each field set by name, as a plain __init__ would, so that 3.12
        # keeps the instance's values inline and specializes its loads
        for name in fields:
            object.__setattr__(self, name, values[name])
        self.__post_init__()

    def __post_init__(self) -> None:
        """Raise ValueError if the fields break a rule between fields or
        a range."""

    # The methods below read the fields by name, never through __dict__:
    # reading an instance's __dict__ materializes it, and 3.12 then leaves
    # every later attribute load on that instance generic.

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        # tuples compare as dicts do: identical values first, so a field
        # holding one NaN object equals itself
        return (tuple(getattr(self, name) for name in self._fields)
                == tuple(getattr(other, name) for name in self._fields))

    def __hash__(self) -> int:
        return hash(tuple(getattr(self, name) for name in self._fields))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(" + ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields) + ")"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}")


def _integer(name: str, value) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value}")


def _count(name: str, value) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value}")


def _finite(name: str, value) -> None:
    if (not isinstance(value, (int, float)) or isinstance(value, bool)
            or not math.isfinite(value)):
        raise ValueError(f"{name} must be a finite number, got {value}")


def _positive(name: str, value) -> None:
    _finite(name, value)
    if value <= 0:
        raise ValueError(f"{name} must be > 0, got {value}")


#: alias name -> the check of a field it annotates
_ALIASES = {"Integer": _integer, "Count": _count, "Finite": _finite,
            "Positive": _positive}


def unwrap_optional(annotation: str) -> tuple[str, bool]:
    """(the text inside `Optional[...]`, True), or (annotation, False)."""
    if annotation.startswith("Optional["):
        return annotation[len("Optional["):-1], True
    return annotation, False


def _check(annotation: str, namespace: dict):
    """The check of a field annotated `annotation` in a module whose
    globals are `namespace`, or None for an unchecked field."""
    name, optional = unwrap_optional(annotation)
    if name in _ALIASES:
        rule = _ALIASES[name]
        if not optional:
            return rule
        return lambda field, value: value is None or rule(field, value)
    named = namespace.get(name, getattr(builtins, name, None))
    kinds = get_args(named) or (named,)
    if not all(kind is bool or isinstance(kind, type)
               and issubclass(kind, (Enum, Record)) for kind in kinds):
        return None
    kinds += (type(None),) if optional else ()
    names = ", ".join("None" if kind is type(None) else kind.__name__
                      for kind in kinds)

    def one_of(field: str, value) -> None:
        if not isinstance(value, kinds):
            raise ValueError(f"{field} must be one of {names}, got {value!r}")
    return one_of
