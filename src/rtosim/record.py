"""Frozen value records, built without generated code, and the one set
of number checks their __post_init__ methods call.  Each check takes a
record and field names, and raises ValueError "<name> must be ..." unless
every named field is:

    require_count     an int that is not a bool, and at least 1
    require_finite    a finite int or float that is not a bool, or None
                      in a field annotated Optional[float]
    require_positive  as require_finite, and greater than 0
"""
import math


class Record:
    """Immutable value whose fields are its class's own annotations, in
    order, with any class-level value as the default; any other class
    attribute, such as a policy's `ident`, is not a field.

    The annotations are read once, when a subclass is created, into
    `_fields` (name -> annotation text) and `_defaults`; every subclass
    shares the methods below.  __init__ takes the fields by position or
    name and then calls __post_init__ to validate them.  An instance equals
    only an instance of the same class with equal fields, hashes its
    fields, reprs as `Name(field=value, ...)` and rejects assignment."""

    _fields = {}
    _defaults = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = dict(cls.__annotations__)
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields
                         if name in cls.__dict__}

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
        self.__dict__.update({name: values[name] for name in fields})
        self.__post_init__()

    def __post_init__(self) -> None:
        """Raise ValueError if the fields are invalid."""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self) -> int:
        return hash(tuple(self.__dict__.values()))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(" + ", ".join(
            f"{name}={value!r}" for name, value in self.__dict__.items()) + ")"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}")


def require_count(record: Record, *names: str) -> None:
    for name in names:
        value = getattr(record, name)
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise ValueError(f"{name} must be an integer >= 1, got {value}")


def require_finite(record: Record, *names: str) -> None:
    for name in names:
        value = getattr(record, name)
        if value is None and record._fields[name] == "Optional[float]":
            continue
        if (not isinstance(value, (int, float)) or isinstance(value, bool)
                or not math.isfinite(value)):
            raise ValueError(f"{name} must be a finite number, got {value}")


def require_positive(record: Record, *names: str) -> None:
    require_finite(record, *names)
    for name in names:
        value = getattr(record, name)
        if value is not None and value <= 0:
            raise ValueError(f"{name} must be > 0, got {value}")
