"""Frozen records: the package's immutable value objects.

A record class subclasses :class:`Record` and lists its fields as class
annotations, in order; a field with a class-level value has that value as
its default.  Every record gets, from the base class alone:

* a constructor taking the fields positionally or by name, which then runs
  the class's ``__post_init__`` (if any) to validate or normalise them;
* equality by class and fields, and a hash that agrees with it;
* a ``Name(field=value, ...)`` repr;
* assignment and deletion that raise ``AttributeError``.

:func:`replace` copies a record with some fields changed, through the
constructor, so the copy is validated as a new record is.  Records are plain
objects with a ``__dict__``, not tuples, so ``object.__setattr__`` still
reaches a field, as ``__post_init__`` does to normalise one.

Nothing is compiled or executed per class: a subclass costs one pass over
its annotations when it is created.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    """Base of an immutable record whose fields are its class annotations."""

    _fields = ()  # field names, in declaration order
    _defaults = {}  # field name -> default, for the fields that have one
    _key = staticmethod(attrgetter("__class__"))  # record -> (class, *field values)

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {f: cls.__dict__[f] for f in cls._fields if f in cls.__dict__}
        cls._key = staticmethod(attrgetter("__class__", *cls._fields))

    def __init__(self, *args, **kwargs) -> None:
        fields, values = self._fields, self.__dict__
        if len(args) > len(fields):
            raise TypeError(f"{type(self).__name__} takes {len(fields)} fields, got {len(args)}")
        values.update(zip(fields, args))
        if kwargs:
            for field in kwargs:
                if field not in fields or field in values:
                    raise TypeError(f"{type(self).__name__}: unknown or repeated field {field!r}")
            values.update(kwargs)
        if len(values) < len(fields):
            for field in fields:
                if field not in values:
                    if field not in self._defaults:
                        raise TypeError(f"{type(self).__name__} is missing field {field!r}")
                    values[field] = self._defaults[field]
        post_init = getattr(self, "__post_init__", None)
        if post_init is not None:
            post_init()

    def __eq__(self, other: object):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, field: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {field!r} of a frozen record")

    def __delattr__(self, field: str) -> None:
        raise AttributeError(f"cannot delete field {field!r} of a frozen record")


def replace(record: Record, **changes: object) -> Record:
    """A copy of ``record`` with ``changes`` applied, validated as a new record."""
    return type(record)(**{**{f: getattr(record, f) for f in record._fields}, **changes})
