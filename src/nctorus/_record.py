"""The shared base of the package's immutable value records.

A record declares its fields once, as the tuple ``__slots__``; at class
creation the base appends them to the inherited ones as ``_fields``, so a
subclass with ``__slots__ = ()`` keeps its parent's.  The constructor
``__init__(*values, **fields)`` binds to ``_fields``, a TypeError naming
them on a wrong count, a missing or an unknown field.  Equality between
records of one class, the hash of the field tuple, ``Name(field=value,
...)`` as repr and ``__reduce__``, which rebuilds through the constructor
so that copies and pickles validate again, read ``_fields``; assignment
and deletion raise AttributeError.  A record that validates or has
defaults writes its own signature and calls ``Record.__init__``.

A record built once per term or per algebra operation sets its fields
with one ``object.__setattr__`` line each: the generic binding took
1.6 us against 0.85 us for 5 fields (``timeit``, CPython 3.11, shared
Xeon), and one ``actions`` benchmark pass builds 38,544 terms.  These are
``PolyGaussTerm``, ``PolyGaussVector`` and ``TorusElement``.
"""

from __future__ import annotations

_set_field = object.__setattr__


def _values(record: Record) -> tuple:
    return tuple([getattr(record, name) for name in record._fields])


def _bind(cls: type, values: tuple, fields: dict) -> tuple:
    # the fields after the positional values, each by name: no other key fits the count
    names, given = cls._fields, len(values)
    if given + len(fields) == len(names):
        try:
            return values + tuple([fields[name] for name in names[given:]])
        except KeyError:
            pass
    raise TypeError(f"{cls.__qualname__}({', '.join(names)}) takes each field once, got "
                    f"{len(values)} by position and ({', '.join(fields)}) by name")


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = cls._fields + tuple(cls.__dict__.get("__slots__", ()))

    def __init__(self, *values: object, **fields: object) -> None:
        names = self._fields
        if fields or len(values) != len(names):
            values = _bind(self.__class__, values, fields)
        for name, value in zip(names, values):
            _set_field(self, name, value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return _values(self) == _values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(_values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return self.__class__, _values(self)
