"""The shared base of the package's immutable value records.

A record names its fields in ``__slots__``, in the order of its
constructor's positional parameters, and sets them in ``__init__`` with
``object.__setattr__``.  The base adds value equality between records of
the same class, the hash of the field tuple, ``Name(field=value, ...)`` as
repr, an ``AttributeError`` on assignment and deletion, and a
``__reduce__`` that rebuilds through the constructor, so ``copy`` and
``pickle`` validate again.
"""

from __future__ import annotations


def _values(record: Record) -> tuple:
    return tuple([getattr(record, name) for name in record.__slots__])


class Record:
    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return _values(self) == _values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(_values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return self.__class__, _values(self)
