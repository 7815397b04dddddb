"""Plain slotted record classes with no code generated at import.

Every record class of the program subclasses one of the two bases below,
lists its fields in ``__slots__`` and writes out its ``__init__``.  The
bases give a shared repr over the fields and, for value objects, field-wise
equality; nothing compiles methods at import time, which a per-file
invocation would pay for on every run.

``_fields`` names the fields that take part in the repr and, for a
``Value``, in equality and hash.  It defaults to the class's own
``__slots__``; a class that caches or back-references something sets it to
the fields that define the value.
"""

from __future__ import annotations

from operator import attrgetter

__all__ = ["Struct", "Value"]


class Struct:
    """A record compared by identity, with a repr over ``_fields``."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._fields = cls.__dict__.get("_fields", cls.__slots__)

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({shown})"


class Value(Struct):
    """A record compared and hashed by its ``_fields``.

    An object of another class is never equal: ``__eq__`` returns
    ``NotImplemented`` for it.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._key = attrgetter(*cls._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))
