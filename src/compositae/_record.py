"""Base class of the package's immutable value types.

A subclass names its fields in ``__slots__`` and fills them through
``_fill`` from its own ``__init__``.  Equality, hash, pickling and repr
all run over every field in ``__slots__``: a type stores each datum once
and keeps no field that takes no part in equality.  It stands in for
``dataclass(frozen=True)``, whose import and per-class code generation
every CLI call would pay for at start-up.
"""

from __future__ import annotations


class Record:
    __slots__ = ()

    def _fill(self, *values: object) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self) -> tuple:
        return type(self), self._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"
