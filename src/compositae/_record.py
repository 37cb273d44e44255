"""Base class of the package's immutable value types.

A subclass names its fields in ``__slots__`` and fills them through
``_fill`` from its own ``__init__``.  Equality and hash run over the
fields in ``_key`` (all of them unless the class narrows it).  It stands
in for ``dataclass(frozen=True)``, whose import and per-class code
generation every CLI call would pay for at start-up.
"""

from __future__ import annotations


class Record:
    __slots__ = ()
    _key: tuple[str, ...] = ()

    def _fill(self, *values: object) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._key or self.__slots__)

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
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"
