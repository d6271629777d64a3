"""The immutable record that the package's value classes share.

A record is a fixed tuple of named fields.  Its class lists the fields,
in order, in __slots__, and its __init__ checks the arguments and
assigns each field once through object.__setattr__.  Two records are
equal exactly when they are of the same class and their field tuples
are equal; the hash is that of the field tuple; repr lists the fields
by name, leaving out those named in _hidden; assignment and deletion
raise AttributeError.  Copies and pickles carry the field tuple as
their state and restore it without running __init__.  This is what a
frozen dataclass gives, without importing dataclasses (and inspect)
when the package starts.
"""

from __future__ import annotations

__all__ = ["Record"]


class Record:
    """Base of the record classes; see the module docstring."""

    __slots__ = ()
    _hidden: tuple[str, ...] = ()  # fields left out of repr

    def __getstate__(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setstate__(self, state: tuple) -> None:
        for name, value in zip(self.__slots__, state):
            object.__setattr__(self, name, value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__getstate__() == other.__getstate__()

    def __hash__(self) -> int:
        return hash(self.__getstate__())

    def __repr__(self) -> str:
        shown = (
            f"{name}={getattr(self, name)!r}" for name in self.__slots__ if name not in self._hidden
        )
        return f"{self.__class__.__qualname__}({', '.join(shown)})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
