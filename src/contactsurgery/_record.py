"""The immutable record that the package's value classes share.

A record is a fixed tuple of named fields.  Its class lists the fields,
in order, in __slots__, and Record.__init__ binds positional or keyword
arguments to them in that order, raising TypeError for a missing,
extra, unknown or doubled field; a record that checks its arguments
does so in its own __init__ and then calls Record.__init__ once.  Two
records are equal exactly when they are of the same class and their
field tuples are equal; the hash is that of the field tuple; repr lists
the fields by name, leaving out those named in _hidden; assignment and
deletion raise AttributeError.  Copies and pickles carry the field
tuple as their state and restore it without running __init__.  This is
what a frozen dataclass gives, without importing dataclasses (and
inspect) when the package starts.
"""

from __future__ import annotations

__all__ = ["Record"]


class Record:
    """Base of the record classes; see the module docstring."""

    __slots__ = ()
    _hidden: tuple[str, ...] = ()  # fields left out of repr

    def __init__(self, *args: object, **kwargs: object) -> None:
        names, cls = self.__slots__, self.__class__.__qualname__
        if kwargs:  # the fields after the positional ones, each once
            rest = names[len(args) :]
            for name in kwargs:
                if name not in rest:
                    problem = "got field {!r} twice" if name in names else "has no field {!r}"
                    raise TypeError(f"{cls}() {problem.format(name)}")
            try:
                args += tuple(kwargs[name] for name in rest)
            except KeyError as missing:
                raise TypeError(f"{cls}() is missing field {missing.args[0]!r}") from None
        if len(args) != len(names):
            raise TypeError(f"{cls}() takes {len(names)} fields but {len(args)} were given")
        self.__setstate__(args)

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
