"""`Record`, the base of cigrid's validated, cached and mutable records.

A record is equal to a record of its own class with equal fields, hashes as
the tuple of its fields and shows as `Name(field=value, ...)`, as a
dataclass does, but generates no code at import: the methods below serve
every record, keyed by its `_fields`.  Plain immutable values are
`typing.NamedTuple`s instead.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    """Fields named by `_fields`, read-only: `__init__` sets them with `_set`.
    Instances keep a `__dict__`, where `cached_property` keeps derived values.
    A mutable record sets `__setattr__ = object.__setattr__` and
    `__hash__ = None`."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls._fields)
        # `_values`, the tuple of the fields: attrgetter of one name returns the bare value
        cls._values = property(get if len(cls._fields) > 1 else lambda self: (get(self),))

    def _set(self, **fields: object) -> None:
        # one object.__setattr__ per field: reading `__dict__` would give up
        # CPython's inline instance values and slow every later field read
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return other is self or self._values == other._values
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__name__}")
