"""Records: classes of named fields, built by position or keyword and
compared and printed by value, with no code generated or compiled for them.

A record's fields are its annotated class attributes, in order, read once
when its class is defined; a field's class attribute, where it has one, is
its default. Copies and pickles restore a record's attributes as they are,
without its constructor.
"""

from __future__ import annotations


class Record:
    """A mutable record: equal to a record of its class with equal fields,
    unhashable, and printed as Name(field=value, ...).

    The constructor takes each field by position or keyword, or else its
    default, a list or dict default copied so that no two records share
    one, and then calls `_check`, which raises ValueError for fields
    outside the record's domain.
    """

    _fields = ()
    _defaults = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(self._fields, args))
        self._check()

    def _bind(self, args: tuple, kwargs: dict) -> list:
        """Every field's value, from the arguments or else its default."""
        values = list(args)
        for field in self._fields[len(args):]:
            if field in kwargs:
                values.append(kwargs.pop(field))
            elif field in self._defaults:
                default = self._defaults[field]
                values.append(default.copy() if isinstance(default, (list, dict)) else default)
            else:
                raise TypeError(f"{type(self).__name__}() is missing field {field!r}")
        if kwargs or len(args) > len(self._fields):
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(self._fields)}, once each")
        return values

    def _check(self) -> None:
        """Raise ValueError where the fields are outside the record's domain."""

    def _values(self) -> tuple:
        return tuple([getattr(self, field) for field in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{field}={getattr(self, field)!r}" for field in self._fields)
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Record):
    """An immutable record: assignment and deletion raise AttributeError,
    and it hashes by the tuple of its fields."""

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
