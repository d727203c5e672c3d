"""Value records whose methods are written once, not generated per class.

`Record` is the base of every record type in the package. It exists for
start-up time. The standard library's record decorator writes each class's
`__init__`, `__eq__`, `__hash__`, `__repr__` and frozen `__setattr__` as
source text and `exec`s it in every process, and importing it loads
`inspect`, which nothing else on the analytic path needs. Replacing it on
the package's records cut the scnnsim part of a cold `import scnnsim.cli`
from 80 to 39 ms, and a whole cold analytic `run` of each shipped network
from 212-256 to 171-213 ms (medians of 9 processes each on a 2-core host,
sources compiled at every start). Measure again before going back to it.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    """A record whose fields are the annotated names of its class body, in
    order, each defaulting to the class attribute of that name if any.

        class Point(Record):  # frozen, compared by value
            x: int
            y: int = 0

    The constructor binds fields by position or keyword, refuses unknown,
    repeated and missing ones with a TypeError, and then calls
    `__post_init__`, where checks and normalisation go (attributes are set
    there through `object.__setattr__`). A record is built whole: no field
    can be assigned or deleted afterwards. Records compare equal and hash
    alike when their types and field values are; `eq=False` keeps
    comparison and hashing by identity. A default is shared by every
    instance, so it must be immutable.
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}
    _names: frozenset[str] = frozenset()

    def __init_subclass__(cls, eq: bool = True, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        body = vars(cls)
        new = [n for n in body.get("__annotations__", {}) if n not in cls._names]
        cls._fields = cls._fields + tuple(new)
        cls._names = frozenset(cls._fields)
        cls._defaults = {**cls._defaults, **{n: body[n] for n in new if n in body}}
        cls._key = attrgetter(*cls._fields)
        if not eq:
            cls.__eq__ = object.__eq__
            cls.__hash__ = object.__hash__

    def __init__(self, *args, **kwargs) -> None:
        names = self._fields
        values = self.__dict__
        values.update(self._defaults)
        if args:
            if len(args) > len(names):
                raise TypeError(
                    f"{type(self).__name__}() takes {len(names)} fields "
                    f"but {len(args)} were given"
                )
            values.update(zip(names, args))
        if kwargs:
            if not self._names.issuperset(kwargs):
                unknown = min(kwargs.keys() - self._names)
                raise TypeError(f"{type(self).__name__}() got an unexpected field {unknown!r}")
            if args and not kwargs.keys().isdisjoint(names[: len(args)]):
                twice = min(kwargs.keys() & names[: len(args)])
                raise TypeError(
                    f"{type(self).__name__}() got multiple values for field {twice!r}"
                )
            values.update(kwargs)
        if len(values) != len(names):
            missing = [n for n in names if n not in values]
            raise TypeError(f"{type(self).__name__}() missing field {missing[0]!r}")
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of a frozen {type(self).__name__}")


def fields(record: Record | type[Record]) -> tuple[str, ...]:
    """Field names of a record or record class, in declaration order."""
    return record._fields


def replace(record: Record, **changes) -> Record:
    """A copy of `record` with `changes` applied, built by its constructor,
    so an unknown name is a TypeError and every `__post_init__` check runs
    again."""
    values = {n: getattr(record, n) for n in record._fields}
    values.update(changes)
    return type(record)(**values)
