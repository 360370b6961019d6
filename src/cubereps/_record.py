"""Immutable records: the equality, hash and repr of a frozen dataclass.

A record class declares its fields as annotations in its own body and
writes its own ``__init__``, which stores each field with
``object.__setattr__``, as a frozen dataclass's does, and then checks them.
The base reads the field names once, when the class is created, so
importing the package generates no code and does not load ``dataclasses``.

Stored that way, an instance keeps its attributes inline, with no
separate dict; filling ``__dict__`` instead measured 3% slower on the
``words`` benchmark, whose 2,000 input words are records.  ``trusted``
fills ``__dict__`` in one keyword update, as the builders it replaces did,
and ``functools.cached_property`` caches into it.
"""

from operator import attrgetter


class Record:
    """Base of the package's immutable value types.

    Two records are equal when they have the same class and equal field
    tuples; the hash is the hash of the field tuple, and the repr is
    ``Name(field=value, ...)``.  Attributes outside the fields (cached or
    derived values) take no part in any of the three.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        fields = tuple(vars(cls).get("__annotations__", ()))
        get = attrgetter(*fields)
        cls._fields = fields
        # attrgetter of one name returns the bare value, not a 1-tuple
        cls._values = staticmethod(get if len(fields) > 1 else lambda x: (get(x),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            get = self._values
            return get(self) == get(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        values = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({values})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def trusted(cls: type[Record], **fields) -> Record:
    """A ``cls`` record whose fields, given by name, hold the class's laws
    by construction: ``__init__`` and its checks are skipped.

    A module function, not a classmethod: CPython 3.11 does not specialize
    loading a classmethod, and on the hot products, decodes and word
    applications a classmethod measured about 1% slower per ``words``
    benchmark operation.
    """
    x = object.__new__(cls)
    x.__dict__.update(fields)
    return x
