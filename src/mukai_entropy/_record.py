"""Base class of the package's immutable value types."""

from __future__ import annotations

import operator


class Record:
    """Frozen value with fields taken from the class-body annotations.

    A subclass annotates its fields in its class body, in order (every
    module here uses `from __future__ import annotations`, so they are never
    evaluated). The base __init__ stores them, by position or by name, and
    raises TypeError on a missing, extra or doubly given one. A subclass that
    checks its input writes its own __init__, run only on input from outside
    the package, which stores the checked fields with one
    self.__dict__.update(...); _of(**fields), which runs no __init__, builds
    every value the package derives from parts it has proved. Over the fields
    the base supports exactly:

    - ==: true for a value of the very same class with equal fields;
      NotImplemented for any other type, a subclass included;
    - hash: the hash of the tuple of fields;
    - repr: Name(field=repr(value), ...), the form dataclasses write;
    - __match_args__: the field names, for positional match patterns;
    - assigning or deleting any attribute raises AttributeError.

    There is no ordering, no default value and no copy or replace helper.
    An attribute stored in __init__ without an annotation (mukai_gram of a
    K3LatticeModel) is left out of ==, hash and repr. A subclass without
    annotations of its own keeps its parent's fields; a class that ends up
    with none raises TypeError when it is defined.
    """

    __match_args__ = ()

    def __init_subclass__(cls):
        fields = tuple(cls.__annotations__) or cls.__match_args__
        if not fields:
            raise TypeError(f"{cls.__qualname__} declares no fields")
        cls.__match_args__ = fields
        get = operator.attrgetter(*fields)
        cls._values = staticmethod(
            get if len(fields) > 1 else lambda value: (get(value),))

    def __init__(self, *values, **named):
        fields = self.__match_args__
        if named or len(values) != len(fields):
            # the fields past those given by position, each named once
            rest = fields[len(values):]
            if len(values) > len(fields) or set(named) != set(rest):
                raise TypeError(
                    f"{self.__class__.__qualname__} takes the fields "
                    f"{', '.join(fields)}; got {len(values)} by position "
                    f"and {', '.join(named) or 'none'} by name")
            values += tuple(named[name] for name in rest)
        # from a dict: filled pair by pair, a __dict__ keeps shared keys, and
        # on CPython 3.11 and 3.12 its attributes then read about 3x slower
        self.__dict__.update(dict(zip(fields, values)))

    @classmethod
    def _of(cls, **fields):
        """A value holding fields that are already proved; no __init__ runs."""
        value = object.__new__(cls)
        value.__dict__.update(fields)
        return value

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(
            f"{name}={value!r}"
            for name, value in zip(self.__match_args__, self._values(self)))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
