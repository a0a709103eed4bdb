"""Base class of the package's immutable value types."""

from __future__ import annotations

import operator


class Record:
    """Frozen value with fields taken from the class-body annotations.

    A subclass annotates its fields in its class body, in order (every
    module here uses `from __future__ import annotations`, so they are never
    evaluated), and writes its own __init__, which sets each field once with
    object.__setattr__. Over those fields the base supports exactly:

    - ==: true for a value of the very same class with equal fields;
      NotImplemented for any other type, a subclass included;
    - hash: the hash of the tuple of fields;
    - repr: Name(field=repr(value), ...), the form dataclasses write;
    - __match_args__: the field names, for positional match patterns;
    - assigning or deleting any attribute raises AttributeError.

    There is no ordering, no default value and no copy or replace helper.
    An attribute set in __init__ without an annotation (mukai_gram of a
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
