"""The frozen value records' base class.  A subclass names its fields in
``_fields`` and stores each one in its ``__init__`` straight into the
instance dict, ``self.__dict__[name] = value``: that goes round the refusing
``__setattr__`` below at the cost of one dict store, where
``object.__setattr__`` pays a call, and every record uses it, so there is
one idiom.  Equality (same class, equal fields), hashing,
``Name(field=value, ...)`` repr and the refusal to assign or delete are
defined here once."""

from operator import attrgetter


class Record:
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._key = attrgetter(*cls._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
