"""Frozen records: the base of the paper's small value objects.

A record class lists its fields, in constructor order, as __slots__, and
writes a straight-line __init__ that stores each field through the slot's
own setter, from slot_setters: it writes the slot past Record.__setattr__,
as object.__setattr__ would, but skips the lookup of the field by name,
which keeps a record as cheap to build as the frozen dataclass it replaces.
The class also gives _key, the tuple of its leading fields that identify a
record: a property, or, where records are compared often, a "_key" slot,
last in __slots__, that __init__ fills.

Record supplies the rest.  Assigning or deleting a field raises
AttributeError.  Equality holds between records of one class with equal
keys, and the hash is the key's.  repr prints the key fields as
ClassName(name=value, ...).  pickle, copy and deepcopy rebuild a record by
calling its class with every field in order.  A field after the key fields
is carried along, but neither compared, hashed nor printed.
"""

__all__ = ["Record", "slot_setters"]


def slot_setters(cls) -> list:
    """The setter of each of the slots that cls itself declares, in
    __slots__ order."""
    return [cls.__dict__[name].__set__ for name in cls.__slots__]


class Record:
    __slots__ = ()

    _key: tuple

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        shown = ", ".join(
            f"{name}={value!r}" for name, value in zip(self.__slots__, self._key)
        )
        return f"{self.__class__.__qualname__}({shown})"

    def __reduce__(self):
        fields = (getattr(self, name) for name in self.__slots__ if name != "_key")
        return self.__class__, tuple(fields)
