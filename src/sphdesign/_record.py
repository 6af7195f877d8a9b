"""Frozen value records, without dataclasses.

A Record subclass lists its fields in __slots__, in constructor order,
and sets them in its own __init__ through _set.  A slot whose name starts
with "_" is a private cache, not a field.  Records compare equal when
they are of the same class with equal fields, hash by their fields,
refuse assignment and deletion with AttributeError and survive copy and
pickle, as frozen dataclasses do; importing them loads neither
dataclasses nor the inspect module it imports.
"""


class Record:
    __slots__ = ()

    _set = object.__setattr__

    def _items(self) -> tuple:
        return tuple((name, getattr(self, name)) for name in self.__slots__
                     if name[0] != "_")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._items() == other._items()

    def __hash__(self):
        return hash(self._items())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in self._items())
        return f"{type(self).__name__}({fields})"

    def __setstate__(self, state):
        # copy and pickle restore the slots here, past __setattr__
        for name, value in state[1].items():
            self._set(name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
