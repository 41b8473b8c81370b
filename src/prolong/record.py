"""Frozen records: slotted value classes built without generated code.

A record class lists its storage in `__slots__` and writes a plain
`__init__` that sets each slot with `assign` and then runs its checks.
`Record` supplies the rest from three lists given as class keywords:

- `init`: the constructor's arguments, in order (default: `__slots__`);
  `replace` passes them again, so a changed record is checked again;
- `compare`: the fields of `__eq__` and `__hash__` (default: `init`), which
  hash like the tuple of their values, kept after first use in `Record`'s
  one slot; `eq=False` keeps identity equality and `object.__hash__`;
- `shown`: the fields `repr` lists (default: `compare`).

Assigning or deleting an attribute of a built record raises AttributeError.
"""

from __future__ import annotations

from operator import attrgetter

assign = object.__setattr__   # sets a slot of a record under construction


class Record:
    __slots__ = ("_hash",)

    def __init_subclass__(cls, *, init=None, compare=None, shown=None, eq=True):
        cls._init = tuple(cls.__slots__ if init is None else init)
        compare = cls._init if compare is None else tuple(compare)
        cls._shown = compare if shown is None else tuple(shown)
        if not eq:
            return
        get = attrgetter(*compare)
        key = get if len(compare) > 1 else lambda obj: (get(obj),)

        def __eq__(self, other):
            if other.__class__ is not self.__class__:
                return NotImplemented
            return self is other or key(self) == key(other)

        def __hash__(self):
            try:
                return self._hash
            except AttributeError:    # first use: module-keyed caches hash whole tables
                assign(self, "_hash", hash(key(self)))
                return self._hash

        cls.__eq__ = __eq__
        cls.__hash__ = __hash__

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen record")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._init)


def replace(obj: Record, **changes) -> Record:
    """A copy of obj with the given constructor arguments changed, built by
    its constructor, so every check of the class runs again."""
    cls = type(obj)
    return cls(**{**{name: getattr(obj, name) for name in cls._init}, **changes})
