"""Immutable value classes from plain class statements.

A subclass of `Record` names its fields by annotating them in its body,
after those of its bases. From those names, read once when the class is
made, it gets a field-wise ``__init__`` (positional or keyword arguments;
a class attribute of the same name is the field's default), ``==`` between
instances of the same class with equal fields, a hash of the field values,
the repr ``Name(field=value, ...)`` and ``replace(**changes)``. A field
cannot be assigned or deleted after construction, so ``replace``, copies
and pickles build a new value from the field values with ``_make``: the
class itself, unless the class names another constructor. No code is
generated, so a class costs no more to make than its class statement.

The inherited ``__init__`` stores the fields in the instance ``__dict__``.
A plain `Record` subclass that lists its fields in ``__slots__`` instead
writes its own ``__init__``, which sets them through the slots' member
descriptors.

`Interned` is the hash-consed kind of `Record` (Filliâtre & Conchon, 2006):
one live object per distinct field values, held in a weak table per class,
so ``==`` and hashing are object identity. Its subclasses list their fields
in ``__slots__`` and keep ``object.__init__``: they check their arguments
in ``__new__`` and end it with ``cls._raw(*fields)``, the unvalidated
constructor that every such class gets.
"""

from __future__ import annotations

import weakref
from operator import attrgetter


def _getter(names: tuple[str, ...]):
    """A function from an instance to the tuple of its values of names."""
    if len(names) > 1:
        return attrgetter(*names)
    if names:
        get = attrgetter(*names)
        return lambda obj: (get(obj),)
    return lambda obj: ()


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = tuple(name for name in cls.__annotations__
                    if name not in cls._fields)
        cls._fields = cls._fields + own
        # a slot's member descriptor is a class attribute, not a default
        slots = vars(cls).get("__slots__", ())
        cls._defaults = {**cls._defaults, **{
            name: vars(cls)[name] for name in own
            if name in vars(cls) and name not in slots}}
        cls._values = staticmethod(_getter(cls._fields))
        cls._make = vars(cls).get("_make", cls)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            vars(self).update(self._bind(args, kwargs))
        else:
            vars(self).update(zip(fields, args))

    @classmethod
    def _bind(cls, args, kwargs) -> dict:
        """Every field's value in a call with keywords or defaults;
        TypeError, as for a function, when the call does not fit."""
        names, defaults = cls._fields, cls._defaults
        if len(args) > len(names):
            raise TypeError(f"{cls.__qualname__}() takes {len(names)} "
                            f"positional arguments but {len(args)} were given")
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names:
                raise TypeError(f"{cls.__qualname__}() got an unexpected "
                                f"keyword argument {name!r}")
            if name in values:
                raise TypeError(f"{cls.__qualname__}() got multiple values "
                                f"for argument {name!r}")
            values[name] = value
        missing = [name for name in names
                   if name not in values and name not in defaults]
        if missing:
            raise TypeError(f"{cls.__qualname__}() missing required "
                            f"arguments: {', '.join(map(repr, missing))}")
        return {name: values[name] if name in values else defaults[name]
                for name in names}

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def replace(self, **changes):
        """A copy with the named fields changed, built through _make (which
        refuses a name that is not a field)."""
        values = dict(zip(self._fields, self._values(self)))
        return self._make(**{**values, **changes})

    def __reduce__(self):
        # not copy's default, which sets the state past __setattr__
        return self._make, self._values(self)


class Interned(Record):
    """A Record with one live object per distinct field values.

    `_raw(*fields)` returns the live object with those fields, making it
    when there is none; `_live` maps each fields tuple to its object and
    drops it when nobody else holds it. Copies, unpickled values and
    `replace` come back through the constructor, so to the live object.
    """

    __slots__ = ("__weakref__",)

    # object's own: __new__ sets the fields, and equal values are one object
    __init__ = object.__init__
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        live = cls._live = weakref.WeakValueDictionary()
        # a hit reads the table's dict of weak references straight, past
        # WeakValueDictionary.get's Python frame; a dead reference found
        # there is replaced like a missing one
        get, new = live.data.get, object.__new__
        # the slots' member descriptors set fields past the frozen __setattr__
        setters = tuple(getattr(cls, name).__set__ for name in cls._fields)

        # a closure over the bound get: a classmethod's lookups cost more
        def _raw(*fields):
            ref = get(fields)
            if ref is not None:
                obj = ref()
                if obj is not None:
                    return obj
            obj = live[fields] = new(cls)
            for set_field, value in zip(setters, fields):
                set_field(obj, value)
            return obj

        cls._raw = staticmethod(_raw)
