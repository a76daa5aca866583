"""The value rule, stated once.

A `Frozen` object is immutable: its constructor sets its slots through
`object.__setattr__` or the slot descriptors, and nothing else can.  Pickle,
`copy` and `deepcopy` rebuild it from its slots without the constructor, so
it can be sent to worker processes.  A `Value` also compares and hashes by
its `_state()`.
"""


def _rebuild(cls, state):
    obj = object.__new__(cls)
    for name, value in state:
        object.__setattr__(obj, name, value)
    return obj


class Frozen:
    """Immutable slotted object, equal only to itself."""

    __slots__ = ()

    def __setattr__(self, *args):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        slots = (s for c in type(self).__mro__ for s in c.__dict__.get("__slots__", ()))
        return _rebuild, (type(self), tuple((s, getattr(self, s)) for s in slots))


class Value(Frozen):
    """Frozen object equal to one of its own type with an equal `_state()`,
    and hashed by it."""

    __slots__ = ()

    def __eq__(self, other):
        return type(other) is type(self) and self._state() == other._state()

    def __hash__(self):
        return hash(self._state())
