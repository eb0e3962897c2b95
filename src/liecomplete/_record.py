"""The base classes of the package's records and of its input errors.

Records are plain classes because ``dataclasses`` imports ``inspect`` and
builds every class's methods with ``exec``, a large share of the time a CLI
process spends importing the package.
"""

_set = object.__setattr__


class InputError(ValueError):
    """Malformed input from the caller: every module's input error derives from it.

    The command line maps it, and it alone, to the invalid-input exit code.
    """


def _by_value(v):
    """An array's shape and flat values (an array has no truth value and no hash); else ``v``."""
    if type(v).__hash__ is None and hasattr(v, "ravel"):
        return v.shape, tuple(v.ravel().tolist())
    return v


class Record:
    """Fixed fields, set once, compared and hashed by value.

    A subclass names its fields in ``__slots__``, in constructor order, and
    the defaults of the fields that have one in ``_defaults``.  A subclass
    that validates its arguments defines ``__init__`` and passes the checked
    values on to this one.  Two records are equal when they are of one class
    and their fields are equal, and hash by their fields; an array field
    (an unhashable value with ``ravel``, as a numpy array is) counts by its
    shape and flat values.  Setting or deleting any attribute raises
    ``AttributeError``; a subclass with a ``functools.cached_property`` adds
    ``"__dict__"`` to its ``__slots__``.
    """

    __slots__ = ()
    _defaults: dict = {}

    def __init_subclass__(cls):
        cls._fields = tuple(f for f in cls.__slots__ if f != "__dict__")

    def __init__(self, *args, **kwargs):
        fields = self._fields
        items = zip(fields, args)   # a full positional call needs no merging
        if kwargs or len(args) != len(fields):
            values = {**self._defaults, **dict(items), **kwargs}
            if (len(args) > len(fields) or values.keys() != set(fields)
                    or not kwargs.keys().isdisjoint(fields[:len(args)])):
                raise TypeError(f"{type(self).__name__} takes the fields {fields}")
            items = values.items()
        for name, value in items:
            _set(self, name, value)

    def _values(self) -> tuple:
        return tuple(_by_value(getattr(self, name)) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
