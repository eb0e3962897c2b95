"""The base classes of the package's records and of its input errors.

Records are plain classes because ``dataclasses`` imports ``inspect`` and
builds every class's methods with ``exec``, a large share of the time a CLI
process spends importing the package.  A caller's numbers become floats by
one rule, ``float()``'s: where it refuses a value, :func:`number`,
:func:`floats` and :func:`array` raise the calling module's input error.
They only convert; each caller keeps its own rule for NaN and inf.
"""

_set = object.__setattr__


class InputError(ValueError):
    """Malformed input from the caller: every module's input error derives from it.

    The command line maps it, and it alone, to the invalid-input exit code.
    """


# What ``float()`` raises for a value that is not a number: None or a list,
# a string such as "x", or an int past the float range such as 10**400.
NOT_A_NUMBER = (TypeError, ValueError, OverflowError)
TEXT = (str, bytes)   # no vector: it iterates as characters, which float() may take


def number(v, error: type, message: str) -> float:
    """``float(v)``, or ``error(message)`` where ``float()`` refuses ``v``."""
    try:
        return float(v)
    except NOT_A_NUMBER:
        raise error(message) from None


def floats(values, error: type, message: str, n=None) -> list:
    """The list of ``float(v)`` over ``values`` (``n`` of them, if given), or ``error(message)``."""
    try:
        out = list(map(float, values))
    except NOT_A_NUMBER:
        raise error(message) from None
    if isinstance(values, TEXT) or (n is not None and len(out) != n):
        raise error(message)
    return out


def array(a, error: type, message: str):
    """``a`` as a numpy float array by the rule of :func:`floats` (numpy reads None as NaN)."""
    import numpy as np
    try:
        a = np.asarray(a)   # a ragged nesting raises ValueError
        if a.dtype.kind not in "biuf":   # None, a big int or a string: through float()
            a = np.array(list(map(float, a.ravel().tolist()))).reshape(a.shape)
        return a.astype(float, copy=False)
    except NOT_A_NUMBER:
        raise error(message) from None


def positive_int(n, error: type, name: str) -> int:
    """``n`` if it is an int of at least 1, or ``error`` naming ``name``: a bool, float or NaN is no count."""
    if type(n) is not int or n < 1:
        raise error(f"{name} must be a positive integer")
    return n


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
