"""Frozen record classes, without generated code.

``record`` turns a class whose body annotates its fields into a frozen
value type, as ``@dataclass(frozen=True)`` does, but installs shared
closures over the field names instead of compiling methods with ``exec``
(and importing ``dataclasses``, which loads ``inspect`` and ``ast``).
That decoration cost is paid by every process that loads the engine.

Installed, unless the class body defines its own:

- ``__init__``: the fields in order, positionally or by keyword, with the
  class attribute of a field as its default; it then calls
  ``self.__post_init__()`` when the class has one, looked up at call
  time, so a patched ``__post_init__`` is what runs;
- ``__repr__``: ``Name(field=value, ...)``, the dataclass text;
- ``__eq__``: equal for the same class and equal field tuples;
- ``__hash__``: the hash of the field tuple, as the dataclass's;
- ``__setattr__``/``__delattr__``: raise ``AttributeError``.

Fields are set one by one through ``object.__setattr__``, as the
dataclass does, and not by one ``__dict__.update``: on CPython 3.11 and
3.12 an instance whose ``__dict__`` was filled from ``zip`` reads its
attributes several times slower.  A class that lists its fields in
``__slots__`` (and then has no defaults) works the same way.
"""

from operator import attrgetter

_set = object.__setattr__


def _frozen(self, name, value=None):
    raise AttributeError(f"cannot assign to field {name!r}")


def record(cls):
    """``cls`` with the record methods it does not define itself."""
    names = tuple(cls.__annotations__)
    n = len(names)
    # a slotted class holds its fields' slot descriptors, not defaults
    slotted = "__slots__" in cls.__dict__
    defaults = {} if slotted else {f: cls.__dict__[f] for f in names if f in cls.__dict__}
    required = n - len(defaults)
    if any(f in defaults for f in names[:required]):
        raise TypeError(f"{cls.__qualname__}: a field without a default follows a default")
    tail = tuple(defaults.values())
    post_init = hasattr(cls, "__post_init__")
    if n == 1:
        one = attrgetter(names[0])

        def key(obj):
            return (one(obj),)
    else:
        key = attrgetter(*names)  # the field tuple

    def bind(args, kwargs):
        given = len(args)
        if not kwargs and required <= given < n:
            return args + tail[given - required:]
        if given > n:
            raise TypeError(f"{cls.__qualname__}() takes {n} arguments but {given} were given")
        values = list(args)
        for name in names[given:]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in defaults:
                values.append(defaults[name])
            else:
                raise TypeError(f"{cls.__qualname__}() missing required argument {name!r}")
        if kwargs:
            name = next(iter(kwargs))
            problem = "multiple values for" if name in names else "an unexpected keyword"
            raise TypeError(f"{cls.__qualname__}() got {problem} argument {name!r}")
        return values

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != n:
            args = bind(args, kwargs)
        for name, value in zip(names, args):
            _set(self, name, value)
        if post_init:
            self.__post_init__()

    def __repr__(self):
        values = ", ".join(f"{name}={value!r}" for name, value in zip(names, key(self)))
        return f"{type(self).__qualname__}({values})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    methods = {
        "__init__": __init__, "__repr__": __repr__, "__eq__": __eq__,
        "__hash__": __hash__, "__setattr__": _frozen, "__delattr__": _frozen,
    }
    for name, method in methods.items():
        if name not in cls.__dict__:
            setattr(cls, name, method)
    return cls
