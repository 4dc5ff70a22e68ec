"""Frozen record classes, built without compiling any code.

``@record`` gives an annotated class what ``@dataclass(frozen=True)`` gives it:
an ``__init__`` that takes the fields by position or keyword, fills the class
attributes in as defaults and then calls ``__post_init__``; the same ``repr``;
``__eq__`` and ``__hash__`` over the tuple of fields (identity with
``eq=False``); ``__match_args__``; and no assignment or deletion.  The methods
are the shared functions below, so a class costs no ``exec`` at import.
``vars(obj)`` holds the fields in order.
"""


class FrozenRecordError(AttributeError):
    """Raised when a record's attribute is assigned or deleted."""


def _init(self, *args, **kwargs):
    cls = type(self)
    names, defaults = cls.__match_args__, vars(cls)
    if len(args) > len(names):
        raise TypeError(f"{cls.__qualname__}() takes {len(names)} arguments but {len(args)} were given")
    values = dict(zip(names, args))
    for name in kwargs:
        if name not in names:
            raise TypeError(f"{cls.__qualname__}() got an unexpected keyword argument {name!r}")
        if name in values:
            raise TypeError(f"{cls.__qualname__}() got multiple values for argument {name!r}")
    values.update(kwargs)
    for name in names:
        if name not in values and name not in defaults:
            raise TypeError(f"{cls.__qualname__}() missing required argument {name!r}")
        object.__setattr__(self, name, values[name] if name in values else defaults[name])
    if hasattr(cls, "__post_init__"):
        self.__post_init__()


def _repr(self):
    fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
    return f"{type(self).__qualname__}({fields})"


def _setattr(self, name, value):
    raise FrozenRecordError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise FrozenRecordError(f"cannot delete field {name!r}")


def _fields(self):
    return tuple(getattr(self, name) for name in self.__match_args__)


def _eq(self, other):
    return _fields(self) == _fields(other) if other.__class__ is self.__class__ else NotImplemented


def _hash(self):
    return hash(_fields(self))


def record(cls=None, *, eq=True):
    """Make the annotated class ``cls`` a frozen record, as the module docstring says."""
    if cls is None:
        return lambda cls: record(cls, eq=eq)
    cls.__match_args__ = tuple(cls.__annotations__)
    cls.__init__, cls.__repr__ = _init, _repr
    cls.__setattr__, cls.__delattr__ = _setattr, _delattr
    if eq:
        cls.__eq__, cls.__hash__ = _eq, _hash
    return cls
