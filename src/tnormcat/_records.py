"""Immutable record types, built without generated code.

``Record`` gives its subclasses what ``@dataclass(frozen=True)`` gave the
package's result types: a keyword-or-positional constructor, ``==``,
``hash``, a ``Qualname(f=...)`` repr and no attribute assignment.  The
dataclass decorator writes and ``exec``s that code for every class at
import time, which cost more of a CLI run than its mathematics; here the
methods are written once, on the base class, and read the fields of the
instance's class.  ``tests/test_records.py`` checks every record type
against a dataclass twin.
"""

from operator import attrgetter


class Record:
    """Base class of an immutable record.

    The names annotated in a subclass's body, in order, are its fields, and
    a class attribute of the same name is that field's default.  Instances
    keep their fields in ``__dict__`` (so ``functools.cached_property``
    works on them), ``__post_init__`` may set attributes through
    ``object.__setattr__``, and an attribute that is not a field takes no
    part in ``==``, ``hash`` or ``repr``.
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__annotations__  # the subclass's own, in order (Python >= 3.10)
        names = cls._fields + tuple(name for name in own if name not in cls._fields)
        cls._fields = names
        cls._defaults = {name: getattr(cls, name) for name in names if hasattr(cls, name)}
        # the tuple of the field values; attrgetter gives one for two names or more
        cls._values = staticmethod(attrgetter(*names) if len(names) > 1 else
                                   lambda record: tuple(getattr(record, n) for n in names))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        values = self.__dict__
        if len(args) != len(fields):
            if len(args) > len(fields):
                raise TypeError(f"{type(self).__qualname__}() takes {len(fields)} "
                                f"positional arguments but {len(args)} were given")
            values.update(self._defaults)
        values.update(zip(fields, args))
        if kwargs:
            for key in kwargs:
                if key not in fields or key in fields[:len(args)]:
                    raise TypeError(f"{type(self).__qualname__}() got an unexpected "
                                    f"or repeated argument {key!r}")
            values.update(kwargs)
        if len(values) != len(fields):
            missing = [name for name in fields if name not in values]
            raise TypeError(f"{type(self).__qualname__}() missing arguments: {missing}")
        self.__post_init__()

    def __post_init__(self):
        pass

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        key = self._values
        return key(self) == key(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def replace(record: Record, /, **changes) -> Record:
    """A new record like ``record`` with ``changes``; ``__post_init__`` runs again."""
    values = {name: getattr(record, name) for name in record._fields}
    values.update(changes)
    return type(record)(**values)
