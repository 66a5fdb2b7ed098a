"""The one base of the package's value classes."""


class Value:
    """A frozen record of the fields its class names in ``_fields``.

    ``Value.__init__`` sets each field once, into ``__dict__`` (where a
    `functools.cached_property` keeps its value too), by position, then by
    keyword, then from ``_defaults``; a class that checks its fields writes
    its own, and no method is generated at import. Equality and the hash
    are field-wise, an instance of another class is never equal, the repr is
    ``Name(field=value, ...)``, and no attribute can be assigned or deleted.
    """

    _fields: tuple = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if len(args) == len(fields) and not kwargs:
            self.__dict__.update(zip(fields, args))
            return
        name, given = type(self).__qualname__, dict(zip(fields, args))
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} fields, got {len(args)}")
        for field in kwargs:
            if field in given or field not in fields:
                raise TypeError(f"{name}() got a repeated or unknown field {field!r}")
        values = {**self._defaults, **given, **kwargs}
        if missing := [field for field in fields if field not in values]:
            raise TypeError(f"{name}() is missing the fields {missing}")
        self.__dict__.update((field, values[field]) for field in fields)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def _asdict(self) -> dict:
        return dict(zip(self._fields, self._values()))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
