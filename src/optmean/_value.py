"""The one base of the package's value classes."""


class Value:
    """A frozen record of the fields its class names in ``_fields``.

    A subclass's ``__init__`` sets each field once, into ``__dict__`` (where a
    `functools.cached_property` keeps its value too). Equality and the hash
    are field-wise, an instance of another class is never equal, the repr is
    ``Name(field=value, ...)``, and no attribute can be assigned or deleted.
    """

    _fields: tuple = ()

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
