"""The base of the read-only records."""


class ReadOnly:
    """``__init__`` sets the fields once, through ``_set``; setting or deleting
    one afterwards raises ``AttributeError``."""

    __slots__ = ()

    def _set(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def _same_fields(self, other):  # field-wise ==, for the records that callers compare
        if type(other) is not type(self):
            return NotImplemented
        return all(getattr(self, n) == getattr(other, n) for n in self.__slots__)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is read-only: cannot set {name!r}")

    __delattr__ = __setattr__
