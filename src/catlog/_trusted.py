"""The frozen record base and the trusted constructor of catlog's structures and series."""

# the methods each record class compiles once, reading its fields directly
_METHODS = """\
def __init__(self{params}):
    {body}
def __eq__(self, other):
    return {mine} == {theirs} if other.__class__ is self.__class__ else NotImplemented
def __hash__(self):
    return hash({mine})
"""


class Record:
    """A frozen record. Its fields are its class's own annotations in
    declaration order; a class attribute named after a field is its
    default. `__init__` stores the fields, then runs the class's
    `__post_init__` if it has one. A record equals only a record of its
    own class with equal fields. A field annotated `dict[...]` is a
    table: eq and hash read a dict there as the tuple of its items, so
    its rows count in order. Assignment and deletion raise AttributeError."""

    def __init_subclass__(cls):
        super().__init_subclass__()
        annotations = vars(cls).get("__annotations__", {})
        cls._fields = fields = tuple(annotations)
        params = "".join(f", {f}=_cls.{f}" if f in vars(cls) else f", {f}" for f in fields)
        body = [f"_setattr(self, {f!r}, {f})" for f in fields]
        body.append("self.__post_init__()" if hasattr(cls, "__post_init__") else "pass")
        read = [f"(tuple(self.{f}.items()) if type(self.{f}) is dict else self.{f})"
                if str(annotations[f]).startswith("dict[") else f"self.{f}" for f in fields]
        mine = f"({''.join(f'{r}, ' for r in read)})"
        space = {"_cls": cls, "_setattr": object.__setattr__}
        exec(_METHODS.format(params=params, body="\n    ".join(body), mine=mine,
                             theirs=mine.replace("self.", "other.")), space)
        for name in ("__init__", "__eq__", "__hash__"):
            space[name].__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, space[name])

    def __repr__(self):
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def trusted(cls, **fields):
    """An instance of the frozen record `cls`, a structure or a `Series`,
    holding `fields` as given, built without running its `__post_init__`.

    Precondition: `fields` names every field of `cls` in declaration
    order, and each value is exactly what the public constructor would
    store for the same valid value: tuples, not lists; a slot table
    or multiplicity map a dict by increasing vertex, each row a tuple;
    the cycle starting at its minimal label; the parts of a field or
    forest as a frozenset; a series' coefficients as Fractions.
    Nothing is checked here: the enumerators check their arguments on
    entry, they and the bijections build only valid structures, and the
    verify suites run the constructors' checks on those in place;
    `Series` arithmetic builds its results from Fractions it computed.
    """
    obj = object.__new__(cls)
    obj.__dict__.update(fields)  # the instance dict that __init__ would fill
    return obj
