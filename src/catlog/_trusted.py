"""The frozen record base and the trusted constructor of catlog's
structures and series. Each record class gets its `__init__`, `__eq__`
and `__hash__` as closures over its fields; no source is generated."""

from operator import attrgetter

_setattr = object.__setattr__


def _bind(cls, args, kwargs) -> tuple:
    """The field values of a call that is not plainly positional, or the
    TypeError, in Python's words, of a call of `__init__(self, *fields)`
    with the class's defaults."""
    fields, defaults = cls._fields, cls._defaults
    lo = len(fields) - len(defaults)
    call = f"{cls.__qualname__}.__init__()"
    given = dict(zip(fields, args))
    for name, value in kwargs.items():
        if name in given or name not in fields:
            what = "multiple values for" if name in given else "an unexpected keyword"
            raise TypeError(f"{call} got {what} argument {name!r}")
        given[name] = value
    if len(args) > len(fields):
        takes = f"from {lo + 1} to " * bool(defaults) + f"{len(fields) + 1} positional argument"
        raise TypeError(f"{call} takes {takes}{'s' * bool(fields)} but {len(args) + 1} were given")
    missing = [repr(f) for f in fields[:lo] if f not in given]
    if missing:
        names = (", ".join(missing[:-1]) + "," * (len(missing) > 2)
                 + " and " * (len(missing) > 1) + missing[-1])
        raise TypeError(f"{call} missing {len(missing)} required positional "
                        f"argument{'s' * (len(missing) > 1)}: {names}")
    return tuple(given.get(f, d) for f, d in zip(fields, (None,) * lo + defaults))


def _lone(fields: tuple):
    """The field tuple of a record with one field or none, which an
    attrgetter would give bare or refuse to build."""
    if not fields:
        return lambda self: ()
    one = attrgetter(*fields)
    return lambda self: (one(self),)


class Record:
    """A frozen record. Its fields are its class's own annotations in
    declaration order; a class attribute named after a field is its
    default. `__init__` stores the fields, then runs the class's
    `__post_init__` if it has one. A record equals only a record of its
    own class with equal fields. A field annotated `dict[...]` is a
    table: eq and hash read a dict there as the tuple of its items, so
    its rows count in order. Assignment and deletion raise AttributeError.
    `__init__`, `__eq__` and `__hash__` are closures that each class
    makes over its own fields, so defining a record compiles nothing:
    `__init__` stores each field, `__eq__` compares the instance
    dicts, which hold exactly the fields, and `__hash__` hashes the
    field tuple that an `operator.attrgetter` reads."""

    def __init_subclass__(cls):
        super().__init_subclass__()
        annotations = vars(cls).get("__annotations__", {})
        cls._fields = fields = tuple(annotations)
        cls._defaults = defaults = tuple(vars(cls)[f] for f in fields if f in vars(cls))
        lo = len(fields) - len(defaults)
        if not all(f in vars(cls) for f in fields[lo:]):
            raise TypeError(f"{cls.__qualname__}: a field without a default follows a default")
        post = hasattr(cls, "__post_init__")
        tails = {lo + j: defaults[j:] for j in range(len(defaults) + 1)}  # by argument count

        def __init__(self, *args, **kwargs):
            tail = tails.get(len(args))
            if kwargs or tail is None:
                args, tail = _bind(cls, args, kwargs), ()
            # one store per field, not `self.__dict__.update`: CPython 3.11 and 3.12
            # read fields more slowly once the instance dict is built. The stores
            # return None, so any() runs them all.
            any(map(_setattr.__get__(self), fields, args + tail))
            if post:
                self.__post_init__()

        get = attrgetter(*fields) if len(fields) > 1 else _lone(fields)
        tables = [i for i, f in enumerate(fields) if str(annotations[f]).startswith("dict[")]
        if not tables:
            def __eq__(self, other):
                return (self.__dict__ == other.__dict__ if other.__class__ is self.__class__
                        else NotImplemented)

            def __hash__(self):
                return hash(get(self))
        else:
            (i,) = tables  # one table per record
            rows = attrgetter(fields[i])

            def key(self):
                values = [*get(self)]
                if type(values[i]) is dict:
                    values[i] = tuple(values[i].items())
                return tuple(values)

            def __eq__(self, other):
                if other.__class__ is not self.__class__:
                    return NotImplemented
                mine, theirs = rows(self), rows(other)
                if type(mine) is dict and type(theirs) is dict:  # equal rows, in the same order
                    return self.__dict__ == other.__dict__ and [*mine] == [*theirs]
                return key(self) == key(other)

            def __hash__(self):
                return hash(key(self))

        for method in (__init__, __eq__, __hash__):
            method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
            setattr(cls, method.__name__, method)

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
