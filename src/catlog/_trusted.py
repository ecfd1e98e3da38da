"""The trusted constructor shared by the seven structure dataclasses."""


def trusted(cls, **fields):
    """An instance of the frozen structure dataclass `cls` holding `fields`
    as given, built without running its `__post_init__`.

    Precondition: `fields` names every field of `cls` in declaration
    order, the derived `slot_map` and `f_map` last, and each value is
    exactly what the public constructor would store for the same valid
    structure: tuples, not lists; slot tables and multiplicity vectors
    sorted by vertex, the dict and the pairs holding the same rows; the
    cycle starting at its minimal label; the parts of a field or forest
    as a frozenset.
    Nothing is checked here: the enumerators check their arguments on
    entry, they and the bijections build only valid structures, and the
    verify suites and the tests compare those with public rebuilds.
    """
    obj = object.__new__(cls)
    obj.__dict__.update(fields)  # the instance dict that __init__ would fill
    return obj
