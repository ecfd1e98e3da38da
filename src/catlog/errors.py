"""Shared entry checks, error type and size guard of the public API."""

import math

DEFAULT_MAX_ENUMERATION = 10**7


class ResourceCapError(RuntimeError):
    """An enumeration would exceed the configured size cap."""


def check_ints(message: str, *bounds) -> None:
    """The one type rule: refuse unless every (value, least) pair holds
    an int value, not a bool, that is at least `least`."""
    for value, least in bounds:
        if type(value) is not int or value < least:
            raise ValueError(message)


def check_labels(k, labels, what: str) -> tuple[int, ...]:
    """The sorted labels, once k is an int >= 2 and they are distinct positive ints."""
    try:
        labels = tuple(labels)
        repeats = len(set(labels)) != len(labels)
    except TypeError:  # not an iterable, or a label that cannot be hashed
        raise ValueError("labels must be distinct positive integers") from None
    if repeats:
        raise ValueError("label set contains duplicates")
    check_ints(f"{what} needs k >= 2 and a nonempty label set", (k, 2), (len(labels), 1))
    check_ints("labels must be distinct positive integers", *((v, 1) for v in labels))
    return tuple(sorted(labels))


def check_pairs(items, message: str) -> list:
    """The (key, value) pairs of a dict, or of an iterable of pairs, as a
    list; anything else is refused with `message`."""
    if isinstance(items, dict):
        return list(items.items())
    try:
        return [(key, value) for key, value in items]
    except (TypeError, ValueError):  # not iterable, or an item that is no pair
        raise ValueError(message) from None


def check_parts(parts, stored, cls, own, minimal, members: str, messages) -> frozenset:
    """The parts of a field or forest, checked in one loop: as a frozenset, or
    with `stored` as stored, a set of parts of type `cls` each passing `own`.
    `messages` name, in the order raised in any set order: a part no `cls`,
    no part, mixed k, a part not `minimal`, two parts sharing `members` entries."""
    if not stored:
        try:
            parts, given = frozenset(parts), len(parts)
        except TypeError:  # not a collection, or a part that cannot be hashed
            raise ValueError(messages[0]) from None
        if len(parts) != given:
            raise ValueError("parts lists one part twice")
    elif not isinstance(parts, (set, frozenset)):
        raise ValueError(messages[0])
    ks, low, union = set(), True, []
    for p in parts:
        if not (type(p) is cls and own(p) if stored else isinstance(p, cls)):
            raise ValueError(messages[0])
        ks.add(p.k)
        low = low and minimal(p)
        union += getattr(p, members)
    broken = (not parts, len(ks) != 1, not low, len(union) != len(set(union)))
    if any(broken):
        raise ValueError(messages[1 + broken.index(True)])
    return parts


def check_stored(table, width: int, least=None) -> dict:
    """`table`, once it is stored as the constructors store it: a dict by
    increasing positive int key, each row a tuple of `width` entries, ints
    >= `least` unless it is None. A loop beats one C pass per property on
    tables this small."""
    if type(table) is not dict:
        raise ValueError("a table is not stored as its constructor stores it")
    last = 0
    for v, row in table.items():
        if (type(v) is not int or v <= last or not isinstance(row, tuple) or len(row) != width
                or least is not None and (set(map(type, row)) != {int} or min(row) < least)):
            raise ValueError("a table is not stored as its constructor stores it")
        last = v
    return table


def check_max_count(max_count) -> None:
    """Refuse a cap that is neither None nor an int."""
    if max_count is not None:
        check_ints("max_count must be None or an integer", (max_count, -math.inf))


def check_cap(predicted: int, max_count, what: str) -> None:
    """Refuse up front when `predicted` structures exceed `max_count`.

    `max_count=None` disables the guard.
    """
    check_max_count(max_count)
    if max_count is not None and predicted > max_count:
        raise ResourceCapError(
            f"{what}: {predicted} structures predicted, cap is {max_count} "
            "(raise or disable the cap to proceed)"
        )
