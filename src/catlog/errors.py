"""Shared entry checks, error type and size guard of the enumerators."""

DEFAULT_MAX_ENUMERATION = 10**7


class ResourceCapError(RuntimeError):
    """An enumeration would exceed the configured size cap."""


def check_labels(k, labels, what: str) -> tuple[int, ...]:
    """The sorted labels, once k is an int >= 2 and they are distinct positive ints."""
    try:
        labels = tuple(labels)
        repeats = len(set(labels)) != len(labels)
    except TypeError:  # not an iterable, or a label that cannot be hashed
        raise ValueError("labels must be distinct positive integers") from None
    if repeats:
        raise ValueError("label set contains duplicates")
    if type(k) is not int or k < 2 or not labels:
        raise ValueError(f"{what} needs k >= 2 and a nonempty label set")
    if any(type(v) is not int or v < 1 for v in labels):
        raise ValueError("labels must be distinct positive integers")
    return tuple(sorted(labels))


def check_size(message: str, k, *sizes) -> None:
    """Refuse a k or a size that is not an int, k < 2 or a size < 1."""
    if type(k) is not int or k < 2 or any(type(s) is not int or s < 1 for s in sizes):
        raise ValueError(message)


def check_cap(predicted: int, max_count, what: str) -> None:
    """Refuse up front when `predicted` structures exceed `max_count`.

    `max_count=None` disables the guard.
    """
    if max_count is not None and predicted > max_count:
        raise ResourceCapError(
            f"{what}: {predicted} structures predicted, cap is {max_count} "
            "(raise or disable the cap to proceed)"
        )
