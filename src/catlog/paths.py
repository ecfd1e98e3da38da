"""Labeled monotone lattice paths below y=(k-1)x and their combinatorics.

A path of size n runs from (0,0) to (n, (k-1)n) with unit steps R and U
and never rises above the diagonal y=(k-1)x. The heights (k-1)*j for
0 <= j < n carry distinct integer labels; these are exactly the heights
at which the path can touch the diagonal. Three derived structures live
here:

* minimal fields, obtained by cutting a path at diagonal touches whose
  label undercuts the label at the current origin;
* ornaments, the classes of paths under rotation along the diagonal,
  stored by their unique label-minimal representative;
* fields with a fixed number of parts, which realize the coefficients
  of powers of the log of the path generating function.
"""

from __future__ import annotations

import itertools
import operator

from . import catalan
from ._trusted import Record, trusted
from .arith import factorial
from .errors import (DEFAULT_MAX_ENUMERATION, check_cap, check_ints, check_labels,
                     check_parts)


def is_good(k: int, steps: str) -> bool:
    """True for an int k >= 2 and a nonempty str over {R, U} with n rights
    and (k-1)n ups whose every prefix keeps u <= (k-1)*r."""
    if type(steps) is not str or type(k) is not int or k < 2 or not steps or steps.strip("RU"):
        return False
    height = 0  # (k-1)*r - u, how far the prefix stays below the diagonal
    for ch in steps:
        if ch == "R":
            height += k - 1
        else:
            height -= 1
            if height < 0:
                return False
    return height == 0  # a nonempty word that never dips starts with R


def _check_path(k, steps, labels) -> tuple[int, ...]:
    """The checks of a labeled good path, in order; returns the labels as a
    tuple (a stored tuple as itself)."""
    try:
        labels = tuple(labels)
    except TypeError:
        raise ValueError("labels must be distinct positive integers") from None
    check_ints("paths need an integer k >= 2", (k, 2))
    n = len(labels)
    if n < 1:
        raise ValueError("a path carries at least one label")
    if set(map(type, labels)) != {int} or len(set(labels)) != n or min(labels) < 1:
        raise ValueError("labels must be distinct positive integers")
    # a good word with r right steps has length k*r
    if not is_good(k, steps) or len(steps) != k * n:
        raise ValueError("steps must form a good word with one right step per label")
    return labels


def _check_field(parts, stored=False) -> frozenset:
    """The checks of a minimal field over its GoodPath parts, in one loop
    (check_parts); with `stored`, each part's `_check_path` runs in that
    loop too, and must give its labels back as stored."""
    return check_parts(parts, stored, GoodPath,
                       lambda p: _check_path(p.k, p.steps, p.labels) == p.labels,
                       is_label_minimal, "labels", (
                           "the parts of a field must be a collection of GoodPath",
                           "a field holds at least one part",
                           "all parts of a field must share the same k",
                           "every part of a field must be label-minimal",
                           "label sets of field parts must be disjoint"))


class GoodPath(Record):
    k: int
    steps: str
    labels: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", _check_path(self.k, self.steps, self.labels))

    @property
    def n(self) -> int:
        return len(self.labels)


class MinimalField(Record):
    """A set of label-minimal paths whose label sets are pairwise disjoint."""

    parts: frozenset[GoodPath]

    def __post_init__(self):
        object.__setattr__(self, "parts", _check_field(self.parts))

    @property
    def k(self) -> int:
        return next(iter(self.parts)).k


class Ornament(Record):
    """A rotation class of labeled good paths, stored by its unique
    label-minimal representative."""

    rep: GoodPath

    def __post_init__(self):
        if not isinstance(self.rep, GoodPath):
            raise ValueError("an ornament representative must be a GoodPath")
        if not is_label_minimal(self.rep):
            raise ValueError("an ornament representative must be label-minimal")

    @property
    def k(self) -> int:
        return self.rep.k

    @property
    def n(self) -> int:
        return self.rep.n


def diagonal_touches(p: GoodPath) -> list[tuple[int, int]]:
    """The (height, label) pairs where the path meets the diagonal, bottom up.

    Height 0 is always present. The endpoint is never listed: around the
    bent-into-a-circle picture it is the same meeting point as the start.
    """
    out = []
    r = u = 0
    for ch in p.steps:
        if ch == "R":
            if u == (p.k - 1) * r:
                out.append((u, p.labels[r]))
            r += 1
        else:
            u += 1
    return out


def is_label_minimal(p: GoodPath) -> bool:
    """True when no touch label undercuts the one at height 0; stops at the first that does."""
    r = u = 0
    for ch in p.steps:
        if ch == "R":
            if u == (p.k - 1) * r and p.labels[r] < p.labels[0]:
                return False
            r += 1
        else:
            u += 1
    return True


def _good_words(k: int, n: int):
    """All good step words of size n, in lexicographic order (R < U). Each
    word after the first is the successor of the one before: its last R
    that may become a U turns into one, then come the Rs left, then the
    Us left. Iterative, so a word of any length needs no recursion."""
    ups = (k - 1) * n
    word = "R" * n + "U" * ups
    while True:
        yield word
        r, u = n, ups  # the steps of each kind in word[:i]
        for i in range(len(word) - 1, -1, -1):
            if word[i] == "U":
                u -= 1
            else:
                r -= 1
                if u < (k - 1) * r:  # word[:i] + "U" keeps u <= (k-1)*r
                    break
        else:
            return
        word = word[:i] + "U" + "R" * (n - r) + "U" * (ups - u - 1)


def _labeled_paths(k: int, labels, max_count, minimal: bool):
    """The labeled good paths on a label set in enumerate_paths order, or
    only the label-minimal ones: the arguments checked once, on entry,
    each path built by `trusted`. Each word takes the permutations of the
    sorted labels lazily, in lexicographic order; with `minimal` it keeps
    those whose first label undercuts the labels at its other touches."""
    base = check_labels(k, labels, "enumerate_paths")
    check_cap(catalan.count_paths(k, len(base)), max_count, "good paths")
    for word in _good_words(k, len(base)):
        labelings = itertools.permutations(base)
        if minimal:  # q[0], then q at every touch, height 0 included
            touches = diagonal_touches(trusted(GoodPath, k=k, steps=word, labels=base))
            at_touches = operator.itemgetter(0, *(h // (k - 1) for h, _ in touches))
            labelings = filter(lambda q: min(at_touches(q)) == q[0], labelings)
        for q in labelings:
            yield trusted(GoodPath, k=k, steps=word, labels=q)


def enumerate_paths(
    k: int, labels, max_count: int | None = DEFAULT_MAX_ENUMERATION
) -> list[GoodPath]:
    """Every labeled good path on the given label set, exactly once.

    Order: step words lexicographically, then label assignments
    lexicographically within each word.
    """
    return list(_labeled_paths(k, labels, max_count, False))


def enumerate_minimal_paths(
    k: int, labels, max_count: int | None = DEFAULT_MAX_ENUMERATION
) -> list[GoodPath]:
    """The label-minimal paths on the given label set, in the order of
    enumerate_paths; the cap is checked against the path count."""
    return list(_labeled_paths(k, labels, max_count, True))


def _cut(p: GoodPath, height: int) -> tuple[int, int]:
    """Where a diagonal touch at `height` cuts p: the number of steps and
    the number of labels in front of it."""
    j = height // (p.k - 1)
    return j + height, j


def decompose(p: GoodPath, touches=None) -> MinimalField:
    """Split a path into its field of label-minimal pieces.

    Cut at every diagonal touch, `touches` if given, whose label undercuts
    all touch labels below it (the left-to-right minima, read bottom up).
    Each piece is label-minimal, the origin labels of the pieces come out
    strictly decreasing, and their label sets partition the input's.
    """
    cuts = []
    low = None
    for height, lab in touches or diagonal_touches(p):
        if low is None or lab < low:
            cuts.append(_cut(p, height))
            low = lab
    if len(cuts) == 1:  # no touch undercuts the origin: p is label-minimal
        return trusted(MinimalField, parts=frozenset({p}))
    cuts.append((len(p.steps), p.n))
    return trusted(MinimalField, parts=frozenset(
        trusted(GoodPath, k=p.k, steps=p.steps[s:t], labels=p.labels[i:j])
        for (s, i), (t, j) in zip(cuts, cuts[1:])
    ))


def recompose(field: MinimalField) -> GoodPath:
    """Inverse of decompose: concatenate the parts in decreasing order of
    their origin labels. A one-part field recomposes to its part itself."""
    if len(field.parts) == 1:
        return next(iter(field.parts))
    parts = sorted(field.parts, key=lambda q: q.labels[0], reverse=True)
    steps = "".join(q.steps for q in parts)
    labels = tuple(v for q in parts for v in q.labels)
    return trusted(GoodPath, k=field.k, steps=steps, labels=labels)


def _rotate_to(p: GoodPath, height: int) -> GoodPath:
    """The member of p's rotation class with the touch at `height` at the origin."""
    if height == 0:
        return p
    s, j = _cut(p, height)
    return trusted(GoodPath, k=p.k, steps=p.steps[s:] + p.steps[:s],
                   labels=p.labels[j:] + p.labels[:j])


def rotations(p: GoodPath, touches=None) -> list[GoodPath]:
    """All members of the rotation class of p, one per diagonal touch, `touches` if given."""
    return [_rotate_to(p, height) for height, _ in touches or diagonal_touches(p)]


def to_ornament(p: GoodPath) -> Ornament:
    """The rotation class of p, via its label-minimal representative.

    Rotating slides the periodized path along the diagonal until the
    touch with the smallest label sits at the origin.
    """
    height, _ = min(diagonal_touches(p), key=lambda touch: touch[1])
    return trusted(Ornament, rep=_rotate_to(p, height))


def touch_count(o: Ornament) -> int:
    """Number of diagonal touches of the representative, which is also the
    number of paths in the rotation class."""
    return len(diagonal_touches(o.rep))


def _ornaments(k: int, n: int, max_count):
    """The ornaments on labels 1..n in enumerate_ornaments order."""
    check_ints("enumerate_paths needs k >= 2 and a nonempty label set", (k, 2), (n, 1))
    for p in _labeled_paths(k, range(1, n + 1), max_count, True):
        yield trusted(Ornament, rep=p)


def enumerate_ornaments(
    k: int, n: int, max_count: int | None = DEFAULT_MAX_ENUMERATION
) -> list[Ornament]:
    """All ornaments on labels 1..n, each exactly once, as their
    label-minimal representatives.

    Labels are distinct, so each rotation class has exactly one
    label-minimal member. enumerate_paths lists the step words in
    lexicographic order (R < U) and, within each word, the label tuples
    in lexicographic order, so the ornaments come out sorted by
    (rep.steps, rep.labels). The cap is checked against the path count.
    """
    return list(_ornaments(k, n, max_count))


def _set_partitions(n: int, blocks: int):
    """Partitions of 1..n into exactly `blocks` <= n nonempty blocks, as lists
    of sorted tuples by increasing largest label (top). Iterative: the sets of
    labels that are no top, in lexicographic order, then for each set the
    strings naming, label by label from the largest down, which block with
    a larger top it joins, counted from the smallest, in lexicographic order."""
    for low in itertools.combinations(range(1, n), n - blocks):
        tops = [t for t in range(1, n + 1) if t not in low]
        others = low[::-1]
        above = [sum(t > j for t in tops) for j in others]
        for string in itertools.product(*map(range, above)):
            members = [[t] for t in tops]
            for j, c, i in zip(others, above, string):
                members[blocks - c + i].append(j)
            yield [tuple(reversed(m)) for m in members]


def _fields(k: int, n: int, parts: int, max_count):
    """The minimal fields on labels 1..n with exactly `parts` parts in
    enumerate_fields order, one at a time."""
    check_ints("enumerate_fields needs k >= 2, n >= 1, parts >= 1",
               (k, 2), (n, 1), (parts, 1))
    predicted = factorial(n) * catalan.coeff_log_power(k, n, parts) / factorial(parts)
    check_cap(int(predicted), max_count, "minimal fields")
    if parts > n:
        return
    for blocks in _set_partitions(n, parts):
        # a stack of walks, each later block re-walked per earlier choice (flat)
        walks, chosen = [_labeled_paths(k, blocks[0], max_count, True)], []
        while walks:
            for p in walks[-1]:
                chosen[len(walks) - 1:] = [p]
                if len(walks) < parts:
                    walks.append(_labeled_paths(k, blocks[len(walks)], max_count, True))
                    break
                yield trusted(MinimalField, parts=frozenset(chosen))
            else:
                walks.pop()


def enumerate_fields(
    k: int, n: int, parts: int, max_count: int | None = DEFAULT_MAX_ENUMERATION
) -> list[MinimalField]:
    """All minimal fields on labels 1..n with exactly `parts` parts (none
    when parts > n): by set partition of the labels, then by the
    label-minimal paths of each block in enumerate_paths order."""
    return list(_fields(k, n, parts, max_count))
