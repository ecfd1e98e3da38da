"""Cyclically ordered multisets and the two encodings that share them.

A cyclically ordered multiset on n labels is a cycle on the labels plus,
for each label, a vector of k-1 nonnegative multiplicities, all of them
summing to n. Its cycle graph lists the nodes (label, q) for q = 1..k-1
around the cycle; a segment walks that graph forward. A label is a root
vertex when every segment starting at its first node keeps its total
multiplicity (weight) at or above its number of distinct labels (scope);
`root_vertices` finds them all in one pass by the cycle lemma; the tests
walk the segments themselves as the definition it is checked against.

Ornaments encode into multisets by counting right steps per height
above each label; cycle-rooted trees encode by depth-first exploration
order plus redistributed slot-chain lengths. Both encodings are
injective with the same image, the multisets that have root vertices,
which is what ties the path picture to the tree picture.

`multiset_rank` numbers the multisets on labels 1..n exactly, in
enumeration order, and `multiset_unrank` inverts it.
"""

from __future__ import annotations

import itertools
import math

from . import catalan
from ._trusted import Record, trusted
from .errors import DEFAULT_MAX_ENUMERATION, check_cap, check_ints, check_pairs, check_stored
from .paths import GoodPath, Ornament
from .trees import CycleRootedTree, _check_cycle, _rotated, canonical_cycle


def _check_multiset(k, cycle, f, stored=False):
    """The checks of a cyclic multiset, in order; returns the cycle as a
    tuple and the multiplicity map. `stored` f is checked as the stored
    map; otherwise it is read, a dict or (label, vector) pairs, in one loop."""
    check_ints("multisets need an integer k >= 2", (k, 2))
    cycle = _check_cycle(cycle)
    if stored:
        table = check_stored(f, k - 1, 0)
    else:
        table = {}
        for v, vec in check_pairs(f, "f must be a dict or (label, vector) pairs"):
            if type(v) is not int:
                raise ValueError(f"f is keyed by the integer cycle labels, not {v!r}")
            try:
                vec = tuple(vec)
            except TypeError:  # no vector at all: refused for its length
                vec = ()
            if len(vec) != k - 1:
                raise ValueError(f"multiplicity vector of {v} must have length k-1 = {k - 1}")
            if set(map(type, vec)) != {int} or min(vec) < 0:
                raise ValueError("multiplicities must be nonnegative integers")
            if v in table:
                raise ValueError(f"f names vertex {v} twice")
            table[v] = vec
    # _check_cycle refused repeated labels, so a table as long as the cycle
    # that holds each of its labels holds exactly them
    if len(table) != len(cycle) or not all(map(table.__contains__, cycle)):
        raise ValueError("multiplicities must cover exactly the cycle labels")
    total = sum(map(sum, table.values()))
    if total != len(cycle):
        raise ValueError(f"multiplicities sum to {total}, must equal the label count {len(cycle)}")
    return cycle, table


class CyclicMultiset(Record):
    """`f` maps each label to its vector, a dict by increasing label."""

    k: int
    cycle: tuple[int, ...]
    f: dict[int, tuple[int, ...]]

    def __post_init__(self):
        cycle, f = _check_multiset(self.k, self.cycle, self.f)
        object.__setattr__(self, "cycle", cycle)
        object.__setattr__(self, "f", dict(sorted(f.items())))

    @property
    def n(self) -> int:
        return len(self.cycle)


def root_vertices(m: CyclicMultiset) -> set[int]:
    """Labels whose every forward segment keeps weight >= scope.

    By the cycle lemma (Dvoretzky-Motzkin; Raney), in one O(nk) pass.
    Give the node (v, q) the step f(v, q) - [q = 1]: a segment's weight
    minus its scope is the sum of its steps, and the steps around the
    whole cycle graph sum to n - n = 0. Take prefix sums P along
    m.cycle, P being 0 in front of the first node. Every segment from
    (v, 1) keeps a nonnegative step sum, wrapping around or not, exactly
    when the prefix sum in front of (v, 1) equals the minimum of P.
    Only the steps at the (v, 1) nodes are negative, so the minimum is a
    prefix sum just after some (v, 1).
    """
    f = m.f
    before = []
    low = total = 0
    for v in m.cycle:
        vec = f[v]
        before.append(total)
        after_first = total + vec[0] - 1  # the prefix sum just after (v, 1)
        if after_first < low:
            low = after_first
        total += sum(vec) - 1
    return {v for v, p in zip(m.cycle, before) if p == low}


def _weak_compositions(total: int, parts: int):
    """Tuples of `parts` nonnegative integers summing to `total`, lexicographic:
    stars and bars, each part the stars between two neighboring bars, the
    bars' places in lexicographic order."""
    places = total + parts - 1
    for bars in itertools.combinations(range(places), parts - 1):
        yield tuple([b - a - 1 for a, b in zip((-1, *bars), (*bars, places))])


def _multisets(k: int, n: int, max_count):
    """The cyclically ordered multisets on labels 1..n in enumerate_multisets
    order, which is the order of their ranks: the arguments checked once,
    on entry, each multiset built by `trusted`."""
    check_ints("enumerate_multisets needs k >= 2 and n >= 1", (k, 2), (n, 1))
    check_cap(catalan.count_multisets(k, n), max_count, "cyclic multisets")
    for rest in itertools.permutations(range(2, n + 1)):
        for comp in _weak_compositions(n, n * (k - 1)):  # k-1 entries per label
            yield trusted(CyclicMultiset, k=k, cycle=(1, *rest),
                          f=dict(zip(range(1, n + 1), zip(*[iter(comp)] * (k - 1)))))


def enumerate_multisets(
    k: int, n: int, max_count: int | None = DEFAULT_MAX_ENUMERATION
) -> list[CyclicMultiset]:
    """All cyclically ordered multisets on labels 1..n in a fixed order: the
    cycles after label 1 lexicographically, then the multiplicities read
    label by label lexicographically."""
    return list(_multisets(k, n, max_count))


def _compositions(total: int, parts: int) -> int:
    """The number of weak compositions of `total` into `parts` >= 1 parts;
    0 for a negative total."""
    return math.comb(total + parts - 1, total) if total >= 0 else 0


_NOT_STORED = "not a multiset on labels 1..n stored as its constructor stores it"


def multiset_rank(m: CyclicMultiset) -> int:
    """The position of m in enumerate_multisets(m.k, m.n).

    The Lehmer code of the cycle after label 1, times the number of weak
    compositions of n into n(k-1) parts, plus the lexicographic rank of
    the multiplicities read label by label (Knuth, TAOCP vol. 4A,
    7.2.1.2-3; Nijenhuis-Wilf, Combinatorial Algorithms). The ranks fill
    [0, count_multisets(k, n)) exactly. Raises ValueError unless m is a
    multiset on labels 1..n that passes its constructor's checks as stored.
    """
    if type(m) is not CyclicMultiset:
        raise ValueError(_NOT_STORED)
    try:
        cycle, f = _check_multiset(m.k, m.cycle, m.f, True)
    except ValueError:
        raise ValueError(_NOT_STORED) from None
    k, n = m.k, len(cycle)
    if cycle != m.cycle or max(cycle) != n:  # a stored cycle on labels 1..n
        raise ValueError(_NOT_STORED)
    rest = list(range(1, n + 1))
    perm = 0
    for v in cycle:
        i = rest.index(v)
        perm = perm * len(rest) + i
        rest.pop(i)
    comp = 0
    total, parts = n, n * (k - 1)
    for vec in f.values():  # by label 1..n
        for x in vec:
            if x:  # the compositions that put less than x here come first
                comp += _compositions(total, parts) - _compositions(total - x, parts)
                total -= x
            parts -= 1
    return perm * _compositions(n, n * (k - 1)) + comp


def multiset_unrank(k: int, n: int, r: int) -> CyclicMultiset:
    """The multiset of rank r on labels 1..n: the inverse of multiset_rank."""
    check_ints("multiset_unrank needs k >= 2 and n >= 1", (k, 2), (n, 1))
    width = n * (k - 1)
    count = catalan.count_multisets(k, n)
    outside = f"rank {r} is outside [0, {count})"
    check_ints(outside, (r, 0))
    if r >= count:
        raise ValueError(outside)
    perm, comp = divmod(r, _compositions(n, width))
    digits = []
    for radix in range(1, n):  # least significant digit first
        perm, d = divmod(perm, radix)
        digits.append(d)
    rest = list(range(2, n + 1))
    cycle = (1,) + tuple(rest.pop(d) for d in reversed(digits))
    vec = []
    total = n
    for parts in range(width, 0, -1):
        x = 0
        while comp >= _compositions(total, parts) - _compositions(total - x - 1, parts):
            x += 1
        comp -= _compositions(total, parts) - _compositions(total - x, parts)
        vec.append(x)
        total -= x
    return CyclicMultiset(k, cycle, {v: tuple(vec[(v - 1) * (k - 1) : v * (k - 1)])
                                     for v in range(1, n + 1)})


# -- encoding of ornaments -----------------------------------------------------


def ornament_to_multiset(o: Ornament) -> CyclicMultiset:
    """Count the right steps per height above each label; the label order
    along the path becomes the cycle.

    The counts do not depend on which member of the rotation class is
    used, so reading them off the canonical representative is safe.
    """
    p = o.rep
    k, labels = p.k, p.labels  # read once, not per step
    counts = {v: [0] * (k - 1) for v in labels}
    u = 0
    for ch in p.steps:
        if ch == "R":
            j, q = divmod(u, k - 1)
            counts[labels[j]][q] += 1
        else:
            u += 1
    return _encoded(k, labels, counts)


def _encoded(k: int, order, counts: dict[int, list[int]]) -> CyclicMultiset:
    """The multiset that an encoding produced: the cycle `order` and the
    multiplicity vectors `counts`, stored the way the public constructor
    stores them."""
    return trusted(CyclicMultiset, k=k, cycle=canonical_cycle(order),
                   f={v: tuple(counts[v]) for v in sorted(counts)})


def _least_root_order(m: CyclicMultiset) -> tuple[tuple[int, ...], set[int]]:
    """The cycle read from its smallest root vertex (empty when m has
    none), and the root vertices: what both decoders start from."""
    roots = root_vertices(m)
    return _rotated(m.cycle, min(roots)) if roots else (), roots


def _decoder_start(m: CyclicMultiset, rooted, what: str) -> tuple[tuple[int, ...], set[int]]:
    """The least-root order a decoder starts from: `rooted`, or m's own
    when it is None; a multiset without root vertices encodes no `what`."""
    order, roots = rooted or _least_root_order(m)
    if not roots:
        raise ValueError(f"multiset has no root vertices, so it encodes no {what}")
    return order, roots


def multiset_to_ornament(m: CyclicMultiset, rooted=None) -> Ornament:
    """Rebuild the label-minimal representative from the multiplicities.

    Starting the label order at the smallest root vertex makes the word
    good and label-minimal. A caller that holds `_least_root_order(m)`
    passes it as `rooted`, trusted; another value builds a wrong ornament.
    """
    order, _ = _decoder_start(m, rooted, "ornament")
    chunks = []
    for v in order:
        for r in m.f[v]:
            chunks.append("R" * r + "U")
    return trusted(Ornament, rep=trusted(GoodPath, k=m.k, steps="".join(chunks),
                                         labels=order))


# -- encoding of cycle-rooted trees ---------------------------------------------


def cycle_tree_to_multiset(c: CycleRootedTree) -> CyclicMultiset:
    """Encode a cycle-rooted tree as a cyclically ordered multiset.

    The cycle is the depth-first exploration order: each root in clockwise
    cycle order, each followed by its subtree, children explored leftmost
    slot first (the same cyclic order from whichever root it starts).
    Each vertex reports the lengths of the maximal slot-chains that start
    at it, skipping the slot it occupies at its own parent since that
    chain is reported further up; roots report their first k-1 slots and
    add one for the leftmost. Chain lengths count the vertices strictly
    below the reporting one, which is what makes the multiplicities sum
    to n.
    """
    k, table = c.k, c.slots
    slots = range(k - 1, -1, -1)  # right to left: the leftmost child is pushed last
    order: list[int] = []
    f = {}
    for r in c.cycle:
        # depth first, leftmost slot first: each vertex with the slot it
        # occupies, a root with its rightmost slot, which stays vacant
        stack = [(r, k - 1)]
        while stack:
            v, p = stack.pop()
            order.append(v)
            row = table[v]
            vec = []
            for q in slots:
                u = row[q]
                if u is not None:
                    stack.append((u, q))
                if q != p:  # the chain from v through slot q, v left out
                    length = 0
                    while u is not None:
                        length += 1
                        u = table[u][q]
                    vec.append(length)
            vec.reverse()
            f[v] = vec
        f[r][0] += 1
    return _encoded(k, order, f)


def multiset_to_cycle_tree(m: CyclicMultiset, rooted=None) -> CycleRootedTree:
    """Rebuild the cycle-rooted tree whose encoding is m.

    Replays the depth-first exploration: the root vertices of m mark
    where subtrees start, and multiplicities are consumed as remaining
    chain budgets while the labels are attached in cycle order. A caller
    that holds `_least_root_order(m)` passes it as `rooted`, trusted;
    another value builds an invalid tree.
    """
    seq, roots = _decoder_start(m, rooted, "tree")
    k = m.k
    table: dict[int, list[int | None]] = {v: [None] * k for v in m.f}
    cyc: list[int] = []
    pos = 0
    while pos < len(seq):
        r = seq[pos]
        if r not in roots:
            raise ValueError("exploration replay hit a non-root where a root was due")
        cyc.append(r)
        chains = [*m.f[r], 0]
        chains[0] -= 1
        if chains[0] < 0:
            raise ValueError("a root must carry multiplicity at least 1 on its first node")
        pos += 1
        # depth first, leftmost slot first: each frame is a vertex, its
        # remaining chain budget per slot, and the slots not yet tried
        stack = [(r, chains, iter(range(k)))]
        while stack:
            v, chains, slots = stack[-1]
            for q in slots:
                if chains[q] > 0:
                    break
            else:
                stack.pop()
                continue
            if pos >= len(seq):
                raise ValueError("multiplicities overrun the label cycle")
            child = seq[pos]
            pos += 1
            table[v][q] = child
            # the child's own chains, with the chain it continues in slot q
            vec = m.f[child]
            stack.append((child, [*vec[:q], chains[q] - 1, *vec[q:]], iter(range(k))))
    return trusted(CycleRootedTree, k=k, cycle=tuple(cyc),
                   slots={v: tuple(row) for v, row in table.items()})


# -- the composed correspondence -------------------------------------------------


def ornament_to_cycle_tree(o: Ornament) -> CycleRootedTree:
    """Carry an ornament over to its cycle-rooted tree through the shared
    multiset encoding; touch labels become the root cycle."""
    return multiset_to_cycle_tree(ornament_to_multiset(o))


def cycle_tree_to_ornament(c: CycleRootedTree) -> Ornament:
    """Inverse of ornament_to_cycle_tree."""
    return multiset_to_ornament(cycle_tree_to_multiset(c))
