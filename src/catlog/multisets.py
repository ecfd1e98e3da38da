"""Cyclically ordered multisets and the two encodings that share them.

A cyclically ordered multiset on n labels is a cycle on the labels plus,
for each label, a vector of k-1 nonnegative multiplicities, all of them
summing to n. Its cycle graph lists the nodes (label, q) for q = 1..k-1
around the cycle; a segment walks that graph forward. A label is a root
vertex when every segment starting at its first node keeps its total
multiplicity (weight) at or above its number of distinct labels (scope);
`root_vertices` finds them all in one pass by the cycle lemma, and the
segment functions stay as the definition it is tested against.

Ornaments encode into multisets by counting right steps per height
above each label; cycle-rooted trees encode by depth-first exploration
order plus redistributed slot-chain lengths. Both encodings are
injective with the same image, the multisets that have root vertices,
which is what ties the path picture to the tree picture.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from . import catalan
from .errors import DEFAULT_MAX_ENUMERATION, check_cap
from .paths import GoodPath, Ornament
from .trees import CycleRootedTree, _check_cycle, canonical_cycle, slot_walk

Node = tuple[int, int]
Segment = tuple[Node, ...]


@dataclass(frozen=True)
class CyclicMultiset:
    """`f` holds (label, vector) pairs by increasing label; `f_map` as a dict."""

    k: int
    cycle: tuple[int, ...]
    f: tuple[tuple[int, tuple[int, ...]], ...]
    f_map: dict[int, tuple[int, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("multisets need k >= 2")
        object.__setattr__(self, "cycle", _check_cycle(self.cycle))
        f_map = {}
        total = 0
        for v, vec in self.f.items() if isinstance(self.f, dict) else self.f:
            v = int(v)
            vec = tuple(int(x) for x in vec)
            if len(vec) != self.k - 1:
                raise ValueError(
                    f"multiplicity vector of {v} must have length k-1 = {self.k - 1}"
                )
            if any(x < 0 for x in vec):
                raise ValueError("multiplicities must be nonnegative")
            if v in f_map:
                raise ValueError(f"f names vertex {v} twice")
            f_map[v] = vec
            total += sum(vec)
        if f_map.keys() != set(self.cycle):
            raise ValueError("multiplicities must cover exactly the cycle labels")
        if total != self.n:
            raise ValueError(
                f"multiplicities sum to {total}, must equal the label count {self.n}"
            )
        f_map = dict(sorted(f_map.items()))
        object.__setattr__(self, "f_map", f_map)
        object.__setattr__(self, "f", tuple(f_map.items()))

    @property
    def n(self) -> int:
        return len(self.cycle)


def _rotated(cycle: tuple[int, ...], v: int) -> tuple[int, ...]:
    """The cycle rotated to start at label v."""
    i = cycle.index(v)
    return cycle[i:] + cycle[:i]


def _node_walk(m: CyclicMultiset, start: int):
    """The n*(k-1) nodes of the cycle graph in forward order from (start, 1)."""
    for v in _rotated(m.cycle, start):
        for q in range(1, m.k):
            yield (v, q)


def segments_from(m: CyclicMultiset, label: int) -> list[Segment]:
    """All forward segments starting at (label, 1), one per end node."""
    if label not in m.f_map:
        raise ValueError(f"label {label} is not on the cycle")
    nodes = list(_node_walk(m, label))
    return [tuple(nodes[:t]) for t in range(1, len(nodes) + 1)]


def scope(segment: Segment) -> int:
    """Number of distinct labels a segment passes through."""
    return len({v for v, _ in segment})


def weight(m: CyclicMultiset, segment: Segment) -> int:
    """Total multiplicity along a segment."""
    return sum(m.f_map[v][q - 1] for v, q in segment)


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
    before = []
    low = total = 0
    for v in m.cycle:
        vec = m.f_map[v]
        before.append(total)
        low = min(low, total + vec[0] - 1)
        total += sum(vec) - 1
    return {v for v, p in zip(m.cycle, before) if p == low}


def _weak_compositions(total: int, parts: int):
    """Tuples of `parts` nonnegative integers summing to `total`, lexicographic."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for head in range(total + 1):
        for rest in _weak_compositions(total - head, parts - 1):
            yield (head,) + rest


def enumerate_multisets(
    k: int,
    n: int,
    rooted_only: bool = False,
    max_count: int | None = DEFAULT_MAX_ENUMERATION,
) -> list[CyclicMultiset]:
    """All cyclically ordered multisets on labels 1..n, or only those with
    root vertices, in a fixed order."""
    if k < 2 or n < 1:
        raise ValueError("enumerate_multisets needs k >= 2 and n >= 1")
    check_cap(catalan.count_multisets(k, n), max_count, "cyclic multisets")
    labels = tuple(range(1, n + 1))
    width = k - 1
    out = []
    for rest in itertools.permutations(labels[1:]):
        cycle = (1,) + rest
        for comp in _weak_compositions(n, n * width):
            m = CyclicMultiset(
                k,
                cycle,
                {v: comp[(v - 1) * width : v * width] for v in labels},
            )
            if rooted_only and not root_vertices(m):
                continue
            out.append(m)
    return out


# -- encoding of ornaments -----------------------------------------------------


def ornament_to_multiset(o: Ornament) -> CyclicMultiset:
    """Count the right steps per height above each label; the label order
    along the path becomes the cycle.

    The counts do not depend on which member of the rotation class is
    used, so reading them off the canonical representative is safe.
    """
    p = o.rep
    counts = {v: [0] * (p.k - 1) for v in p.labels}
    u = 0
    for ch in p.steps:
        if ch == "R":
            j, q = divmod(u, p.k - 1)
            counts[p.labels[j]][q] += 1
        else:
            u += 1
    return CyclicMultiset(p.k, canonical_cycle(p.labels), counts)


def _least_root_order(m: CyclicMultiset, what: str) -> tuple[tuple[int, ...], set[int]]:
    """The cycle read from its smallest root vertex, and the root vertices;
    a multiset without root vertices encodes no `what` at all."""
    roots = root_vertices(m)
    if not roots:
        raise ValueError(f"multiset has no root vertices, so it encodes no {what}")
    return _rotated(m.cycle, min(roots)), roots


def multiset_to_ornament(m: CyclicMultiset) -> Ornament:
    """Rebuild the label-minimal representative from the multiplicities.

    Starting the label order at the smallest root vertex makes the word
    good and label-minimal.
    """
    order, _ = _least_root_order(m, "ornament")
    chunks = []
    for v in order:
        for r in m.f_map[v]:
            chunks.append("R" * r + "U")
    return Ornament(GoodPath(m.k, "".join(chunks), order))


# -- encoding of cycle-rooted trees ---------------------------------------------


def cycle_tree_to_multiset(
    c: CycleRootedTree, start_root: int | None = None
) -> CyclicMultiset:
    """Encode a cycle-rooted tree as a cyclically ordered multiset.

    The cycle is the depth-first exploration order: each root in clockwise
    cycle order from `start_root`, each followed by its subtree, children
    explored leftmost slot first (start-independent as a cyclic order).
    Each vertex reports the lengths of the maximal slot-chains that start
    at it, skipping the slot it occupies at its own parent since that
    chain is reported further up; roots report their first k-1 slots and
    add one for the leftmost. Chain lengths count the vertices strictly
    below the reporting one, which is what makes the multiplicities sum
    to n.
    """
    if start_root is None:
        start_root = c.cycle[0]
    if start_root not in c.cycle:
        raise ValueError("exploration must start at a cycle vertex")
    order: list[int] = []
    parent_slot = {}
    for r in _rotated(c.cycle, start_root):
        order.append(r)
        for _, q, v in slot_walk(c.slot_map, r):
            if v is not None:
                order.append(v)
                parent_slot[v] = q

    def chain(v: int, q: int) -> int:
        length = 0
        while (v := c.slot_map[v][q]) is not None:
            length += 1
        return length

    roots = set(c.cycle)
    f = {}
    for v in order:
        if v in roots:
            vec = [chain(v, q) for q in range(c.k - 1)]
            vec[0] += 1
        else:
            p = parent_slot[v]
            vec = [chain(v, q) for q in range(c.k) if q != p]
        f[v] = vec
    return CyclicMultiset(c.k, canonical_cycle(order), f)


def multiset_to_cycle_tree(m: CyclicMultiset) -> CycleRootedTree:
    """Rebuild the cycle-rooted tree whose encoding is m.

    Replays the depth-first exploration: the root vertices of m mark
    where subtrees start, and multiplicities are consumed as remaining
    chain budgets while the labels are attached in cycle order.
    """
    seq, roots = _least_root_order(m, "tree")
    k = m.k
    table: dict[int, list[int | None]] = {v: [None] * k for v in m.cycle}

    def build(v: int, chains: list[int], pos: int) -> int:
        for q in range(k):
            if chains[q] > 0:
                if pos >= len(seq):
                    raise ValueError("multiplicities overrun the label cycle")
                child = seq[pos]
                table[v][q] = child
                child_chains = [0] * k
                vec = m.f_map[child]
                others = [s for s in range(k) if s != q]
                for t, s in enumerate(others):
                    child_chains[s] = vec[t]
                child_chains[q] = chains[q] - 1
                pos = build(child, child_chains, pos + 1)
        return pos

    cyc: list[int] = []
    pos = 0
    while pos < len(seq):
        r = seq[pos]
        if r not in roots:
            raise ValueError("exploration replay hit a non-root where a root was due")
        cyc.append(r)
        vec = m.f_map[r]
        chains = [0] * k
        for q in range(k - 1):
            chains[q] = vec[q]
        chains[0] -= 1
        if chains[0] < 0:
            raise ValueError("a root must carry multiplicity at least 1 on its first node")
        pos = build(r, chains, pos + 1)
    return CycleRootedTree(k, tuple(cyc), {v: tuple(row) for v, row in table.items()})


# -- the composed correspondence -------------------------------------------------


def ornament_to_cycle_tree(o: Ornament) -> CycleRootedTree:
    """Carry an ornament over to its cycle-rooted tree through the shared
    multiset encoding; touch labels become the root cycle."""
    return multiset_to_cycle_tree(ornament_to_multiset(o))


def cycle_tree_to_ornament(c: CycleRootedTree) -> Ornament:
    """Inverse of ornament_to_cycle_tree."""
    return multiset_to_ornament(cycle_tree_to_multiset(c))
