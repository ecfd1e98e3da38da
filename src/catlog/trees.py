"""Rooted plane k-ary trees, root-minimal forests, and cycle-rooted trees.

Every vertex owns k ordered slots, each vacant or holding one child; the
k-th slot is the rightmost. The rightmost branch (root, then repeatedly
the k-th slot occupant) plays the role the diagonal plays for paths:
cutting it where the labels drop yields a forest of root-minimal trees,
and bending it into a cycle yields a cycle-rooted tree.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from . import catalan
from ._trusted import trusted
from .errors import DEFAULT_MAX_ENUMERATION, check_cap

Slots = tuple[tuple[int, tuple[int | None, ...]], ...]
Table = dict[int, tuple[int | None, ...]]


def _rotated(cycle: tuple[int, ...], v: int) -> tuple[int, ...]:
    """The cycle rotated to start at label v."""
    i = cycle.index(v)
    return cycle[i:] + cycle[:i]


def canonical_cycle(seq) -> tuple[int, ...]:
    """Rotate a cyclic sequence so that its minimal element comes first."""
    seq = tuple(seq)
    if not seq:
        raise ValueError("empty cycle")
    return _rotated(seq, min(seq))


def _slots_key(slots: Slots):
    """Sort key for slot tables; vacancies order before occupants."""
    return tuple((v, tuple(-1 if c is None else c for c in row)) for v, row in slots)


def _check_cycle(cycle) -> tuple[int, ...]:
    """A root cycle as stored: nonempty, distinct positive integer labels,
    minimal label first."""
    cycle = tuple(cycle)
    if not cycle or len(set(cycle)) != len(cycle):
        raise ValueError("the cycle must be a nonempty list of distinct labels")
    if any(type(v) is not int or v < 1 for v in cycle):
        raise ValueError("cycle labels must be positive integers")
    if cycle[0] != min(cycle):
        raise ValueError("the cycle must be stored starting at its minimal label")
    return cycle


def slot_walk(slot_map, root: int):
    """Every slot below `root` as (depth, slot, occupant): depth first,
    leftmost slot first, the root's own slots at depth 1, None for a
    vacancy. Iterative, so deep trees need no recursion."""
    stack = [enumerate(slot_map[root])]  # one open row per level
    while stack:
        for q, child in stack[-1]:
            yield len(stack), q, child
            if child is not None:
                stack.append(enumerate(slot_map[child]))
                break
        else:
            stack.pop()


def _relink(k: int, slots, links) -> Table:
    """The slot table with the rightmost slot of each vertex v in `links`
    set to links[v], an occupant or None."""
    table = dict(slots)
    for v, child in links.items():
        table[v] = table[v][: k - 1] + (child,)
    return table


def _slot_table(k: int, roots: tuple[int, ...], slots) -> Table:
    """Read `slots` (a dict or (vertex, row) pairs) in one loop, then walk
    from `roots` meeting each occupant once: a k-ary forest with exactly
    these roots passes, and comes back sorted by vertex."""
    table = {}
    for v, row in slots.items() if isinstance(slots, dict) else slots:
        row = tuple(row)
        if len(row) != k:
            raise ValueError(f"slot array of vertex {v} must have length {k}")
        if type(v) is not int or v < 1:
            raise ValueError("vertices must be positive integers")
        if v in table:
            raise ValueError(f"slots names vertex {v} twice")
        table[v] = row
    for r in roots:
        if r not in table:
            raise ValueError(f"root {r} is missing from the slot table")
    seen = set(roots)
    stack = list(roots)
    while stack:
        for c in table[stack.pop()]:
            if c is None:
                continue
            if type(c) is not int:
                raise ValueError(f"a slot holds a vertex or None, not {c!r}")
            if c in seen:
                raise ValueError(f"root {c} sits in a slot" if c in roots
                                 else f"vertex {c} occupies two slots")
            if c not in table:
                raise ValueError(f"vertex {c} sits in a slot but has no slot array")
            seen.add(c)
            stack.append(c)
    if len(seen) != len(table):
        raise ValueError(f"vertex {min(table.keys() - seen)} hangs below no root")
    return dict(sorted(table.items()))


@dataclass(frozen=True)
class _SlotTable:
    """The checked slot table of a tree structure, by increasing vertex;
    its `slots` field holds the same rows as (vertex, row) pairs."""

    slot_map: Table = field(init=False, repr=False, compare=False)

    def _keep(self, slot_map: Table) -> None:
        object.__setattr__(self, "slot_map", slot_map)
        object.__setattr__(self, "slots", tuple(slot_map.items()))

    @property
    def n(self) -> int:
        return len(self.slot_map)


@dataclass(frozen=True)
class PlaneTree(_SlotTable):
    k: int
    root: int
    slots: Slots

    def __post_init__(self):
        if type(self.k) is not int or self.k < 2:
            raise ValueError("trees need an integer k >= 2")
        if type(self.root) is not int:
            raise ValueError("the root must be a positive integer")
        self._keep(_slot_table(self.k, (self.root,), self.slots))


@dataclass(frozen=True)
class RootMinimalForest:
    parts: frozenset[PlaneTree]

    def __post_init__(self):
        if len(parts := frozenset(self.parts)) != len(self.parts):
            raise ValueError("parts lists one part twice")
        object.__setattr__(self, "parts", parts)
        if not parts:
            raise ValueError("a forest holds at least one tree")
        if len({t.k for t in parts}) != 1:
            raise ValueError("all trees of a forest must share the same k")
        seen: set[int] = set()
        for t in parts:
            if not is_root_minimal(t):
                raise ValueError("every tree of the forest must be root-minimal")
            if not seen.isdisjoint(t.slot_map):
                raise ValueError("vertex sets of forest trees must be disjoint")
            seen.update(t.slot_map)

    @property
    def k(self) -> int:
        return next(iter(self.parts)).k


@dataclass(frozen=True)
class CycleRootedTree(_SlotTable):
    """A clockwise cycle of roots with vacant rightmost slots, each root
    carrying a hanging plane k-ary subtree.

    The cycle is stored in canonical rotation: minimal label first, the
    successor in the tuple being the clockwise neighbor.
    """

    k: int
    cycle: tuple[int, ...]
    slots: Slots

    def __post_init__(self):
        if type(self.k) is not int or self.k < 2:
            raise ValueError("trees need an integer k >= 2")
        object.__setattr__(self, "cycle", _check_cycle(self.cycle))
        self._keep(_slot_table(self.k, self.cycle, self.slots))
        for r in self.cycle:
            if self.slot_map[r][self.k - 1] is not None:
                raise ValueError("the rightmost slot of a cycle vertex must stay vacant")


def rightmost_branch(t: PlaneTree) -> list[int]:
    """The root, then repeatedly the occupant of the rightmost slot."""
    out = [t.root]
    while True:
        nxt = t.slot_map[out[-1]][t.k - 1]
        if nxt is None:
            return out
        out.append(nxt)


def is_root_minimal(t: PlaneTree) -> bool:
    return t.root == min(rightmost_branch(t))


def _slot_tables(k: int, verts: tuple[int, ...], root: int, open_slots: tuple[int, ...]):
    """Slot tables of all plane trees on `verts` rooted at `root`, the root
    using only the 0-based `open_slots`; deeper vertices use all k slots."""
    rest = tuple(v for v in verts if v != root)
    if not rest:
        yield {root: (None,) * k}
        return
    all_slots = tuple(range(k))
    for assign in itertools.product(open_slots, repeat=len(rest)):
        blocks: dict[int, list[int]] = {}
        for v, q in zip(rest, assign):
            blocks.setdefault(q, []).append(v)
        options = []
        for q in sorted(blocks):
            block = tuple(blocks[q])
            opts = []
            for child in block:
                for sub in _slot_tables(k, block, child, all_slots):
                    opts.append((q, child, sub))
            options.append(opts)
        for combo in itertools.product(*options):
            row: list[int | None] = [None] * k
            table: Table = {}
            for q, child, sub in combo:
                row[q] = child
                table.update(sub)
            table[root] = tuple(row)
            yield table


def _trees(k: int, labels, max_count):
    """The plane k-ary trees on a label set, root by root, in the order the
    slot tables are built."""
    base = sorted(labels)
    if len(set(base)) != len(base):
        raise ValueError("label set contains duplicates")
    if k < 2 or not base:
        raise ValueError("enumerate_trees needs k >= 2 and a nonempty label set")
    check_cap(catalan.count_paths(k, len(base)), max_count, "plane trees")
    for root in base:
        for table in _slot_tables(k, tuple(base), root, tuple(range(k))):
            yield PlaneTree(k, root, table)


def enumerate_trees(
    k: int, labels, max_count: int | None = DEFAULT_MAX_ENUMERATION
) -> list[PlaneTree]:
    """Every plane k-ary tree on the given label set, any root, in a fixed order."""
    return sorted(_trees(k, labels, max_count), key=lambda t: (t.root, _slots_key(t.slots)))


def tree_to_forest(t: PlaneTree) -> RootMinimalForest:
    """Cut the rightmost branch wherever the next vertex undercuts the root
    of the piece being built; every piece comes out root-minimal."""
    roots = [t.root]
    cuts = {}
    branch = rightmost_branch(t)
    for cur, nxt in zip(branch, branch[1:]):
        if nxt < roots[-1]:
            cuts[cur] = None
            roots.append(nxt)
    table = _relink(t.k, t.slot_map, cuts)
    parts = []
    for r in roots:
        below = [c for _, _, c in slot_walk(table, r) if c is not None]
        part = {v: table[v] for v in sorted([r] + below)}
        parts.append(trusted(PlaneTree, k=t.k, root=r, slots=tuple(part.items()),
                             slot_map=part))
    return trusted(RootMinimalForest, parts=frozenset(parts))


def forest_to_tree(f: RootMinimalForest) -> PlaneTree:
    """Inverse of tree_to_forest: glue the trees in decreasing root order,
    each root into the vacant rightmost slot ending the previous branch."""
    parts = sorted(f.parts, key=lambda t: t.root, reverse=True)
    rows = sorted(row for t in parts for row in t.slots)
    links = {rightmost_branch(a)[-1]: b.root for a, b in zip(parts, parts[1:])}
    table = _relink(f.k, rows, links)
    return trusted(PlaneTree, k=f.k, root=parts[0].root, slots=tuple(table.items()),
                   slot_map=table)


def to_cycle_rooted(t: PlaneTree) -> CycleRootedTree:
    """Bend the rightmost branch of a root-minimal tree into the root cycle;
    branch order becomes clockwise order."""
    if not is_root_minimal(t):
        raise ValueError("only a root-minimal tree bends into a cycle")
    branch = tuple(rightmost_branch(t))
    table = _relink(t.k, t.slot_map, dict.fromkeys(branch))
    return trusted(CycleRootedTree, k=t.k, cycle=branch, slots=tuple(table.items()),
                   slot_map=table)


def to_root_minimal(c: CycleRootedTree) -> PlaneTree:
    """Open the root cycle before its minimal vertex; the cycle becomes the
    rightmost branch of a root-minimal tree."""
    links = dict(zip(c.cycle, c.cycle[1:]))
    table = _relink(c.k, c.slot_map, links)
    return trusted(PlaneTree, k=c.k, root=c.cycle[0], slots=tuple(table.items()),
                   slot_map=table)


def _cycle_rooted(k: int, n: int, max_count):
    """The cycle-rooted trees on labels 1..n, built directly from the
    definition: choose the root set and its cyclic order, distribute the
    other vertices, and hang a subtree off each root's first k-1 slots."""
    if k < 2 or n < 1:
        raise ValueError("enumerate_cycle_rooted needs k >= 2 and n >= 1")
    check_cap(catalan.count_ornaments(k, n), max_count, "cycle-rooted trees")
    verts = tuple(range(1, n + 1))
    hanging_slots = tuple(range(k - 1))
    for size in range(1, n + 1):
        for chosen in itertools.combinations(verts, size):
            for order in itertools.permutations(chosen[1:]):
                cycle = (chosen[0],) + order
                rest = [v for v in verts if v not in chosen]
                for assign in itertools.product(range(size), repeat=len(rest)):
                    groups: dict[int, list[int]] = {r: [r] for r in cycle}
                    for v, gi in zip(rest, assign):
                        groups[cycle[gi]].append(v)
                    per_root = [
                        list(
                            _slot_tables(k, tuple(sorted(groups[r])), r, hanging_slots)
                        )
                        for r in cycle
                    ]
                    for combo in itertools.product(*per_root):
                        table: Table = {}
                        for sub in combo:
                            table.update(sub)
                        yield CycleRootedTree(k, cycle, table)


def enumerate_cycle_rooted(
    k: int, n: int, max_count: int | None = DEFAULT_MAX_ENUMERATION
) -> list[CycleRootedTree]:
    """Every cycle-rooted tree on labels 1..n, sorted by cycle, then by slot
    table."""
    return sorted(_cycle_rooted(k, n, max_count), key=lambda c: (c.cycle, _slots_key(c.slots)))
