"""Rooted plane k-ary trees, root-minimal forests, and cycle-rooted trees.

Every vertex owns k ordered slots, each vacant or holding one child; the
k-th slot is the rightmost. The rightmost branch (root, then repeatedly
the k-th slot occupant) plays the role the diagonal plays for paths:
cutting it where the labels drop yields a forest of root-minimal trees,
and bending it into a cycle yields a cycle-rooted tree.
"""

from __future__ import annotations

from . import catalan
from ._trusted import Record, trusted
from .errors import (DEFAULT_MAX_ENUMERATION, check_cap, check_ints, check_labels,
                     check_pairs, check_parts, check_stored)

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


def _check_cycle(cycle) -> tuple[int, ...]:
    """A root cycle as stored: nonempty, distinct positive integer labels,
    minimal label first. Returns it as a tuple (a stored tuple as itself)."""
    try:
        cycle = tuple(cycle)
        repeats = len(set(cycle)) != len(cycle)
    except TypeError:  # not iterable, or a label that cannot be hashed (refused below)
        repeats = type(cycle) is not tuple
    if not cycle or repeats:
        raise ValueError("the cycle must be a nonempty list of distinct labels")
    if set(map(type, cycle)) != {int} or min(cycle) < 1:
        raise ValueError("cycle labels must be positive integers")
    if cycle[0] != min(cycle):
        raise ValueError("the cycle must be stored starting at its minimal label")
    return cycle


def slot_walk(table, root: int):
    """Every slot below `root` in the slot table as (depth, slot, occupant):
    depth first, leftmost slot first, the root's own slots at depth 1, None
    for a vacancy. Iterative, so deep trees need no recursion."""
    stack = [enumerate(table[root])]  # one open row per level
    while stack:
        for q, child in stack[-1]:
            yield len(stack), q, child
            if child is not None:
                stack.append(enumerate(table[child]))
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


def _slot_table(k: int, roots: tuple[int, ...], slots, stored: bool) -> Table:
    """Walk from `roots` meeting each occupant once: a k-ary forest with
    exactly these roots passes. `stored` slots are checked as the stored
    table; otherwise they are read, a dict or (vertex, row) pairs, in one loop."""
    if stored:
        table = check_stored(slots, k)
    else:
        table = {}
        for v, row in check_pairs(slots, "slots must be a dict or (vertex, row) pairs"):
            try:
                row = tuple(row)
            except TypeError:  # no row at all: refused for its length
                row = ()
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
    return table


def _check_tree(k, root, slots, stored=False) -> Table:
    """The checks of a plane tree, in order; `stored` as in _slot_table."""
    check_ints("trees need an integer k >= 2", (k, 2))
    if type(root) is not int:
        raise ValueError("the root must be a positive integer")
    return _slot_table(k, (root,), slots, stored)


def _check_forest(parts, stored=False) -> frozenset:
    """The checks of a root-minimal forest over its PlaneTree parts, in one
    loop (check_parts); with `stored`, each part's `_check_tree(..., True)`
    on its own table in that loop too: no part names another part's vertex."""
    return check_parts(parts, stored, PlaneTree,
                       lambda t: _check_tree(t.k, t.root, t.slots, True),
                       is_root_minimal, "slots", (
                           "the parts of a forest must be a collection of PlaneTree",
                           "a forest holds at least one tree",
                           "all trees of a forest must share the same k",
                           "every tree of the forest must be root-minimal",
                           "vertex sets of forest trees must be disjoint"))


def _check_cycle_tree(k, cycle, slots, stored=False):
    """The checks of a cycle-rooted tree, in order; `stored` as in _slot_table."""
    check_ints("trees need an integer k >= 2", (k, 2))
    cycle = _check_cycle(cycle)
    table = _slot_table(k, cycle, slots, stored)
    for r in cycle:
        if table[r][k - 1] is not None:
            raise ValueError("the rightmost slot of a cycle vertex must stay vacant")
    return cycle, table


class _SlotTable(Record):
    """A tree structure whose `slots` field holds its checked slot table,
    a dict by increasing vertex."""

    def _keep(self, table: Table) -> None:
        object.__setattr__(self, "slots", dict(sorted(table.items())))

    @property
    def n(self) -> int:
        return len(self.slots)


class PlaneTree(_SlotTable):
    k: int
    root: int
    slots: dict[int, tuple[int | None, ...]]

    def __post_init__(self):
        self._keep(_check_tree(self.k, self.root, self.slots))


class RootMinimalForest(Record):
    parts: frozenset[PlaneTree]

    def __post_init__(self):
        object.__setattr__(self, "parts", _check_forest(self.parts))

    @property
    def k(self) -> int:
        return next(iter(self.parts)).k


class CycleRootedTree(_SlotTable):
    """A clockwise cycle of roots with vacant rightmost slots, each root
    carrying a hanging plane k-ary subtree.

    The cycle is stored in canonical rotation: minimal label first, the
    successor in the tuple being the clockwise neighbor.
    """

    k: int
    cycle: tuple[int, ...]
    slots: dict[int, tuple[int | None, ...]]

    def __post_init__(self):
        cycle, table = _check_cycle_tree(self.k, self.cycle, self.slots)
        object.__setattr__(self, "cycle", cycle)
        self._keep(table)


def rightmost_branch(t: PlaneTree) -> list[int]:
    """The root, then repeatedly the occupant of the rightmost slot."""
    out = [t.root]
    while True:
        nxt = t.slots[out[-1]][t.k - 1]
        if nxt is None:
            return out
        out.append(nxt)


def is_root_minimal(t: PlaneTree) -> bool:
    """True when no rightmost-branch vertex undercuts the root; stops at the first that does."""
    v = t.root
    while (v := t.slots[v][t.k - 1]) is not None:
        if v < t.root:
            return False
    return True


def _slot_search(k: int, labels: tuple[int, ...], roots, hold_rightmost: bool):
    """The slot tables, as the constructors store them, of every k-ary
    forest on the sorted `labels` whose roots are `roots`, sorted by
    their rows read in vertex order with a vacancy before any occupant;
    `hold_rightmost` keeps the roots' rightmost slots vacant.

    Backtracking over the open slots in that order, in O(nk) state: a slot
    tries vacancy, unless the slots left could not hold every unplaced
    vertex, then each unplaced non-root vertex in increasing order but the
    top of its row's chain of parents, which would close a cycle."""
    n = len(labels)
    parent = [-2 if v in roots else -1 for v in labels]  # -2 a root, -1 unplaced
    open_at = [i * k + q for i in range(n) for q in range(k)
               if not (hold_rightmost and parent[i] == -2 and q == k - 1)]
    out: list[int | None] = [None] * (n * k)  # the rows, one after another
    choice = [-2] * (len(open_at) + 1)  # -2 untried, -1 vacant, else a vertex index
    pos = 0
    while pos >= 0:
        c = choice[pos]
        if c >= 0:  # take back the vertex placed here
            parent[c] = -1
        elif c == -2 and -1 not in parent:  # a table: the slots left stay vacant
            yield dict(zip(labels, zip(*[iter(out)] * k)))
            pos -= 1
            continue
        elif c == -2 and parent.count(-1) < len(open_at) - pos:  # room stays for the rest
            choice[pos] = -1
            pos += 1
            continue
        top = row = open_at[pos] // k
        while parent[top] >= 0:
            top = parent[top]
        for c in range(c + 1 if c >= 0 else 0, n):
            if parent[c] == -1 and c != top:
                break
        else:  # no vertex is left to try here: vacant and untried again
            choice[pos] = -2
            out[open_at[pos]] = None
            pos -= 1
            continue
        parent[c] = row
        choice[pos] = c
        out[open_at[pos]] = labels[c]
        pos += 1


def _trees(k: int, labels, max_count):
    """The plane k-ary trees on a label set in enumerate_trees order: the
    arguments checked once, on entry, each tree built by `trusted`."""
    base = check_labels(k, labels, "enumerate_trees")
    check_cap(catalan.count_paths(k, len(base)), max_count, "plane trees")
    for root in base:
        for table in _slot_search(k, base, (root,), False):
            yield trusted(PlaneTree, k=k, root=root, slots=table)


def enumerate_trees(
    k: int, labels, max_count: int | None = DEFAULT_MAX_ENUMERATION
) -> list[PlaneTree]:
    """Every plane k-ary tree on the given label set, any root: by root,
    then by the rows read in vertex order, a vacancy before any occupant."""
    return list(_trees(k, labels, max_count))


def tree_to_forest(t: PlaneTree, branch=None) -> RootMinimalForest:
    """Cut the rightmost branch, `branch` if given, wherever the next vertex
    undercuts the root of the piece being built; every piece comes out
    root-minimal. A root-minimal tree is cut nowhere: its forest holds t itself."""
    roots = [t.root]
    cuts = {}
    branch = branch or rightmost_branch(t)
    for cur, nxt in zip(branch, branch[1:]):
        if nxt < roots[-1]:
            cuts[cur] = None
            roots.append(nxt)
    if len(roots) == 1:
        return trusted(RootMinimalForest, parts=frozenset({t}))
    table = _relink(t.k, t.slots, cuts)
    parts = []
    for r in roots:
        part = {}
        stack = [r]
        while stack:  # every vertex below r, in any order: the part is sorted next
            v = stack.pop()
            part[v] = row = table[v]
            stack.extend(filter(None, row))  # the occupants; vertices are positive
        parts.append(trusted(PlaneTree, k=t.k, root=r, slots=dict(sorted(part.items()))))
    return trusted(RootMinimalForest, parts=frozenset(parts))


def forest_to_tree(f: RootMinimalForest) -> PlaneTree:
    """Inverse of tree_to_forest: glue the trees in decreasing root order,
    each root into the vacant rightmost slot ending the previous branch.
    A one-part forest glues into its part itself."""
    if len(f.parts) == 1:
        return next(iter(f.parts))
    parts = sorted(f.parts, key=lambda t: t.root, reverse=True)
    rows = sorted(row for t in parts for row in t.slots.items())
    links = {}
    for a, b in zip(parts, parts[1:]):  # the end of a's rightmost branch, then b
        v = a.root
        while (nxt := a.slots[v][f.k - 1]) is not None:
            v = nxt
        links[v] = b.root
    return trusted(PlaneTree, k=f.k, root=parts[0].root, slots=_relink(f.k, rows, links))


def to_cycle_rooted(t: PlaneTree, branch=None) -> CycleRootedTree:
    """Bend the rightmost branch of a root-minimal tree, `branch` if given,
    into the root cycle; branch order becomes clockwise order."""
    branch = tuple(branch or rightmost_branch(t))
    if min(branch) != t.root:
        raise ValueError("only a root-minimal tree bends into a cycle")
    table = _relink(t.k, t.slots, dict.fromkeys(branch))
    return trusted(CycleRootedTree, k=t.k, cycle=branch, slots=table)


def to_root_minimal(c: CycleRootedTree) -> PlaneTree:
    """Open the root cycle before its minimal vertex; the cycle becomes the
    rightmost branch of a root-minimal tree."""
    links = dict(zip(c.cycle, c.cycle[1:]))
    return trusted(PlaneTree, k=c.k, root=c.cycle[0], slots=_relink(c.k, c.slots, links))


def _cycle_rooted(k: int, n: int, max_count):
    """The cycle-rooted trees on labels 1..n in enumerate_cycle_rooted
    order: each cycle, minimal label first, as the roots of the slot search;
    the arguments checked once, on entry, each tree built by `trusted`."""
    check_ints("enumerate_cycle_rooted needs k >= 2 and n >= 1", (k, 2), (n, 1))
    check_cap(catalan.count_ornaments(k, n), max_count, "cycle-rooted trees")
    labels = tuple(range(1, n + 1))
    stack = [(v,) for v in reversed(labels)]
    while stack:  # the cycles in tuple order: each before its extensions
        cycle = stack.pop()
        stack += [cycle + (v,) for v in range(n, cycle[0], -1) if v not in cycle]
        for table in _slot_search(k, labels, cycle, True):
            yield trusted(CycleRootedTree, k=k, cycle=cycle, slots=table)


def enumerate_cycle_rooted(
    k: int, n: int, max_count: int | None = DEFAULT_MAX_ENUMERATION
) -> list[CycleRootedTree]:
    """Every cycle-rooted tree on labels 1..n, by cycle tuple, then by the
    rows read in vertex order as in enumerate_trees."""
    return list(_cycle_rooted(k, n, max_count))
