"""The one-pass constructor checks against the multi-pass checks they
replaced, kept here as reference functions.

Inputs are valid structures and near misses of them: every slot of a
tree set to a vacancy, to each vertex or to an absent label, and every
multiplicity moved by one. Old and new must accept or reject together,
and store the same table when they accept.
"""

import itertools

import pytest

from catlog.multisets import CyclicMultiset, enumerate_multisets
from catlog.trees import (
    CycleRootedTree,
    PlaneTree,
    enumerate_cycle_rooted,
    enumerate_trees,
    slot_walk,
)


def reference_normalize_slots(k, slots):
    rows = []
    items = slots.items() if isinstance(slots, dict) else slots
    for v, row in items:
        row = tuple(row)
        if len(row) != k:
            raise ValueError(f"slot array of vertex {v} must have length {k}")
        rows.append((int(v), row))
    rows.sort()
    return tuple(rows)


def reference_check_forest(k, roots, slots):
    verts = [v for v, _ in slots]
    vs = set(verts)
    if len(vs) != len(verts):
        raise ValueError("duplicate vertex in the slot table")
    if any(v < 1 for v in vs):
        raise ValueError("vertices must be positive integers")
    if not set(roots) <= vs:
        raise ValueError("a root is missing from the slot table")
    occupants = [c for _, row in slots for c in row if c is not None]
    if len(set(occupants)) != len(occupants):
        raise ValueError("a vertex occupies two slots")
    if set(occupants) != vs - set(roots):
        raise ValueError("slot occupants must be exactly the non-root vertices")
    table = dict(slots)
    seen = set(roots)
    for r in roots:
        seen.update(c for _, _, c in slot_walk(table, r) if c is not None)
    if seen != vs:
        raise ValueError("not every vertex hangs below a root")


def reference_tree_slots(k, roots, slots, cycle_rooted):
    slots = reference_normalize_slots(k, slots)
    reference_check_forest(k, roots, slots)
    if cycle_rooted and any(dict(slots)[r][k - 1] is not None for r in roots):
        raise ValueError("the rightmost slot of a cycle vertex must stay vacant")
    return slots


def reference_multiset_f(k, cycle, f):
    items = f.items() if isinstance(f, dict) else f
    rows = sorted((int(v), tuple(int(x) for x in vec)) for v, vec in items)
    if {v for v, _ in rows} != set(cycle):
        raise ValueError("multiplicities must cover exactly the cycle labels")
    for v, vec in rows:
        if len(vec) != k - 1:
            raise ValueError(f"multiplicity vector of {v} must have length k-1")
        if any(x < 0 for x in vec):
            raise ValueError("multiplicities must be nonnegative")
    if sum(x for _, vec in rows for x in vec) != len(cycle):
        raise ValueError("multiplicities do not sum to the label count")
    return tuple(rows)


def outcome(build):
    """What a check stores, or None when it rejects with a ValueError."""
    try:
        return build()
    except ValueError:
        return None


def both_forms(table):
    """A slot or multiplicity table as a dict and as pairs in reverse order."""
    return table, tuple(reversed(table.items()))


def slot_mutations(t, n):
    """The table of t, then every table that differs from it in one slot
    (vacant, any vertex, or the absent label n + 1), then every table
    with the contents of two slots swapped."""
    yield dict(t.slots)
    cells = [(v, q) for v, _ in t.slots for q in range(t.k)]
    for v, q in cells:
        for value in [None, *range(1, n + 2)]:
            if value != t.slot_map[v][q]:
                table = dict(t.slots)
                table[v] = table[v][:q] + (value,) + table[v][q + 1 :]
                yield table
    for (v, q), (w, s) in itertools.combinations(cells, 2):
        table = dict(t.slots)
        a, b = table[v][q], table[w][s]
        table[v] = table[v][:q] + (b,) + table[v][q + 1 :]
        table[w] = table[w][:s] + (a,) + table[w][s + 1 :]
        yield table


POINTS = [(2, 3), (3, 3), (4, 2)]


@pytest.mark.parametrize("k, n", POINTS)
def test_plane_trees_agree(k, n):
    accepted = rejected = 0
    for t in enumerate_trees(k, range(1, n + 1)):
        for table in slot_mutations(t, n):
            for slots in both_forms(table):
                old = outcome(lambda: reference_tree_slots(k, (t.root,), slots, False))
                new = outcome(lambda: PlaneTree(k, t.root, slots).slots)
                assert old == new, (t.root, slots)
                accepted += new is not None
                rejected += new is None
    assert accepted and rejected


@pytest.mark.parametrize("k, n", POINTS)
def test_cycle_rooted_trees_agree(k, n):
    accepted = rejected = 0
    for c in enumerate_cycle_rooted(k, n):
        for table in slot_mutations(c, n):
            for slots in both_forms(table):
                old = outcome(lambda: reference_tree_slots(k, c.cycle, slots, True))
                new = outcome(lambda: CycleRootedTree(k, c.cycle, slots).slots)
                assert old == new, (c.cycle, slots)
                accepted += new is not None
                rejected += new is None
    assert accepted and rejected


def multiplicity_mutations(m):
    """The table of m, every table with one entry changed by +-1, and every
    table with one unit moved from one entry to another."""
    yield dict(m.f)
    cells = [(v, q) for v, vec in m.f for q in range(len(vec))]

    def bumped(table, v, q, d):
        table[v] = table[v][:q] + (table[v][q] + d,) + table[v][q + 1 :]

    for (v, q), d in itertools.product(cells, (1, -1)):
        table = dict(m.f)
        bumped(table, v, q, d)
        yield table
    for (v, q), (w, s) in itertools.permutations(cells, 2):
        table = dict(m.f)
        bumped(table, v, q, -1)
        bumped(table, w, s, 1)
        yield table


@pytest.mark.parametrize("k, n", [(2, 3), (3, 2)])
def test_multisets_agree(k, n):
    accepted = rejected = 0
    for m in enumerate_multisets(k, n):
        for table in multiplicity_mutations(m):
            for f in both_forms(table):
                old = outcome(lambda: reference_multiset_f(k, m.cycle, f))
                new = outcome(lambda: CyclicMultiset(k, m.cycle, f).f)
                assert old == new, (m.cycle, f)
                accepted += new is not None
                rejected += new is None
    assert accepted and rejected
