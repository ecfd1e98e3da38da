"""Checks against the checks they replaced, kept here as reference
functions: the one-pass constructor checks against multi-pass ones, and
verify's in-place check of a stored structure against rebuilding it
through the public constructors.

Inputs are valid structures and near misses of them: every slot of a
tree set to a vacancy, to each vertex or to an absent label, every
multiplicity moved by one, and fields stored with a wrong type or out of
order. Old and new must accept or reject together, and store the same
table when they accept.
"""

import itertools
from collections import Counter

import pytest

from catlog import verify
from catlog._trusted import trusted
from catlog.multisets import (
    CyclicMultiset,
    cycle_tree_to_multiset,
    enumerate_multisets,
    multiset_to_cycle_tree,
    multiset_to_ornament,
    ornament_to_multiset,
)
from catlog.paths import (
    GoodPath,
    MinimalField,
    decompose,
    enumerate_fields,
    enumerate_ornaments,
    enumerate_paths,
    recompose,
    rotations,
)
from catlog.trees import (
    CycleRootedTree,
    PlaneTree,
    RootMinimalForest,
    enumerate_cycle_rooted,
    enumerate_trees,
    forest_to_tree,
    is_root_minimal,
    slot_walk,
    to_cycle_rooted,
    to_root_minimal,
    tree_to_forest,
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
    cells = [(v, q) for v in t.slots for q in range(t.k)]
    for v, q in cells:
        for value in [None, *range(1, n + 2)]:
            if value != t.slots[v][q]:
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
                new = outcome(lambda: tuple(PlaneTree(k, t.root, slots).slots.items()))
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
                new = outcome(lambda: tuple(CycleRootedTree(k, c.cycle, slots).slots.items()))
                assert old == new, (c.cycle, slots)
                accepted += new is not None
                rejected += new is None
    assert accepted and rejected


def multiplicity_mutations(m):
    """The table of m, every table with one entry changed by +-1, and every
    table with one unit moved from one entry to another."""
    yield dict(m.f)
    cells = [(v, q) for v, vec in m.f.items() for q in range(len(vec))]

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
                new = outcome(lambda: tuple(CyclicMultiset(k, m.cycle, f).f.items()))
                assert old == new, (m.cycle, f)
                accepted += new is not None
                rejected += new is None
    assert accepted and rejected


# -- verify's in-place check against the rebuild it replaced -----------------------


def rebuilt(x):
    """x built again by the public constructors from its stored fields,
    parts first; a value that is no structure stays as it is."""
    return REBUILD.get(type(x), lambda y: y)(x)


REBUILD = {
    GoodPath: lambda p: GoodPath(p.k, p.steps, p.labels),
    MinimalField: lambda f: MinimalField(frozenset(map(rebuilt, f.parts))),
    PlaneTree: lambda t: PlaneTree(t.k, t.root, t.slots),
    RootMinimalForest: lambda f: RootMinimalForest(frozenset(map(rebuilt, f.parts))),
    CycleRootedTree: lambda c: CycleRootedTree(c.k, c.cycle, c.slots),
    CyclicMultiset: lambda m: CyclicMultiset(m.k, m.cycle, m.f),
}


def rebuild_verdict(x) -> bool:
    """verify's verdict before it checked in place: x equals its rebuild."""
    try:
        return rebuilt(x) == x
    except ValueError:
        return False


def verdicts(structures) -> Counter:
    """How often each verdict came, once verify._valid has given the
    rebuild's verdict on every structure, without raising."""
    seen = Counter()
    for x in structures:
        want = rebuild_verdict(x)
        assert verify._valid(x) is want, x
        seen[want] += 1
    return seen


def grid_structures(k, n):
    """Every enumerated structure of one grid point and every bijection
    image verify reads."""
    labels = range(1, n + 1)
    for p in enumerate_paths(k, labels):
        f = decompose(p)
        yield from (p, f, recompose(f), *rotations(p))
    for a in range(1, n + 1):
        yield from enumerate_fields(k, n, a)
    for t in enumerate_trees(k, labels):
        f = tree_to_forest(t)
        yield from (t, f, forest_to_tree(f))
        if is_root_minimal(t):
            c = to_cycle_rooted(t)
            yield from (c, to_root_minimal(c))
    for c in enumerate_cycle_rooted(k, n):
        m = cycle_tree_to_multiset(c)
        yield from (c, m, multiset_to_cycle_tree(m))
    for o in enumerate_ornaments(k, n):
        m = ornament_to_multiset(o)
        yield from (o.rep, m, multiset_to_ornament(m).rep, multiset_to_cycle_tree(m))
    yield from enumerate_multisets(k, n)


ACCEPTANCE = [(2, n) for n in range(1, 6)] + [(3, n) for n in range(1, 5)] + [(4, n) for n in range(1, 4)]


@pytest.mark.parametrize("k, n", ACCEPTANCE)
def test_in_place_check_accepts_the_grid(k, n):
    assert set(verdicts(grid_structures(k, n))) == {True}


def stored_tree(cls, k, head, table):
    """A tree holding `head` and `table` (a dict) as the constructor
    stores them, unchecked."""
    head = {"root": head} if cls is PlaneTree else {"cycle": head}
    return trusted(cls, k=k, **head, slots=dict(sorted(table.items())))


def stored_multiset(k, cycle, f):
    return trusted(CyclicMultiset, k=k, cycle=cycle, f=dict(sorted(f.items())))


@pytest.mark.parametrize("k, n", POINTS)
def test_in_place_check_agrees_on_every_slot_mutation(k, n):
    seen = verdicts(stored_tree(cls, k, head, table)
                    for x, cls, head in itertools.chain(
                        ((t, PlaneTree, t.root) for t in enumerate_trees(k, range(1, n + 1))),
                        ((c, CycleRootedTree, c.cycle) for c in enumerate_cycle_rooted(k, n)))
                    for table in slot_mutations(x, n))
    assert seen[True] and seen[False]


@pytest.mark.parametrize("k, n", [(2, 3), (3, 2)])
def test_in_place_check_agrees_on_every_multiplicity_mutation(k, n):
    seen = verdicts(stored_multiset(k, m.cycle, table)
                    for m in enumerate_multisets(k, n) for table in multiplicity_mutations(m))
    assert seen[True] and seen[False]


P = GoodPath(2, "RRUU", (1, 2))
Q = GoodPath(2, "RU", (3,))
T = PlaneTree(2, 1, {1: (2, None), 2: (None, None)})
U = PlaneTree(2, 3, {3: (None, None)})
C = CycleRootedTree(2, (1, 2), {1: (3, None), 2: (None, None), 3: (None, None)})
M = CyclicMultiset(2, (1, 2), {1: (2,), 2: (0,)})


def with_fields(x, **fields):
    """x with some stored fields replaced, unchecked."""
    return trusted(type(x), **{**vars(x), **fields})


# near misses of each kind, and the verdict the rebuild gives them
NEAR_MISSES = {
    "path": (P, True),
    "path-labels-list": (with_fields(P, labels=[1, 2]), False),
    "path-labels-bool": (with_fields(P, labels=(True, 2)), False),
    "path-labels-float": (with_fields(P, labels=(1.0, 2)), False),
    "path-labels-repeat": (with_fields(P, labels=(1, 1)), False),
    "path-steps-list": (with_fields(P, steps=list("RRUU")), False),
    "path-steps-bytes": (with_fields(P, steps=b"RRUU"), False),
    "path-steps-short": (with_fields(P, steps="RU"), False),
    "path-k-float": (with_fields(P, k=2.0), False),
    "path-k-bool": (with_fields(Q, k=True), False),
    "field-set": (trusted(MinimalField, parts={P, Q}), True),
    "field-list": (trusted(MinimalField, parts=[P, Q]), False),
    "field-tuple": (trusted(MinimalField, parts=(P, Q)), False),
    "field-part-tree": (trusted(MinimalField, parts=frozenset({P, T})), False),
    "field-part-int": (trusted(MinimalField, parts=frozenset({P, 5})), False),
    "field-part-list-labels": (trusted(MinimalField, parts=[with_fields(P, labels=[1, 2])]),
                               False),
    "field-overlap": (trusted(MinimalField, parts=frozenset({P, with_fields(Q, labels=(2,))})),
                      False),
    "field-part-not-minimal": (trusted(MinimalField, parts=frozenset({
        GoodPath(2, "RURU", (2, 1))})), False),
    "field-empty": (trusted(MinimalField, parts=frozenset()), False),
    "tree": (T, True),
    "tree-slots-list": (with_fields(T, slots=list(T.slots.items())), False),
    "tree-slots-none": (with_fields(T, slots=None), False),
    "tree-rows-list": (stored_tree(PlaneTree, 2, 1, {1: [2, None], 2: [None, None]}), False),
    "tree-rows-unsorted": (with_fields(T, slots=dict(reversed(T.slots.items()))), False),
    "tree-row-short": (stored_tree(PlaneTree, 2, 1, {1: (2,), 2: (None, None)}), False),
    "tree-vertex-bool": (stored_tree(PlaneTree, 2, 1, {True: (None, None)}), False),
    "tree-vertex-float": (stored_tree(PlaneTree, 2, 1, {1.0: (None, None)}), False),
    "tree-vertex-zero": (stored_tree(PlaneTree, 2, 1, {0: (None, None), 1: (0, None)}),
                         False),
    "tree-occupant-bool": (stored_tree(PlaneTree, 2, 1, {1: (True, None)}), False),
    "tree-loose-vertex": (stored_tree(PlaneTree, 2, 1, {**T.slots, 3: (None, None)}),
                          False),
    "tree-root-bool": (with_fields(T, root=True), False),
    "tree-k-float": (with_fields(T, k=2.0), False),
    "tree-k-str": (with_fields(T, k="2"), False),
    "forest-set": (trusted(RootMinimalForest, parts={T, U}), True),
    "forest-list": (trusted(RootMinimalForest, parts=[T, U]), False),
    "forest-part-path": (trusted(RootMinimalForest, parts=frozenset({T, P})), False),
    "forest-overlap": (trusted(RootMinimalForest, parts=frozenset({T, PlaneTree(
        2, 2, {2: (None, None)})})), False),
    "forest-part-loose-vertex": (trusted(RootMinimalForest, parts=frozenset({stored_tree(
        PlaneTree, 2, 1, {1: (None, None), 2: (None, None)})})), False),
    "forest-part-not-root-minimal": (trusted(RootMinimalForest, parts=frozenset({
        PlaneTree(2, 2, {1: (None, None), 2: (None, 1)})})), False),
    "cycle-tree": (C, True),
    "cycle-tree-cycle-list": (with_fields(C, cycle=[1, 2]), False),
    "cycle-tree-slots-list": (with_fields(C, slots=list(C.slots.items())), False),
    "cycle-tree-slots-none": (with_fields(C, slots=None), False),
    "cycle-tree-rows-unsorted": (with_fields(C, slots=dict(reversed(C.slots.items()))), False),
    "cycle-tree-cycle-rotated": (with_fields(C, cycle=(2, 1)), False),
    "cycle-tree-cycle-bool": (with_fields(C, cycle=(True, 2)), False),
    "cycle-tree-rightmost-taken": (stored_tree(CycleRootedTree, 2, (1,), {
        1: (None, 2), 2: (None, None)}), False),
    "cycle-tree-loose-vertex": (stored_tree(CycleRootedTree, 2, (1, 2), {
        1: (None, None), 2: (None, None), 3: (None, None)}), False),
    "multiset": (M, True),
    "multiset-cycle-list": (with_fields(M, cycle=[1, 2]), False),
    "multiset-cycle-rotated": (with_fields(M, cycle=(2, 1)), False),
    "multiset-cycle-float": (stored_multiset(2, (1.0, 2), {1: (2,), 2: (0,)}), False),
    "multiset-vectors-list": (stored_multiset(2, (1, 2), {1: [2], 2: [0]}), False),
    "multiset-entry-float": (stored_multiset(2, (1, 2), {1: (2.0,), 2: (0,)}), False),
    "multiset-entry-bool": (stored_multiset(2, (1, 2), {1: (True,), 2: (True,)}), False),
    "multiset-entry-negative": (stored_multiset(2, (1, 2), {1: (3,), 2: (-1,)}), False),
    "multiset-label-bool": (stored_multiset(2, (1, 2), {True: (2,), 2: (0,)}), False),
    "multiset-f-unsorted": (with_fields(M, f=dict(reversed(M.f.items()))), False),
    "multiset-f-list": (with_fields(M, f=list(M.f.items())), False),
    "multiset-f-none": (with_fields(M, f=None), False),
    "multiset-k-float": (with_fields(M, k=2.0), False),
    "multiset-k-str": (with_fields(M, k="2"), False),
}


@pytest.mark.parametrize("which", NEAR_MISSES)
def test_in_place_check_agrees_on_near_misses(which):
    x, want = NEAR_MISSES[which]
    assert verdicts([x]) == {want: 1}
