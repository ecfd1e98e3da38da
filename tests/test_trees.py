import pytest

from catlog.catalan import count_ornaments, count_paths
from catlog.errors import ResourceCapError
from catlog.trees import (
    CycleRootedTree,
    PlaneTree,
    RootMinimalForest,
    canonical_cycle,
    enumerate_cycle_rooted,
    enumerate_trees,
    forest_to_tree,
    is_root_minimal,
    rightmost_branch,
    slot_walk,
    to_cycle_rooted,
    to_root_minimal,
    tree_to_forest,
)

GRID = [(2, n) for n in range(1, 6)] + [(3, n) for n in range(1, 5)] + [(4, n) for n in range(1, 4)]


def tree(k, root, slots):
    return PlaneTree(k, root, slots)


def leaf_row(k):
    return (None,) * k


class TestValidation:
    def test_row_length(self):
        with pytest.raises(ValueError):
            tree(2, 1, {1: (None,)})

    def test_child_in_two_slots(self):
        with pytest.raises(ValueError, match="vertex 2 occupies two slots"):
            tree(2, 1, {1: (2, 2), 2: leaf_row(2)})

    def test_root_cannot_be_a_child(self):
        with pytest.raises(ValueError, match="root 1 sits in a slot"):
            tree(2, 1, {1: (2, 1), 2: leaf_row(2)})
        with pytest.raises(ValueError, match="root 2 sits in a slot"):
            CycleRootedTree(2, (1, 2), {1: (2, None), 2: leaf_row(2)})

    def test_unreachable_vertices(self):
        with pytest.raises(ValueError, match="vertex 2 hangs below no root"):
            tree(2, 1, {1: leaf_row(2), 2: (3, None), 3: (2, None)})

    def test_occupant_without_slot_array(self):
        with pytest.raises(ValueError, match="vertex 2 sits in a slot"):
            tree(2, 1, {1: (2, None)})

    def test_root_missing(self):
        with pytest.raises(ValueError, match="root 1 is missing"):
            tree(2, 1, {2: leaf_row(2)})

    def test_vertex_named_twice_in_pair_form(self):
        rows = ((1, (2, None)), (2, leaf_row(2)), (2, leaf_row(2)))
        with pytest.raises(ValueError, match="slots names vertex 2 twice"):
            tree(2, 1, rows)
        with pytest.raises(ValueError, match="slots names vertex 2 twice"):
            CycleRootedTree(2, (1,), rows)
        # rows that cannot be ordered against each other (None against 2)
        with pytest.raises(ValueError, match="slots names vertex 1 twice"):
            tree(2, 1, ((1, (None, 2)), (1, (2, None)), (2, leaf_row(2))))

    @pytest.mark.parametrize("build, match", [
        (lambda: tree(2, 1, {1.5: leaf_row(2)}), "vertices must be positive integers"),
        (lambda: tree(2, 1, {1.0: leaf_row(2)}), "vertices must be positive integers"),
        (lambda: tree(2, True, {1: leaf_row(2)}), "the root must be a positive integer"),
        (lambda: tree(2, 1, {1: (2.0, None), 2: leaf_row(2)}),
         "a slot holds a vertex or None, not 2.0"),
        (lambda: tree(2.0, 1, {1: leaf_row(2)}), "trees need an integer k >= 2"),
        (lambda: CycleRootedTree(2, (1,), {1: (2.0, None), 2: leaf_row(2)}),
         "a slot holds a vertex or None, not 2.0"),
        (lambda: CycleRootedTree(2.0, (1,), {1: leaf_row(2)}), "trees need an integer k >= 2"),
    ], ids=["float-vertex", "integral-float-vertex", "bool-root", "float-occupant", "float-k",
            "cycle-tree-float-occupant", "cycle-tree-float-k"])
    def test_floats_and_bools_are_not_ints(self, build, match):
        # each used to be truncated (or compared equal) and build
        with pytest.raises(ValueError, match=match):
            build()

    def test_cycle_tree_needs_vacant_rightmost(self):
        with pytest.raises(ValueError):
            CycleRootedTree(2, (1,), {1: (None, 2), 2: leaf_row(2)})

    def test_cycle_stored_canonically(self):
        with pytest.raises(ValueError):
            CycleRootedTree(2, (2, 1), {1: leaf_row(2), 2: leaf_row(2)})

    def test_canonical_cycle_helper(self):
        assert canonical_cycle((3, 1, 2)) == (1, 2, 3)
        assert canonical_cycle((1,)) == (1,)
        with pytest.raises(ValueError, match="^empty cycle$"):
            canonical_cycle([])


class TestRightmostBranch:
    def test_single_vertex(self):
        assert rightmost_branch(tree(2, 1, {1: leaf_row(2)})) == [1]

    def test_follows_last_slot(self):
        t = tree(2, 1, {1: (None, 3), 3: leaf_row(2)})
        assert rightmost_branch(t) == [1, 3]

    def test_ignores_other_slots(self):
        t = tree(2, 2, {2: (1, None), 1: leaf_row(2)})
        assert rightmost_branch(t) == [2]


class TestSlotWalk:
    def test_depth_first_leftmost_first(self):
        t = tree(2, 1, {1: (2, 3), 2: (None, 4), 3: leaf_row(2), 4: leaf_row(2)})
        assert list(slot_walk(t.slots, 1)) == [
            (1, 0, 2), (2, 0, None), (2, 1, 4), (3, 0, None), (3, 1, None),
            (1, 1, 3), (2, 0, None), (2, 1, None),
        ]

    def test_deep_chain_needs_no_recursion(self):
        n = 5000
        table = {v: (v + 1, None) for v in range(1, n)}
        table[n] = leaf_row(2)
        t = tree(2, 1, table)
        depths = [d for d, q, c in slot_walk(t.slots, 1) if c is not None]
        assert depths == list(range(1, n))


class TestRootMinimal:
    def test_single_vertex(self):
        assert is_root_minimal(tree(2, 1, {1: leaf_row(2)}))

    def test_bigger_vertex_below(self):
        assert is_root_minimal(tree(2, 1, {1: (None, 3), 3: leaf_row(2)}))

    def test_smaller_vertex_below(self):
        assert not is_root_minimal(tree(2, 2, {2: (None, 1), 1: leaf_row(2)}))

    def test_left_children_do_not_matter(self):
        assert is_root_minimal(tree(2, 2, {2: (1, None), 1: leaf_row(2)}))

    @pytest.mark.parametrize("k, n", [(2, 4), (3, 3), (4, 2)])
    def test_is_the_branch_minimum(self, k, n):
        for t in enumerate_trees(k, range(1, n + 1)):
            branch = rightmost_branch(t)
            assert is_root_minimal(t) == (t.root == min(branch))
            assert tree_to_forest(t, branch) == tree_to_forest(t)
            if is_root_minimal(t):
                assert to_cycle_rooted(t, branch) == to_cycle_rooted(t)


class TestEnumerateTrees:
    def test_singleton(self):
        assert len(enumerate_trees(2, {1})) == 1

    def test_two_vertices_binary(self):
        got = enumerate_trees(2, {1, 2})
        assert len(got) == 4
        shapes = {(t.root, t.slots[t.root]) for t in got}
        assert shapes == {(1, (2, None)), (1, (None, 2)), (2, (1, None)), (2, (None, 1))}

    def test_two_vertices_ternary(self):
        assert len(enumerate_trees(3, {1, 2})) == 6

    def test_counts_on_grid(self):
        for k, n in GRID:
            assert len(enumerate_trees(k, range(1, n + 1))) == count_paths(k, n), (k, n)

    def test_cap(self):
        with pytest.raises(ResourceCapError):
            enumerate_trees(2, range(1, 30))


class TestForestBijection:
    def test_minimal_tree_stays_whole(self):
        t = tree(2, 1, {1: (None, 2), 2: leaf_row(2)})
        assert tree_to_forest(t).parts == frozenset({t})

    def test_hand_cut(self):
        t = tree(2, 2, {2: (None, 1), 1: leaf_row(2)})
        forest = tree_to_forest(t)
        assert forest.parts == {
            tree(2, 2, {2: leaf_row(2)}),
            tree(2, 1, {1: leaf_row(2)}),
        }

    def test_cut_compares_with_piece_root(self):
        # 3 hangs below 2 on the rightmost branch of root 1: the branch is
        # cut nowhere at 3 (3 > 1 fails only against the piece root 1)
        t = tree(2, 1, {1: (None, 2), 2: (None, 3), 3: leaf_row(2)})
        assert tree_to_forest(t).parts == frozenset({t})

    @pytest.mark.parametrize("k, n", [(2, 5), (3, 4)])
    def test_a_root_minimal_tree_is_its_own_forest(self, k, n):
        for t in enumerate_trees(k, range(1, n + 1)):
            if is_root_minimal(t):
                parts = tree_to_forest(t).parts
                assert parts == frozenset({t}) and next(iter(parts)) is t

    def test_a_one_part_forest_glues_into_its_part(self):
        part = tree(2, 1, {1: (None, 2), 2: leaf_row(2)})
        glued = forest_to_tree(RootMinimalForest(frozenset({part})))
        assert glued is part and glued == PlaneTree(2, 1, part.slots)

    def test_hand_glue(self):
        forest = RootMinimalForest(frozenset({
            tree(2, 2, {2: leaf_row(2)}),
            tree(2, 1, {1: leaf_row(2)}),
        }))
        assert forest_to_tree(forest) == tree(2, 2, {2: (None, 1), 1: leaf_row(2)})

    def test_roundtrip_exhaustive(self):
        for k, n in GRID:
            for t in enumerate_trees(k, range(1, n + 1)):
                assert forest_to_tree(tree_to_forest(t)) == t, (k, n)

    def test_parts_are_root_minimal(self):
        for t in enumerate_trees(2, range(1, 5)):
            assert all(is_root_minimal(part) for part in tree_to_forest(t).parts)

    def test_forest_lists_one_part_twice(self):
        part = tree(2, 1, {1: leaf_row(2)})
        with pytest.raises(ValueError, match="parts lists one part twice"):
            RootMinimalForest([part, part])

    @pytest.mark.parametrize("parts, message", [
        ((), "a forest holds at least one tree"),
        ((tree(2, 1, {1: leaf_row(2)}), tree(3, 2, {2: leaf_row(3)})),
         "all trees of a forest must share the same k"),
    ], ids=["empty", "mixed-k"])
    def test_forest_invariants(self, parts, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            RootMinimalForest(parts)

    def test_forest_validation(self):
        with pytest.raises(ValueError):
            RootMinimalForest(frozenset({tree(2, 2, {2: (None, 1), 1: leaf_row(2)})}))
        with pytest.raises(ValueError):
            RootMinimalForest(frozenset({
                tree(2, 1, {1: leaf_row(2)}),
                tree(2, 1, {1: (None, 2), 2: leaf_row(2)}),
            }))


class TestCycleBijection:
    def test_single_vertex(self):
        t = tree(2, 1, {1: leaf_row(2)})
        c = to_cycle_rooted(t)
        assert c.cycle == (1,)
        assert to_root_minimal(c) == t

    def test_hand_example(self):
        t = tree(2, 1, {1: (None, 3), 3: (2, None), 2: leaf_row(2)})
        c = to_cycle_rooted(t)
        assert c.cycle == (1, 3)
        assert c.slots[3] == (2, None)
        assert to_root_minimal(c) == t

    def test_requires_root_minimal(self):
        with pytest.raises(ValueError):
            to_cycle_rooted(tree(2, 2, {2: (None, 1), 1: leaf_row(2)}))

    def test_cycle_length_is_branch_length(self):
        for t in enumerate_trees(2, range(1, 5)):
            if is_root_minimal(t):
                assert len(to_cycle_rooted(t).cycle) == len(rightmost_branch(t))

    def test_roundtrip_exhaustive(self):
        for k, n in GRID:
            minimal = [t for t in enumerate_trees(k, range(1, n + 1)) if is_root_minimal(t)]
            for t in minimal:
                assert to_root_minimal(to_cycle_rooted(t)) == t
            for c in enumerate_cycle_rooted(k, n):
                assert to_cycle_rooted(to_root_minimal(c)) == c


class TestEnumerateCycleRooted:
    def test_singleton(self):
        got = enumerate_cycle_rooted(2, 1)
        assert len(got) == 1
        assert got[0].cycle == (1,)

    def test_three_structures(self):
        got = enumerate_cycle_rooted(2, 2)
        as_pairs = {(c.cycle, c.slots[c.cycle[0]][0]) for c in got}
        assert as_pairs == {((1,), 2), ((2,), 1), ((1, 2), None)}

    def test_ternary(self):
        assert len(enumerate_cycle_rooted(3, 2)) == count_ornaments(3, 2) == 5

    def test_counts_match_minimal_trees(self):
        for k, n in GRID:
            cycle_trees = enumerate_cycle_rooted(k, n)
            minimal = [
                t for t in enumerate_trees(k, range(1, n + 1)) if is_root_minimal(t)
            ]
            assert len(cycle_trees) == len(minimal) == count_ornaments(k, n), (k, n)

    def test_deterministic(self):
        assert enumerate_cycle_rooted(2, 3) == enumerate_cycle_rooted(2, 3)


def _rows_key(slots):
    """The rows in vertex order, a vacancy read as -1 so that it sorts
    before any occupant."""
    return tuple((v, tuple(-1 if c is None else c for c in row)) for v, row in slots.items())


class TestPublicOrder:
    """The search yields each picture already sorted: plane trees by root,
    then rows; cycle-rooted trees by cycle tuple, then rows."""

    @pytest.mark.parametrize("k, n", GRID, ids=[f"k{k}-n{n}" for k, n in GRID])
    def test_trees_come_sorted(self, k, n):
        got = enumerate_trees(k, range(1, n + 1))
        assert len(got) == count_paths(k, n)
        assert got == sorted(got, key=lambda t: (t.root, _rows_key(t.slots)))

    @pytest.mark.parametrize("k, n", GRID, ids=[f"k{k}-n{n}" for k, n in GRID])
    def test_cycle_trees_come_sorted(self, k, n):
        got = enumerate_cycle_rooted(k, n)
        assert len(got) == count_ornaments(k, n)
        assert got == sorted(got, key=lambda c: (c.cycle, _rows_key(c.slots)))

    def test_labels_need_not_be_consecutive(self):
        got = enumerate_trees(3, [20, 3, 10])
        assert len(got) == count_paths(3, 3)
        assert got == sorted(got, key=lambda t: (t.root, _rows_key(t.slots)))
        assert {t.root for t in got} == {3, 10, 20}
