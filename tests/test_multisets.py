import gc

import pytest
from hypothesis import given, strategies as st

from catlog._trusted import trusted
from catlog.catalan import count_multisets, count_ornaments
from catlog.errors import ResourceCapError
from catlog.multisets import (
    CyclicMultiset,
    cycle_tree_to_multiset,
    cycle_tree_to_ornament,
    enumerate_multisets,
    multiset_rank,
    multiset_to_cycle_tree,
    multiset_to_ornament,
    multiset_unrank,
    ornament_to_cycle_tree,
    ornament_to_multiset,
    root_vertices,
    scope,
    segments_from,
    weight,
)
from catlog.paths import (
    GoodPath,
    diagonal_touches,
    enumerate_ornaments,
    is_label_minimal,
    rotations,
    to_ornament,
)
from catlog.trees import (
    CycleRootedTree,
    _rotated,
    canonical_cycle,
    enumerate_cycle_rooted,
    slot_walk,
)

# the acceptance grid
ACCEPTANCE = [(2, n) for n in range(1, 6)] + [(3, n) for n in range(1, 5)] + [(4, n) for n in range(1, 4)]
GRID = [(2, n) for n in range(1, 5)] + [(3, n) for n in range(1, 4)] + [(4, 1), (4, 2)]


def ms(k, cycle, f):
    return CyclicMultiset(k, cycle, f)


def rooted_multisets(k, n):
    return [m for m in enumerate_multisets(k, n) if root_vertices(m)]


def roots_by_definition(m):
    """Root vertices straight from the segment definition."""
    return {
        v
        for v in m.cycle
        if all(weight(m, s) >= scope(s) for s in segments_from(m, v))
    }


@st.composite
def random_multisets(draw):
    """A shuffled cycle on 1..n and a weak composition of n into the
    n(k-1) nodes of its cycle graph."""
    k = draw(st.integers(2, 5))
    n = draw(st.integers(1, 60))
    cycle = canonical_cycle(draw(st.permutations(range(1, n + 1))))
    width = k - 1
    counts = [0] * (n * width)
    for node in draw(st.lists(st.integers(0, n * width - 1), min_size=n, max_size=n)):
        counts[node] += 1
    return ms(k, cycle, {v: counts[(v - 1) * width : v * width] for v in cycle})


class TestConstruction:
    def test_total_must_be_n(self):
        with pytest.raises(ValueError):
            ms(2, (1, 2), {1: (1,), 2: (2,)})

    def test_vector_width(self):
        with pytest.raises(ValueError):
            ms(3, (1,), {1: (1,)})

    def test_canonical_rotation_required(self):
        with pytest.raises(ValueError):
            ms(2, (2, 1), {1: (1,), 2: (1,)})

    def test_keys_must_cover_cycle(self):
        with pytest.raises(ValueError):
            ms(2, (1, 2), {1: (2,)})

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ms(2, (1, 2), {1: (3,), 2: (-1,)})

    def test_label_named_twice_in_pair_form(self):
        # the total and the label set both look right; only the repeat is wrong
        with pytest.raises(ValueError, match="f names vertex 1 twice"):
            ms(2, (1, 2), ((1, (1,)), (1, (0,)), (2, (1,))))

    @pytest.mark.parametrize("cycle", [(-1, 0), (0,), (True,)])
    def test_cycle_labels_must_be_positive_ints(self, cycle):
        # f covers the cycle and sums to n; only the labels are wrong
        f = {v: (1,) for v in cycle}
        with pytest.raises(ValueError, match="cycle labels must be positive integers"):
            ms(2, cycle, f)

    @pytest.mark.parametrize("k, f, match", [
        (2, {1.9: (1.7,)}, "f is keyed by the integer cycle labels, not 1.9"),
        (2, {1.0: (1,)}, "f is keyed by the integer cycle labels, not 1.0"),
        (2, {1: (1.0,)}, "multiplicities must be nonnegative integers"),
        (2, {1: (True,)}, "multiplicities must be nonnegative integers"),
        (2.0, {1: (1,)}, "multisets need an integer k >= 2"),
    ], ids=["float-label-and-count", "integral-float-label", "float-count", "bool-count",
            "float-k"])
    def test_floats_and_bools_are_not_ints(self, k, f, match):
        # each used to be coerced (or compared equal) and build
        with pytest.raises(ValueError, match=match):
            ms(k, (1,), f)


class TestSegments:
    def test_size_one(self):
        m = ms(2, (1,), {1: (1,)})
        assert segments_from(m, 1) == [((1, 1),)]

    def test_size_two(self):
        m = ms(2, (1, 2), {1: (1,), 2: (1,)})
        assert segments_from(m, 1) == [((1, 1),), ((1, 1), (2, 1))]
        assert segments_from(m, 2) == [((2, 1),), ((2, 1), (1, 1))]

    def test_count_is_node_count(self):
        m = ms(3, (1, 2), {1: (1, 0), 2: (1, 0)})
        segs = segments_from(m, 1)
        assert len(segs) == 4
        assert segs[-1] == ((1, 1), (1, 2), (2, 1), (2, 2))

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            segments_from(ms(2, (1,), {1: (1,)}), 3)


class TestScopeAndWeight:
    def test_scope_single(self):
        assert scope(((1, 1),)) == 1

    def test_scope_same_label(self):
        assert scope(((1, 1), (1, 2))) == 1

    def test_scope_two_labels(self):
        assert scope(((1, 1), (2, 1))) == 2

    def test_weight_reads_multiplicities(self):
        m = ms(2, (1, 2), {1: (2,), 2: (0,)})
        assert weight(m, ((1, 1),)) == 2
        assert weight(m, ((2, 1),)) == 0

    def test_full_wrap_weighs_n(self):
        for k, n in GRID:
            for m in enumerate_multisets(k, n):
                for start in m.cycle:
                    assert weight(m, segments_from(m, start)[-1]) == n


class TestRootVertices:
    def test_size_one(self):
        assert root_vertices(ms(2, (1,), {1: (1,)})) == {1}

    def test_concentrated(self):
        assert root_vertices(ms(2, (1, 2), {1: (2,), 2: (0,)})) == {1}

    def test_balanced(self):
        assert root_vertices(ms(2, (1, 2), {1: (1,), 2: (1,)})) == {1, 2}

    def test_empty_for_unrooted(self):
        assert root_vertices(ms(3, (1,), {1: (0, 1)})) == set()

    @pytest.mark.parametrize("k, n", [(2, 5), (3, 4), (4, 3)])
    def test_definition_on_acceptance_grid(self, k, n):
        for m in enumerate_multisets(k, n):
            assert root_vertices(m) == roots_by_definition(m), m

    @given(random_multisets())
    def test_definition_on_random_multisets(self, m):
        assert root_vertices(m) == roots_by_definition(m)

    @pytest.mark.parametrize("k", [2, 3])
    def test_max_touch_is_linear(self, k):
        # every label is a root: the quadratic scan takes minutes here
        n = 20_000
        steps = ("R" + "U" * (k - 1)) * n
        o = to_ornament(GoodPath(k, steps, tuple(range(n, 0, -1))))
        m = ornament_to_multiset(o)
        assert root_vertices(m) == set(range(1, n + 1))
        assert multiset_to_ornament(m) == o

    @pytest.mark.parametrize("k", [2, 3])
    def test_hug_has_one_root(self, k):
        n = 20_000
        steps = "R" * n + "U" * ((k - 1) * n)
        o = to_ornament(GoodPath(k, steps, tuple(range(1, n + 1))))
        m = ornament_to_multiset(o)
        assert root_vertices(m) == {1}
        assert multiset_to_ornament(m) == o


class TestEnumerate:
    def test_binary_all_are_rooted(self):
        assert len(enumerate_multisets(2, 2)) == 3
        assert len(rooted_multisets(2, 2)) == 3

    def test_ternary_fraction(self):
        everything = enumerate_multisets(3, 2)
        rooted = rooted_multisets(3, 2)
        assert len(everything) == 10
        assert len(rooted) == 5

    def test_counts_on_grid(self):
        for k, n in GRID:
            everything = enumerate_multisets(k, n)
            rooted = [m for m in everything if root_vertices(m)]
            assert len(everything) == count_multisets(k, n), (k, n)
            assert len(rooted) == count_ornaments(k, n), (k, n)
            assert (k - 1) * len(rooted) == len(everything), (k, n)

    def test_cap(self):
        with pytest.raises(ResourceCapError):
            enumerate_multisets(2, 30)

    def test_deterministic(self):
        assert enumerate_multisets(3, 2) == enumerate_multisets(3, 2)


def stored(k, cycle, f):
    """A multiset holding exactly these fields, unchecked."""
    return trusted(CyclicMultiset, k=k, cycle=cycle, f=f, f_map=dict(f))


class TestRank:
    def test_ranks_fill_the_count_in_enumeration_order(self):
        for k, n in ACCEPTANCE:
            ranks = [multiset_rank(m) for m in enumerate_multisets(k, n)]
            assert ranks == list(range(count_multisets(k, n))), (k, n)

    def test_unrank_inverts_rank(self):
        for k, n in ACCEPTANCE:
            for r in range(count_multisets(k, n)):
                assert multiset_rank(multiset_unrank(k, n, r)) == r, (k, n, r)

    def test_unrank_range(self):
        with pytest.raises(ValueError):
            multiset_unrank(2, 3, count_multisets(2, 3))
        with pytest.raises(ValueError):
            multiset_unrank(2, 3, -1)

    @pytest.mark.parametrize("m", [
        stored(2, (2, 1), ((1, (1,)), (2, (1,)))),  # the cycle from label 2
        stored(3, (1, 2), ((1, (1,)), (2, (1,)))),  # vectors of length k-2
        stored(2, [1, 2], ((1, (1,)), (2, (1,)))),  # a list for the cycle
        stored(2, (1, 2), ((1, [1]), (2, [1]))),  # lists for the vectors
        stored(2, (1, 2), [(1, (1,)), (2, (1,))]),  # a list for f
        stored(2, (1, 3), ((1, (1,)), (3, (1,)))),  # labels other than 1..n
        stored(2, (1, 2), ((1, (2,)), (2, (1,)))),  # multiplicities summing past n
        stored(2, (1, 2), ((1, (0,)), (2, (1,)))),  # multiplicities summing below n
        stored(2, (1, 2), ((1, (-1,)), (2, (3,)))),  # a negative multiplicity
        stored(2, (True, 2), ((1, (1,)), (2, (1,)))),  # a bool label
        stored(2.0, (1, 2), ((1, (1,)), (2, (1,)))),  # a float k
    ], ids=["rotated", "wrong-k", "list-cycle", "list-vectors", "list-f", "labels",
            "sum-high", "sum-low", "negative", "bool-label", "float-k"])
    def test_rejects_what_is_not_a_stored_multiset(self, m):
        with pytest.raises(ValueError):
            multiset_rank(m)


class TestOrnamentEncoding:
    def test_alternating(self):
        o = to_ornament(GoodPath(2, "RURU", (1, 2)))
        assert ornament_to_multiset(o) == ms(2, (1, 2), {1: (1,), 2: (1,)})

    def test_concentrated(self):
        o = to_ornament(GoodPath(2, "RRUU", (1, 2)))
        assert ornament_to_multiset(o) == ms(2, (1, 2), {1: (2,), 2: (0,)})

    def test_concentrated_other_labeling(self):
        o = to_ornament(GoodPath(2, "RRUU", (2, 1)))
        assert ornament_to_multiset(o) == ms(2, (1, 2), {1: (0,), 2: (2,)})

    def test_representative_independent(self):
        # count right steps per labeled height straight off each rotation
        for k, n in [(2, 4), (3, 3)]:
            for o in enumerate_ornaments(k, n):
                m = ornament_to_multiset(o)
                for member in rotations(o.rep):
                    counts = {v: [0] * (k - 1) for v in member.labels}
                    u = 0
                    for ch in member.steps:
                        if ch == "R":
                            j, q = divmod(u, k - 1)
                            counts[member.labels[j]][q] += 1
                        else:
                            u += 1
                    assert {v: tuple(c) for v, c in counts.items()} == dict(m.f)

    def test_decode_small(self):
        m = ms(2, (1, 2), {1: (1,), 2: (1,)})
        assert multiset_to_ornament(m).rep == GoodPath(2, "RURU", (1, 2))

    def test_decode_size_one(self):
        assert multiset_to_ornament(ms(2, (1,), {1: (1,)})).rep == GoodPath(2, "RU", (1,))

    def test_decode_requires_roots(self):
        with pytest.raises(ValueError):
            multiset_to_ornament(ms(3, (1,), {1: (0, 1)}))

    def test_decode_is_label_minimal(self):
        for k, n in GRID:
            for m in rooted_multisets(k, n):
                assert is_label_minimal(multiset_to_ornament(m).rep)

    def test_roundtrip(self):
        for k, n in GRID:
            for m in rooted_multisets(k, n):
                assert ornament_to_multiset(multiset_to_ornament(m)) == m
            for o in enumerate_ornaments(k, n):
                assert multiset_to_ornament(ornament_to_multiset(o)) == o


def cycle_tree_to_multiset_before(c, start_root=None):
    """cycle_tree_to_multiset as it was written on slot_walk and a
    parent-slot dict, built by the public constructor: the reference the
    explicit-stack pass is checked against."""
    if start_root is None:
        start_root = c.cycle[0]
    order = []
    parent_slot = {}
    for r in _rotated(c.cycle, start_root):
        order.append(r)
        for _, q, v in slot_walk(c.slot_map, r):
            if v is not None:
                order.append(v)
                parent_slot[v] = q

    def chain(v, q):
        length = 0
        while (v := c.slot_map[v][q]) is not None:
            length += 1
        return length

    f = {}
    for v in order:
        if v in c.cycle:
            vec = [chain(v, q) for q in range(c.k - 1)]
            vec[0] += 1
        else:
            vec = [chain(v, q) for q in range(c.k) if q != parent_slot[v]]
        f[v] = vec
    return CyclicMultiset(c.k, canonical_cycle(order), f)


def large_cycle_tree(shape, k, n):
    """The cycle tree of the path hugging the axis (one root, a slot-0
    chain n deep) or of the max-touch path (n roots)."""
    steps = "R" * n + "U" * ((k - 1) * n) if shape == "hug" else ("R" + "U" * (k - 1)) * n
    return ornament_to_cycle_tree(to_ornament(GoodPath(k, steps, tuple(range(n, 0, -1)))))


class TestTreeEncoding:
    @pytest.mark.parametrize("k, n", ACCEPTANCE)
    def test_agrees_with_the_reference_on_the_acceptance_grid(self, k, n):
        for c in enumerate_cycle_rooted(k, n):
            for start in c.cycle:
                assert cycle_tree_to_multiset(c, start) == cycle_tree_to_multiset_before(c, start)

    @pytest.mark.parametrize("shape", ["hug", "max-touch"])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_agrees_with_the_reference_on_large_trees(self, shape, k):
        c = large_cycle_tree(shape, k, 1500)
        assert len(c.cycle) == (1 if shape == "hug" else 1500)
        for start in {c.cycle[0], c.cycle[-1]}:
            assert cycle_tree_to_multiset(c, start) == cycle_tree_to_multiset_before(c, start)

    def test_size_one(self):
        c = CycleRootedTree(2, (1,), {1: (None, None)})
        assert cycle_tree_to_multiset(c) == ms(2, (1,), {1: (1,)})

    def test_hanging_child(self):
        c = CycleRootedTree(2, (1,), {1: (2, None), 2: (None, None)})
        assert cycle_tree_to_multiset(c) == ms(2, (1, 2), {1: (2,), 2: (0,)})

    def test_two_roots(self):
        c = CycleRootedTree(2, (1, 2), {1: (None, None), 2: (None, None)})
        assert cycle_tree_to_multiset(c) == ms(2, (1, 2), {1: (1,), 2: (1,)})

    def test_start_independent(self):
        for k, n in [(2, 4), (3, 3)]:
            for c in enumerate_cycle_rooted(k, n):
                canonical = cycle_tree_to_multiset(c)
                for start in c.cycle:
                    assert cycle_tree_to_multiset(c, start_root=start) == canonical

    def test_decode_inverts_examples(self):
        m = ms(2, (1, 2), {1: (2,), 2: (0,)})
        c = multiset_to_cycle_tree(m)
        assert c.cycle == (1,)
        assert c.slot_map[1] == (2, None)

    def test_decode_requires_roots(self):
        with pytest.raises(ValueError):
            multiset_to_cycle_tree(ms(3, (1,), {1: (0, 1)}))

    def test_roundtrip(self):
        for k, n in GRID:
            for m in rooted_multisets(k, n):
                assert cycle_tree_to_multiset(multiset_to_cycle_tree(m)) == m
            for c in enumerate_cycle_rooted(k, n):
                assert multiset_to_cycle_tree(cycle_tree_to_multiset(c)) == c

    def test_decode_leaves_no_reference_cycle(self):
        rooted = rooted_multisets(2, 4)
        gc.collect()
        gc.disable()
        try:
            for m in rooted:
                multiset_to_cycle_tree(m)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestRangeEquality:
    def test_images_coincide_with_rooted_multisets(self):
        for k, n in GRID:
            rooted = set(rooted_multisets(k, n))
            via_paths = {ornament_to_multiset(o) for o in enumerate_ornaments(k, n)}
            via_trees = {cycle_tree_to_multiset(c) for c in enumerate_cycle_rooted(k, n)}
            assert via_paths == rooted, (k, n)
            assert via_trees == rooted, (k, n)

    def test_root_vertex_correspondence(self):
        for k, n in GRID:
            for o in enumerate_ornaments(k, n):
                touches = {lab for _, lab in diagonal_touches(o.rep)}
                assert root_vertices(ornament_to_multiset(o)) == touches
            for c in enumerate_cycle_rooted(k, n):
                assert root_vertices(cycle_tree_to_multiset(c)) == set(c.cycle)


class TestComposedCorrespondence:
    def test_size_one(self):
        o = to_ornament(GoodPath(2, "RU", (1,)))
        c = ornament_to_cycle_tree(o)
        assert c == CycleRootedTree(2, (1,), {1: (None, None)})
        assert cycle_tree_to_ornament(c) == o

    def test_hand_example(self):
        o = to_ornament(GoodPath(2, "RRUU", (1, 2)))
        c = ornament_to_cycle_tree(o)
        assert c.cycle == (1,)
        assert c.slot_map[1] == (2, None)

    def test_touch_labels_become_cycle(self):
        for n in range(1, 5):
            for o in enumerate_ornaments(2, n):
                c = ornament_to_cycle_tree(o)
                assert set(c.cycle) == {lab for _, lab in diagonal_touches(o.rep)}

    def test_roundtrips(self):
        for k, n in GRID:
            for o in enumerate_ornaments(k, n):
                assert cycle_tree_to_ornament(ornament_to_cycle_tree(o)) == o
            for c in enumerate_cycle_rooted(k, n):
                assert ornament_to_cycle_tree(cycle_tree_to_ornament(c)) == c
