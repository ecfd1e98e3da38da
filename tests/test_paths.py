import itertools
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from catlog.arith import factorial
from catlog.catalan import coeff_log_power, count_ornaments, count_paths, returns_count
from catlog.errors import ResourceCapError
from catlog.multisets import enumerate_multisets
from catlog import paths
from catlog.paths import (
    GoodPath,
    MinimalField,
    Ornament,
    decompose,
    diagonal_touches,
    enumerate_fields,
    enumerate_minimal_paths,
    enumerate_ornaments,
    enumerate_paths,
    is_good,
    is_label_minimal,
    recompose,
    rotations,
    to_ornament,
    touch_count,
)
from catlog.trees import enumerate_cycle_rooted, enumerate_trees

GRID = [(2, n) for n in range(1, 6)] + [(3, n) for n in range(1, 5)] + [(4, n) for n in range(1, 4)]


def is_good_before(k: int, steps: str) -> bool:
    """is_good as it was written before it kept one running height: the
    reference the new one is checked against."""
    if k < 2 or not steps or any(ch not in "RU" for ch in steps):
        return False
    r = u = 0
    for ch in steps:
        if ch == "R":
            r += 1
        else:
            u += 1
        if u > (k - 1) * r:
            return False
    return r >= 1 and u == (k - 1) * r


# any text, and shuffles of n R's and (k-1)n U's, which have the right
# totals and are good or not by their prefixes
WORDS = (st.text(alphabet="RUx", max_size=40) | st.text(max_size=12)
         | st.tuples(st.integers(1, 20), st.integers(2, 5)).flatmap(
             lambda nk: st.permutations("R" * nk[0] + "U" * ((nk[1] - 1) * nk[0]))
         ).map("".join))
# steps that are no str: a list or tuple used to build a path that cannot
# be hashed, bytes and an int raised a TypeError
NOT_STR = [["R", "U"], ("R", "U"), b"RU", 5]


class TestIsGood:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_agrees_with_the_reference_on_every_short_word(self, k):
        for length in range(10):
            for word in map("".join, itertools.product("RUx", repeat=length)):
                assert is_good(k, word) == is_good_before(k, word), word

    @given(st.integers(2, 5), WORDS)
    def test_agrees_with_the_reference(self, k, word):
        assert is_good(k, word) == is_good_before(k, word)

    @pytest.mark.parametrize("steps", NOT_STR)
    def test_rejects_a_word_that_is_not_a_str(self, steps):
        assert not is_good(2, steps)

    def test_accepts(self):
        assert is_good(2, "RURU")
        assert is_good(3, "RUURUU")
        assert is_good(2, "RRUURU")

    def test_rejects_first_step_up(self):
        assert not is_good(2, "URRU")

    def test_rejects_rise_above_diagonal(self):
        assert not is_good(2, "RUUR")  # prefix RUU has u=2 > 1

    def test_rejects_wrong_totals_and_garbage(self):
        assert not is_good(2, "RU" + "R")
        assert not is_good(2, "")
        assert not is_good(2, "RX")


class TestGoodPath:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            GoodPath(2, "RURU", (1, 1))

    def test_nonpositive_labels_rejected(self):
        with pytest.raises(ValueError):
            GoodPath(2, "RURU", (0, 1))

    @pytest.mark.parametrize("labels", [("1",), (1.0,), (None,)])
    def test_non_int_labels_rejected(self, labels):
        with pytest.raises(ValueError, match="labels must be distinct positive integers"):
            GoodPath(2, "RU", labels)

    @pytest.mark.parametrize("steps", NOT_STR)
    def test_steps_must_be_a_str(self, steps):
        with pytest.raises(ValueError, match="^steps must form a good word with one right "
                                             "step per label$"):
            GoodPath(2, steps, (1,))

    @pytest.mark.parametrize("k, steps", [(2.0, "RU"), (3.0, "RUU"), (True, "RU"), ("2", "RU")])
    def test_k_must_be_an_int(self, k, steps):
        # an integral float passes every other check; it used to build
        with pytest.raises(ValueError, match="paths need an integer k >= 2"):
            GoodPath(k, steps, (1,))

    def test_bad_word_rejected(self):
        with pytest.raises(ValueError):
            GoodPath(2, "RUUR", (1, 2))

    def test_a_path_needs_a_label(self):
        with pytest.raises(ValueError, match="^a path carries at least one label$"):
            GoodPath(2, "", ())

    def test_label_count_must_match(self):
        with pytest.raises(ValueError):
            GoodPath(2, "RURU", (1, 2, 3))
        with pytest.raises(ValueError):
            GoodPath(3, "RUURUU", (1,))


class TestDiagonalTouches:
    def test_alternating(self):
        assert diagonal_touches(GoodPath(2, "RURU", (1, 2))) == [(0, 1), (1, 2)]

    def test_single_touch(self):
        assert diagonal_touches(GoodPath(2, "RRUU", (1, 2))) == [(0, 1)]

    def test_size_one(self):
        assert diagonal_touches(GoodPath(3, "RUU", (7,))) == [(0, 7)]


class TestLabelMinimal:
    def test_single_touch_is_always_minimal(self):
        assert is_label_minimal(GoodPath(2, "RRUU", (2, 1)))

    def test_smaller_interior_touch(self):
        assert not is_label_minimal(GoodPath(2, "RURU", (2, 1)))

    def test_size_one(self):
        assert is_label_minimal(GoodPath(2, "RU", (9,)))

    @pytest.mark.parametrize("k, n", [(2, 4), (3, 3), (4, 2)])
    def test_is_the_touch_minimum(self, k, n):
        for p in enumerate_paths(k, range(1, n + 1)):
            touches = diagonal_touches(p)
            assert is_label_minimal(p) == (p.labels[0] == min(lab for _, lab in touches))
            assert decompose(p, touches) == decompose(p)
            assert rotations(p, touches) == rotations(p)


class TestEnumeratePaths:
    def test_singleton(self):
        assert len(enumerate_paths(2, {1})) == 1

    def test_two_labels(self):
        got = enumerate_paths(2, {1, 2})
        assert len(got) == 4
        assert got[0].steps == "RRUU"  # lexicographic words first

    def test_ternary(self):
        assert len(enumerate_paths(3, {1, 2})) == 6

    def test_counts_on_grid(self):
        for k, n in GRID:
            assert len(enumerate_paths(k, range(1, n + 1))) == count_paths(k, n)

    def test_arbitrary_label_sets(self):
        ps = enumerate_paths(2, (5, 9))
        assert {p.labels for p in ps} == {(5, 9), (9, 5)}

    def test_cap(self):
        with pytest.raises(ResourceCapError):
            enumerate_paths(2, range(1, 30))
        assert len(enumerate_paths(2, {1, 2}, max_count=4)) == 4
        with pytest.raises(ResourceCapError):
            enumerate_paths(2, {1, 2}, max_count=3)


class TestDecompose:
    def test_minimal_path_is_fixed(self):
        p = GoodPath(2, "RRUU", (2, 1))
        assert decompose(p) == MinimalField(frozenset({p}))

    def test_hand_example(self):
        field = decompose(GoodPath(2, "RURU", (2, 1)))
        assert field.parts == {
            GoodPath(2, "RU", (2,)),
            GoodPath(2, "RU", (1,)),
        }

    def test_parts_partition_labels(self):
        for p in enumerate_paths(2, range(1, 5)):
            field = decompose(p)
            labels = sorted(v for part in field.parts for v in part.labels)
            assert labels == [1, 2, 3, 4]

    def test_roundtrip_exhaustive(self):
        for k, n in GRID:
            for p in enumerate_paths(k, range(1, n + 1)):
                assert recompose(decompose(p)) == p, (k, n, p)

    def test_injective(self):
        for k, n in [(2, 4), (3, 3)]:
            ps = enumerate_paths(k, range(1, n + 1))
            assert len({decompose(p) for p in ps}) == len(ps)

    @pytest.mark.parametrize("k", [2, 3])
    def test_every_touch_cut_at_scale(self, k):
        # (R U^(k-1))^n with decreasing labels: every touch undercuts the last
        n = 1000
        p = GoodPath(k, ("R" + "U" * (k - 1)) * n, tuple(range(n, 0, -1)))
        field = decompose(p)
        assert len(field.parts) == n
        assert recompose(field) == p


class TestRecompose:
    def test_singleton(self):
        p = GoodPath(2, "RURU", (1, 2))
        got = recompose(MinimalField(frozenset({p})))
        assert got is p and got == GoodPath(2, p.steps, p.labels)

    def test_hand_example(self):
        field = MinimalField(frozenset({GoodPath(2, "RU", (2,)), GoodPath(2, "RU", (1,))}))
        assert recompose(field) == GoodPath(2, "RURU", (2, 1))

    def test_overlapping_parts_rejected(self):
        with pytest.raises(ValueError):
            MinimalField(frozenset({
                GoodPath(2, "RU", (1,)),
                GoodPath(2, "RRUU", (1, 2)),
            }))

    def test_part_listed_twice_rejected(self):
        part = GoodPath(2, "RU", (1,))
        with pytest.raises(ValueError, match="parts lists one part twice"):
            MinimalField([part, part])

    def test_non_minimal_part_rejected(self):
        with pytest.raises(ValueError):
            MinimalField(frozenset({GoodPath(2, "RURU", (2, 1))}))

    @pytest.mark.parametrize("parts, message", [
        ((), "a field holds at least one part"),
        ((GoodPath(2, "RU", (1,)), GoodPath(3, "RUU", (2,))),
         "all parts of a field must share the same k"),
    ], ids=["empty", "mixed-k"])
    def test_field_invariants(self, parts, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            MinimalField(parts)


class TestOrnaments:
    def test_minimal_rep_is_fixed(self):
        p = GoodPath(2, "RRUU", (1, 2))
        assert to_ornament(p).rep == p

    def test_rotation_example(self):
        assert to_ornament(GoodPath(2, "RURU", (2, 1))).rep == GoodPath(2, "RURU", (1, 2))

    def test_single_touch_labelings_stay_distinct(self):
        a = to_ornament(GoodPath(2, "RRUU", (1, 2)))
        b = to_ornament(GoodPath(2, "RRUU", (2, 1)))
        assert a != b

    def test_non_minimal_rep_rejected(self):
        with pytest.raises(ValueError):
            Ornament(GoodPath(2, "RURU", (2, 1)))

    def test_touch_count(self):
        assert touch_count(to_ornament(GoodPath(2, "RURU", (1, 2)))) == 2
        assert touch_count(to_ornament(GoodPath(2, "RRUU", (2, 1)))) == 1
        assert touch_count(to_ornament(GoodPath(2, "RU", (1,)))) == 1

    def test_constant_on_rotation_classes(self):
        for k, n in [(2, 4), (3, 3)]:
            for o in enumerate_ornaments(k, n):
                members = rotations(o.rep)
                assert len(members) == touch_count(o)
                assert all(to_ornament(q) == o for q in members)

    def test_class_sizes_partition_paths(self):
        for k, n in [(2, 4), (3, 3), (4, 2)]:
            orns = enumerate_ornaments(k, n)
            assert sum(touch_count(o) for o in orns) == count_paths(k, n)

    def test_enumerate_counts(self):
        assert len(enumerate_ornaments(2, 1)) == 1
        assert {(o.rep.steps, o.rep.labels) for o in enumerate_ornaments(2, 2)} == {
            ("RURU", (1, 2)),
            ("RRUU", (1, 2)),
            ("RRUU", (2, 1)),
        }
        assert len(enumerate_ornaments(3, 2)) == count_ornaments(3, 2) == 5

    def test_counts_on_grid(self):
        for k, n in GRID:
            assert len(enumerate_ornaments(k, n)) == count_ornaments(k, n)
            assert len(enumerate_minimal_paths(k, range(1, n + 1))) == count_ornaments(k, n)

    @pytest.mark.parametrize("k, n", GRID)
    def test_matches_rotation_class_oracle(self, k, n):
        # reference: rotate every path to its class, deduplicate, sort
        found = {to_ornament(p) for p in enumerate_paths(k, range(1, n + 1))}
        oracle = sorted(found, key=lambda o: (o.rep.steps, o.rep.labels))
        assert enumerate_ornaments(k, n) == oracle

    def test_cap_counts_paths(self):
        with pytest.raises(ResourceCapError) as via_paths:
            enumerate_paths(2, range(1, 10), max_count=10)
        with pytest.raises(ResourceCapError) as via_ornaments:
            enumerate_ornaments(2, 9, max_count=10)
        assert str(via_ornaments.value) == str(via_paths.value)

    def test_class_size_statistics(self):
        for k, n in GRID:
            orns = enumerate_ornaments(k, n)
            for p in range(1, n + 1):
                expected = factorial(n) * returns_count(k, n, p) // p
                assert sum(1 for o in orns if touch_count(o) == p) == expected, (k, n, p)


def reference_paths(k, labels):
    """Every good word on len(labels) right steps in lexicographic order,
    each with every labelling in lexicographic order, all built by the
    public constructor."""
    base = sorted(labels)
    words = map("".join, itertools.product("RU", repeat=k * len(base)))
    return [GoodPath(k, w, q) for w in words if is_good(k, w)
            for q in itertools.permutations(base)]


def range_of(n):
    return range(1, n + 1)


def fields_of_one_part(k, n, max_count=10**7):
    return enumerate_fields(k, n, 1, max_count)


# each public enumerator, its size argument from n, its refusal of size 0
# and of a k that is not an int >= 2, and the cap message at size 5
ENTRY_CHECKS = [
    (enumerate_paths, range_of, "enumerate_paths needs k >= 2 and a nonempty label set",
     "good paths: 5040"),
    (enumerate_minimal_paths, range_of,
     "enumerate_paths needs k >= 2 and a nonempty label set", "good paths: 5040"),
    (enumerate_trees, range_of, "enumerate_trees needs k >= 2 and a nonempty label set",
     "plane trees: 5040"),
    (enumerate_ornaments, int, "enumerate_paths needs k >= 2 and a nonempty label set",
     "good paths: 5040"),
    (enumerate_cycle_rooted, int, "enumerate_cycle_rooted needs k >= 2 and n >= 1",
     "cycle-rooted trees: 3024"),
    (enumerate_multisets, int, "enumerate_multisets needs k >= 2 and n >= 1",
     "cyclic multisets: 3024"),
    (fields_of_one_part, int, "enumerate_fields needs k >= 2, n >= 1, parts >= 1",
     "minimal fields: 3024"),
]


class TestMinimalPaths:
    LABEL_SETS = ([(k, range(1, n + 1)) for k, n in GRID]
                  + [(k, {3, 7, 10, 20}) for k in (2, 3, 4)] + [(2, [20, 3, 10, 7, 5])])

    @pytest.mark.parametrize("k, labels", LABEL_SETS,
                             ids=[f"k{k}-{sorted(ls)}" for k, ls in LABEL_SETS])
    def test_equals_the_label_minimal_filter(self, k, labels):
        every = enumerate_paths(k, labels)
        assert every == reference_paths(k, labels)
        minimal = enumerate_minimal_paths(k, labels)
        assert minimal == [p for p in every if is_label_minimal(p)]

    @pytest.mark.parametrize("enumerate_, size, refusal, cap", ENTRY_CHECKS,
                             ids=[e[0].__name__ for e in ENTRY_CHECKS])
    def test_errors_keep_their_messages(self, enumerate_, size, refusal, cap):
        """Every public enumerator checks its arguments on entry and names
        the broken invariant; a float k or n raises ValueError, not a
        TypeError from the counting formulas."""
        with pytest.raises(ValueError, match=f"^{refusal}$"):
            enumerate_(2, size(0))
        for k in (1, 2.0):
            with pytest.raises(ValueError, match=f"^{refusal}$"):
                enumerate_(k, size(2))
        with pytest.raises(ResourceCapError) as refused:
            enumerate_(2, size(5), max_count=10)
        assert str(refused.value) == (f"{cap} structures predicted, cap is 10 "
                                      "(raise or disable the cap to proceed)")
        if size is range_of:  # an explicit label set
            for labels in ([1, 2, 2], [1.0, 1]):
                with pytest.raises(ValueError, match="^label set contains duplicates$"):
                    enumerate_(2, labels)
            # an unhashable label and a label set that is not iterable
            # raised a TypeError
            for labels in ([0, 1], [1.0, 2], ["1", "2"], [True, 2], [[1], [2]], 5):
                with pytest.raises(ValueError,
                                   match="^labels must be distinct positive integers$"):
                    enumerate_(2, labels)
        else:
            with pytest.raises(ValueError, match=f"^{refusal}$"):
                enumerate_(2, 2.0)


class TestFields:
    def test_two_singletons(self):
        fields = enumerate_fields(2, 2, 2)
        assert len(fields) == 1
        assert fields[0].parts == {GoodPath(2, "RU", (1,)), GoodPath(2, "RU", (2,))}

    def test_all_singletons(self):
        for k, n in [(2, 3), (3, 3), (2, 4)]:
            assert len(enumerate_fields(k, n, n)) == 1

    def test_nine_fields(self):
        assert len(enumerate_fields(2, 3, 2)) == 9

    def test_more_parts_than_labels(self):
        assert enumerate_fields(2, 2, 3) == []

    def test_egf_consistency(self):
        for k in (2,):
            for n in range(1, 6):
                for a in range(1, min(3, n) + 1):
                    got = Fraction(len(enumerate_fields(k, n, a)) * factorial(a), factorial(n))
                    assert got == coeff_log_power(k, n, a), (k, n, a)

    def test_decompose_lands_in_fields(self):
        # images of the path decomposition are exactly all fields
        k, n = 2, 4
        all_fields = [f for a in range(1, n + 1) for f in enumerate_fields(k, n, a)]
        images = {decompose(p) for p in enumerate_paths(k, range(1, n + 1))}
        assert images == set(all_fields)
        assert len(all_fields) == len(set(all_fields))


def recursive_good_words(k: int, n: int):
    """The good words by a depth-first walk, one level per step: the order
    oracle for the iterative successor walk."""
    word: list[str] = []

    def rec(r: int, u: int):
        if r == n:
            yield "".join(word) + "U" * ((k - 1) * n - u)
            return
        word.append("R")
        yield from rec(r + 1, u)
        word.pop()
        if u < (k - 1) * r:
            word.append("U")
            yield from rec(r, u + 1)
            word.pop()

    yield from rec(0, 0)


class TestGoodWords:
    @pytest.mark.parametrize("k, max_n", [(2, 7), (3, 5), (4, 4)])
    def test_same_order_as_the_recursive_walk(self, k, max_n):
        for n in range(1, max_n + 1):
            assert list(paths._good_words(k, n)) == list(recursive_good_words(k, n)), n

    @pytest.mark.parametrize("walk", [
        lambda n: paths._labeled_paths(2, range(1, n + 1), None, False),
        lambda n: paths._labeled_paths(3, range(1, n + 1), None, True),
        lambda n: (o.rep for o in paths._ornaments(3, n, None)),
    ], ids=["paths", "minimal-paths", "ornaments"])
    def test_first_structure_at_n_1500(self, walk):
        # a walk one level deep per step would pass the recursion limit here
        first = next(walk(1500))
        assert first.steps == "R" * 1500 + "U" * ((first.k - 1) * 1500)
        assert first.labels == tuple(range(1, 1501))


def recursive_set_partitions(items: list[int], blocks: int):
    """Partitions of `items` into exactly `blocks` nonempty blocks, by
    recursion on the first item: the order oracle for the iterative walk."""
    if blocks < 1 or blocks > len(items):
        return
    if blocks == 1:
        yield [tuple(items)]
        return
    first, rest = items[0], items[1:]
    # first joins an existing block of a smaller partition, or stands alone
    for part in recursive_set_partitions(rest, blocks):
        for i in range(len(part)):
            yield part[:i] + [tuple(sorted((first,) + part[i]))] + part[i + 1 :]
    for part in recursive_set_partitions(rest, blocks - 1):
        yield [(first,)] + part


def recursive_fields(k: int, n: int, parts: int):
    """The minimal fields by set partition, then one label-minimal path per
    block, each block re-walked per earlier choice: the order oracle for
    enumerate_fields."""
    def choices(blocks):
        if not blocks:
            yield ()
            return
        for p in enumerate_minimal_paths(k, blocks[0]):
            for rest in choices(blocks[1:]):
                yield (p, *rest)

    for partition in recursive_set_partitions(list(range(1, n + 1)), parts):
        for choice in choices(partition):
            yield MinimalField(frozenset(choice))


class TestFieldsWalk:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_partitions_in_the_recursive_order(self, n):
        for blocks in range(1, n + 1):
            assert list(paths._set_partitions(n, blocks)) == \
                list(recursive_set_partitions(list(range(1, n + 1)), blocks)), blocks

    @pytest.mark.parametrize("k", [2, 3])
    def test_fields_in_the_recursive_order(self, k):
        for n in range(1, 6):
            for a in range(1, n + 1):
                assert enumerate_fields(k, n, a) == list(recursive_fields(k, n, a)), (n, a)

    def test_fields_walk_holds_no_block_list(self):
        # 7,750 fields; listing the 4-label block's paths would peak near 650 kB
        tracemalloc.start()
        try:
            assert sum(1 for _ in paths._fields(3, 5, 2, None)) == 7750
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000


class TestDeterminism:
    def test_enumeration_is_reproducible(self):
        a = enumerate_paths(3, range(1, 4))
        b = enumerate_paths(3, range(1, 4))
        assert a == b
        assert enumerate_ornaments(2, 4) == enumerate_ornaments(2, 4)
