import itertools
from fractions import Fraction

import pytest

from catlog.arith import factorial
from catlog.catalan import coeff_log_power, count_ornaments, count_paths, returns_count
from catlog.errors import ResourceCapError
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

GRID = [(2, n) for n in range(1, 6)] + [(3, n) for n in range(1, 5)] + [(4, n) for n in range(1, 4)]


class TestIsGood:
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

    def test_bad_word_rejected(self):
        with pytest.raises(ValueError):
            GoodPath(2, "RUUR", (1, 2))

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
        assert recompose(MinimalField(frozenset({p}))) == p

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


class TestDeterminism:
    def test_enumeration_is_reproducible(self):
        a = enumerate_paths(3, range(1, 4))
        b = enumerate_paths(3, range(1, 4))
        assert a == b
        assert enumerate_ornaments(2, 4) == enumerate_ornaments(2, 4)
