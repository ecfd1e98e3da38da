"""One type rule for every entry point: an integer argument that is not an
int (a float, a bool, a str) or a container of the wrong shape is refused
with a ValueError naming the broken invariant, never a TypeError or an
AttributeError from deep inside, and never an answer."""

import operator
from fractions import Fraction

import pytest

from catlog import arith, catalan, multisets, series, verify
from catlog.multisets import CyclicMultiset
from catlog.paths import GoodPath, MinimalField, Ornament, is_good
from catlog.series import Series
from catlog.trees import CycleRootedTree, PlaneTree, RootMinimalForest

# each public numeric function called with one wrong-type argument, and
# the message it refuses it with: where it had one, the message it gave
# for an out-of-range value of that argument
NUMERIC = [
    (arith.factorial, (2.0,), "factorial needs n >= 0"),
    (arith.binomial, (4.0, 2), "binomial needs n >= 0"),
    (arith.binomial, (4, 2.0), "binomial needs n >= 0"),
    (arith.multichoose, (2.0, 1), "multichoose needs i >= 0 and j >= 0"),
    (arith.multichoose, (2, "1"), "multichoose needs i >= 0 and j >= 0"),
    (arith.harmonic, (2.0,), "harmonic needs m >= 0"),
    (catalan.gen_catalan, (True, 3), "gen_catalan needs k >= 1 and n >= 1"),
    (catalan.coeff_log, (2.0, 3), "coeff_log needs k >= 1 and n >= 1"),
    (catalan.returns_count, (2, 3.0, 1), "returns_count needs k >= 2 and n >= 1"),
    (catalan.returns_count, (2, 3, 1.0), "p must lie in 1..3, got 1.0"),
    (catalan.composition_sum, (3.0, 2), "composition_sum needs p >= 1 and a >= 1"),
    (catalan.coeff_log_power, (2, 3, 2.0), "coeff_log_power needs k >= 2, n >= 1, a >= 1"),
    (catalan.knuth_log2_coeff, (2.0,), "knuth_log2_coeff needs n >= 1"),
    (catalan.knuth_general_log2, (2, 3.0), "knuth_general_log2 needs k >= 2 and n >= 2"),
    (catalan.count_ornaments, (2, 3.0), "count_ornaments needs k >= 2 and n >= 1"),
    (catalan.count_paths, (2.0, 3), "count_paths needs k >= 2 and n >= 1"),
    (catalan.count_multisets, (2, "3"), "count_multisets needs k >= 2 and n >= 1"),
    (catalan.coeff_table, (2, 3.0), "coeff_table needs k >= 1, max_n >= 1, power >= 1"),
    (Series.x, (2.0,), "order must be >= 0"),
    (Series.one(3).__pow__, (True,), "only nonnegative integer powers are defined"),
    (Series.one(3).__getitem__, (True,), "a coefficient index must be an integer"),
    (Series.one(3).__getitem__, (1.0,), "a coefficient index must be an integer"),
    (operator.mul, (Series.one(1), True), "a coefficient must be an int or a Fraction"),
    (operator.mul, (True, Series.one(1)), "a coefficient must be an int or a Fraction"),
    (series.catalan_series, (2.0, 3), "catalan_series needs k >= 1"),
    (series.catalan_series, (2, 3.0), "order must be >= 0"),
    (multisets.multiset_unrank, (2.0, 2, 1), "multiset_unrank needs k >= 2 and n >= 1"),
    (multisets.multiset_unrank, (2, 2, 1.0), "rank 1.0 is outside [0, 3)"),
    (multisets.enumerate_multisets, (2, 2, "5"), "max_count must be None or an integer"),
    (verify.run_suite, ("series", [2], 3.0), "max_n must be >= 1"),
    (verify.run_suite, ("series", [2.0], 3), "k values must be >= 1"),
    (verify.run_suite, ("series", ["2", 3], 3), "k values must be >= 1"),
    (verify.run_suite, ("series", 5, 3), "k values must be >= 1"),
    (verify.run_suite, ("counts", [2], 2, [5]), "max_count must be None or an integer"),
]

P = GoodPath(2, "RU", (1,))

# constructors handed a container of the wrong shape where they hashed,
# iterated or dereferenced it before testing it
CONSTRUCTORS = [
    (CycleRootedTree, (2, [[1]], {}), "cycle labels must be positive integers"),
    (CycleRootedTree, (2, 5, {}), "the cycle must be a nonempty list of distinct labels"),
    (CyclicMultiset, (2, [[1]], {}), "cycle labels must be positive integers"),
    (CyclicMultiset, (2, (1,), 5), "f must be a dict or (label, vector) pairs"),
    (CyclicMultiset, (2, (1,), [(1,)]), "f must be a dict or (label, vector) pairs"),
    (CyclicMultiset, (2, (1,), {1: 5}), "multiplicity vector of 1 must have length k-1 = 1"),
    (GoodPath, (2, "RU", 5), "labels must be distinct positive integers"),
    (PlaneTree, (2, 1, 5), "slots must be a dict or (vertex, row) pairs"),
    (PlaneTree, (2, 1, [5]), "slots must be a dict or (vertex, row) pairs"),
    (PlaneTree, (2, 1, {1: 5}), "slot array of vertex 1 must have length 2"),
    (MinimalField, ([[1]],), "the parts of a field must be a collection of GoodPath"),
    (MinimalField, ([1],), "the parts of a field must be a collection of GoodPath"),
    (MinimalField, (P,), "the parts of a field must be a collection of GoodPath"),
    (RootMinimalForest, ([1],), "the parts of a forest must be a collection of PlaneTree"),
    (RootMinimalForest, (5,), "the parts of a forest must be a collection of PlaneTree"),
    (Ornament, (5,), "an ornament representative must be a GoodPath"),
    (Series, (5,), "coefficients must be a nonempty tuple or list, constant term first"),
    (Series, ("12",), "coefficients must be a nonempty tuple or list, constant term first"),
    (Series, ({1: 2},), "coefficients must be a nonempty tuple or list, constant term first"),
    (Series, ([None],), "a coefficient must be an int or a Fraction"),
    (Series, ([[1]],), "a coefficient must be an int or a Fraction"),
    (Series, ((True, 2),), "a coefficient must be an int or a Fraction"),
]


def ids(rows):
    return [f"{getattr(f, '__qualname__', f)}{args!r}" for f, args, _ in rows]


@pytest.mark.parametrize("function, args, message", NUMERIC, ids=ids(NUMERIC))
def test_numeric_api_refuses_a_number_that_is_not_an_int(function, args, message):
    with pytest.raises(ValueError) as refused:
        function(*args)
    assert str(refused.value) == message


@pytest.mark.parametrize("cls, args, message", CONSTRUCTORS, ids=ids(CONSTRUCTORS))
def test_constructors_refuse_a_wrong_container(cls, args, message):
    with pytest.raises(ValueError) as refused:
        cls(*args)
    assert str(refused.value) == message


def test_valid_calls_keep_their_answers():
    assert arith.binomial(4, -1) == arith.binomial(4, 5) == 0
    assert catalan.gen_catalan(1, 3) == 1
    assert catalan.returns_count(2, 3, 3) == 1
    assert Series.x(0) == Series((0,))
    assert Series.one(2) ** 0 == Series.one(2)
    assert series.catalan_series(2, 3)[3] == 5
    assert len(multisets.enumerate_multisets(2, 2, max_count=3)) == 3
    assert verify.run_suite("series", (k for k in (2, 1)), 2).overall
    assert multisets.multiset_unrank(2, 2, 2) == CyclicMultiset(2, (1, 2), {1: (2,), 2: (0,)})
    assert catalan.coeff_log(2, 3) == Fraction(10, 3)


@pytest.mark.parametrize("k", [2.0, True, "2"])
def test_is_good_is_false_for_a_k_that_is_not_an_int(k):
    assert not is_good(k, "RURU")
