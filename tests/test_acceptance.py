"""Release gate: every identity the library promises, checked exactly.

One test per criterion; each prints a single PASS/FAIL line so a full
run reads as a checklist. All comparisons are exact (integers and
rationals), there are no tolerances anywhere.
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache

from catlog.arith import binomial, factorial, multichoose
from catlog.catalan import (
    coeff_log,
    coeff_log_power,
    count_multisets,
    count_ornaments,
    count_paths,
    knuth_general_log2,
    knuth_log2_coeff,
    returns_count,
)
from catlog.multisets import (
    cycle_tree_to_multiset,
    cycle_tree_to_ornament,
    enumerate_multisets,
    multiset_to_cycle_tree,
    multiset_to_ornament,
    ornament_to_cycle_tree,
    ornament_to_multiset,
    root_vertices,
)
from catlog.paths import (
    decompose,
    diagonal_touches,
    enumerate_fields,
    enumerate_ornaments,
    enumerate_paths,
    is_label_minimal,
    recompose,
    touch_count,
)
from catlog.series import Series, catalan_series
from catlog.trees import (
    enumerate_cycle_rooted,
    enumerate_trees,
    forest_to_tree,
    is_root_minimal,
    to_cycle_rooted,
    to_root_minimal,
    tree_to_forest,
)

GRID = [(2, n) for n in range(1, 6)] + [(3, n) for n in range(1, 5)] + [(4, n) for n in range(1, 4)]


def gate(name: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {name}")
    assert ok, name


@lru_cache(maxsize=None)
def paths_on(k, n):
    return tuple(enumerate_paths(k, range(1, n + 1)))


@lru_cache(maxsize=None)
def ornaments_on(k, n):
    return tuple(enumerate_ornaments(k, n))


@lru_cache(maxsize=None)
def trees_on(k, n):
    return tuple(enumerate_trees(k, range(1, n + 1)))


@lru_cache(maxsize=None)
def cycle_trees_on(k, n):
    return tuple(enumerate_cycle_rooted(k, n))


@lru_cache(maxsize=None)
def multisets_on(k, n):
    return tuple(enumerate_multisets(k, n))


@lru_cache(maxsize=None)
def rooted_multisets_on(k, n):
    return tuple(m for m in multisets_on(k, n) if root_vertices(m))


def test_1_series_formula_agreement():
    ok = True
    for k in (1, 2, 3, 4, 5):
        log_series = catalan_series(k, 12).log()
        for n in range(1, 13):
            ok = ok and coeff_log(k, n) == log_series[n]
    gate("log coefficients: closed form equals series expansion "
         "(k in 1..5, n in 1..12, exact)", ok)


def test_2_higher_powers():
    ok = True
    for k in (2, 3):
        log_series = catalan_series(k, 10).log()
        for a in (2, 3):
            powered = log_series**a
            for n in range(1, 11):
                ok = ok and coeff_log_power(k, n, a) == powered[n]
    gate("log-power coefficients: return-count sum equals series power "
         "(k in {2,3}, a in {2,3}, n <= 10, exact)", ok)


def test_3_harmonic_square_identity():
    ok = True
    for n in range(2, 21):
        harmonic_form = knuth_log2_coeff(n)
        ok = ok and harmonic_form == coeff_log_power(2, n, 2)
        ok = ok and harmonic_form == knuth_general_log2(2, n)
    gate("squared-log coefficients: both harmonic forms equal the "
         "return-count sum (k=2, 2 <= n <= 20, exact)", ok)


def test_4_count_identities():
    ok = True
    for k, n in GRID:
        expected = count_ornaments(k, n)  # (kn-1)!/(kn-n)!
        n_paths = len(paths_on(k, n))
        minimal_paths = sum(1 for p in paths_on(k, n) if is_label_minimal(p))
        minimal_trees = sum(1 for t in trees_on(k, n) if is_root_minimal(t))

        ok = ok and n_paths == factorial(n - 1) * binomial(k * n, n - 1) == count_paths(k, n)
        ok = ok and len(trees_on(k, n)) == n_paths
        ok = ok and minimal_paths == expected
        ok = ok and len(ornaments_on(k, n)) == expected
        ok = ok and minimal_trees == expected
        ok = ok and len(cycle_trees_on(k, n)) == expected
        ok = ok and len(rooted_multisets_on(k, n)) == expected
        ok = ok and len(multisets_on(k, n)) == factorial(n - 1) * multichoose(
            (k - 1) * n, n
        ) == count_multisets(k, n)
        ok = ok and (k - 1) * len(rooted_multisets_on(k, n)) == len(multisets_on(k, n))
    gate("exhaustive counts match the closed counting formulas on the "
         "whole grid (exact)", ok)


def test_5_bijection_roundtrips():
    ok = True
    for k, n in GRID:
        all_paths = paths_on(k, n)
        field_images = {decompose(p) for p in all_paths}
        ok = ok and all(recompose(decompose(p)) == p for p in all_paths)
        ok = ok and len(field_images) == len(all_paths)

        all_trees = trees_on(k, n)
        forest_images = {tree_to_forest(t) for t in all_trees}
        ok = ok and all(forest_to_tree(tree_to_forest(t)) == t for t in all_trees)
        ok = ok and len(forest_images) == len(all_trees)

        minimal = [t for t in all_trees if is_root_minimal(t)]
        ok = ok and all(to_root_minimal(to_cycle_rooted(t)) == t for t in minimal)
        ok = ok and all(
            to_cycle_rooted(to_root_minimal(c)) == c for c in cycle_trees_on(k, n)
        )

        rooted = set(rooted_multisets_on(k, n))
        path_codes = {ornament_to_multiset(o) for o in ornaments_on(k, n)}
        ok = ok and all(
            multiset_to_ornament(ornament_to_multiset(o)) == o
            for o in ornaments_on(k, n)
        )
        ok = ok and len(path_codes) == len(ornaments_on(k, n))
        ok = ok and path_codes == rooted

        tree_codes = {cycle_tree_to_multiset(c) for c in cycle_trees_on(k, n)}
        ok = ok and all(
            multiset_to_cycle_tree(cycle_tree_to_multiset(c)) == c
            for c in cycle_trees_on(k, n)
        )
        ok = ok and len(tree_codes) == len(cycle_trees_on(k, n))
        ok = ok and tree_codes == rooted
    gate("all five bijections round-trip, are injective, and the two "
         "encodings land exactly on the rooted multisets", ok)


def test_6_statistic_preservation():
    ok = True
    for k, n in GRID:
        orns = ornaments_on(k, n)
        for o in orns:
            carried = ornament_to_cycle_tree(o)
            ok = ok and set(carried.cycle) == {lab for _, lab in diagonal_touches(o.rep)}
        touch_dist = Counter(touch_count(o) for o in orns)
        cycle_dist = Counter(len(c.cycle) for c in cycle_trees_on(k, n))
        expected = {
            p: factorial(n) * returns_count(k, n, p) // p for p in range(1, n + 1)
        }
        expected = Counter({p: c for p, c in expected.items() if c})
        ok = ok and touch_dist == cycle_dist == expected
    gate("touch labels become the root cycle, and the touch-count and "
         "cycle-length distributions both equal n! * c_p / p", ok)


def test_7_field_egf_consistency():
    ok = True
    for n in range(1, 6):
        for a in range(1, 4):
            fields = enumerate_fields(2, n, a)
            got = Fraction(len(fields) * factorial(a), factorial(n))
            ok = ok and got == coeff_log_power(2, n, a)
    gate("field counts times a!/n! equal the log-power coefficients "
         "(k=2, n <= 5, a <= 3, exact)", ok)


def test_8_defining_equation_closure():
    ok = True
    order = 12
    for k in (1, 2, 3):
        f = catalan_series(k, order).log()
        residual = f.exp() - Series.one(order) - Series.x(order) * (k * f).exp()
        ok = ok and residual.is_zero()
    gate("with F the log of the Catalan series, exp(F) - 1 - x*exp(k*F) "
         "vanishes through order 12 (k in {1,2,3})", ok)
