import functools
import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from catlog.arith import binomial, factorial, harmonic
from catlog.catalan import (
    _stirling_column,
    coeff_log,
    coeff_log_power,
    coeff_table,
    composition_sum,
    count_multisets,
    count_ornaments,
    count_paths,
    gen_catalan,
    knuth_general_log2,
    knuth_log2_coeff,
    returns_count,
    table_to_csv,
    table_to_json,
)
from catlog.series import catalan_series


# -- independent oracles -------------------------------------------------------


def brute_words(k: int, n: int) -> list[str]:
    """Every word with n R's and (k-1)n U's that stays weakly below the
    diagonal, by filtering all step interleavings."""
    out = []
    for positions in itertools.combinations(range(k * n), n):
        word = ["U"] * (k * n)
        for i in positions:
            word[i] = "R"
        r = u = 0
        ok = True
        for ch in word:
            r, u = (r + 1, u) if ch == "R" else (r, u + 1)
            if u > (k - 1) * r:
                ok = False
                break
        if ok:
            out.append("".join(word))
    return out


def count_word_touches(k: int, word: str) -> int:
    """Diagonal meetings of an unlabeled word, origin counted, endpoint not."""
    r = u = touches = 0
    for ch in word:
        if ch == "R":
            if u == (k - 1) * r:
                touches += 1
            r += 1
        else:
            u += 1
    return touches


def compositions(p: int, a: int):
    """Literal enumeration of a-part compositions of p."""
    if a == 1:
        yield (p,)
        return
    for head in range(1, p - a + 2):
        for rest in compositions(p - head, a - 1):
            yield (head,) + rest


class TestGenCatalan:
    def test_classical_values(self):
        # (2n)!/((n+1)! n!) for n = 1..4
        classical = [factorial(2 * n) // (factorial(n + 1) * factorial(n)) for n in (1, 2, 3, 4)]
        assert classical == [1, 2, 5, 14]
        assert [gen_catalan(2, n) for n in (1, 2, 3, 4)] == classical

    def test_n_one(self):
        for k in range(1, 8):
            assert gen_catalan(k, 1) == 1

    def test_k3(self):
        assert gen_catalan(3, 2) == 3

    def test_counts_unlabeled_good_words(self):
        for k in (2, 3, 4):
            for n in (1, 2, 3, 4):
                assert gen_catalan(k, n) == len(brute_words(k, n)), (k, n)


class TestCoeffLog:
    def test_first(self):
        assert coeff_log(2, 1) == 1

    def test_against_series(self):
        lg = catalan_series(2, 8).log()
        assert coeff_log(2, 2) == lg[2] == Fraction(3, 2)
        assert coeff_log(2, 3) == lg[3] == Fraction(10, 3)

    def test_k1_gives_cycle_counts(self):
        for n in range(1, 12):
            assert coeff_log(1, n) == Fraction(1, n)


class TestReturnsCount:
    def test_by_word_enumeration(self):
        words = brute_words(2, 3)
        assert len(words) == 5
        hist = {p: 0 for p in (1, 2, 3)}
        for w in words:
            hist[count_word_touches(2, w)] += 1
        assert hist == {1: 2, 2: 2, 3: 1}
        assert [returns_count(2, 3, p) for p in (1, 2, 3)] == [2, 2, 1]

    def test_exhaustive_against_enumeration(self):
        for k in (2, 3, 4):
            for n in (1, 2, 3, 4):
                hist: dict[int, int] = {}
                for w in brute_words(k, n):
                    p = count_word_touches(k, w)
                    hist[p] = hist.get(p, 0) + 1
                for p in range(1, n + 1):
                    assert returns_count(k, n, p) == hist.get(p, 0), (k, n, p)

    def test_staircase(self):
        for k in (2, 3, 5):
            for n in (1, 2, 5):
                assert returns_count(k, n, n) == 1

    def test_two_two(self):
        assert returns_count(2, 2, 1) == 1  # RRUU
        assert returns_count(2, 2, 2) == 1  # RURU

    def test_ballot_formula_in_integers(self):
        # the exact quotient equals the formula taken in Fractions
        for k in (2, 3, 5):
            for n in range(1, 41):
                for p in range(1, n + 1):
                    got = returns_count(k, n, p)
                    assert type(got) is int
                    assert got == Fraction((k - 1) * p, k * n - p) * binomial(k * n - p, n - p)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            returns_count(2, 3, 0)
        with pytest.raises(ValueError):
            returns_count(2, 3, 4)

    def test_partition_of_all_words(self):
        for k in (2, 3, 4):
            for n in range(1, 11):
                total = sum(returns_count(k, n, p) for p in range(1, n + 1))
                assert total == gen_catalan(k, n), (k, n)


class TestCompositionSum:
    def test_single_part(self):
        for p in (1, 2, 7):
            assert composition_sum(p, 1) == Fraction(1, p)

    def test_two_two(self):
        assert composition_sum(2, 2) == 1

    def test_four_two(self):
        # (1,3), (2,2), (3,1) -> 1/3 + 1/4 + 1/3
        assert composition_sum(4, 2) == Fraction(11, 12)

    def test_empty(self):
        assert composition_sum(2, 5) == 0

    def test_against_enumeration(self):
        for p in range(1, 12):
            for a in range(1, p + 1):
                literal = sum(
                    Fraction(1, _product(q)) for q in compositions(p, a)
                )
                assert composition_sum(p, a) == literal, (p, a)

    def test_two_parts_are_harmonic(self):
        for p in range(2, 31):
            assert composition_sum(p, 2) == Fraction(2, p) * harmonic(p - 1)

    @settings(max_examples=40)
    @given(st.integers(1, 14), st.integers(1, 14))
    def test_dp_matches_enumeration(self, p, a):
        if a > p:
            assert composition_sum(p, a) == 0
        else:
            literal = sum(Fraction(1, _product(q)) for q in compositions(p, a))
            assert composition_sum(p, a) == literal


@functools.lru_cache(maxsize=None)
def composition_sum_dp(p: int, a: int) -> Fraction:
    """Oracle: dynamic programming over (parts used, total reached), which
    shares nothing with the Stirling identity of composition_sum."""
    if a > p:
        return Fraction(0)
    table = [[Fraction(0)] * (p + 1) for _ in range(a + 1)]
    table[0][0] = Fraction(1)
    for j in range(1, a + 1):
        for m in range(j, p + 1):
            acc = Fraction(0)
            for q in range(1, m - j + 2):
                acc += table[j - 1][m - q] / q
            table[j][m] = acc
    return table[a][p]


def coeff_log_power_per_p(k: int, n: int, a: int) -> Fraction:
    """Oracle: the diagonal-return sum with a fresh returns_count, and its
    binomial, for every p, over the common denominator n!."""
    if n < a:
        return Fraction(0)
    stirling = _stirling_column(n, a)
    total, falling = 0, 1  # falling = n!/p!
    for p in range(n, a - 1, -1):
        total += returns_count(k, n, p) * stirling[p] * falling
        falling *= p
    return Fraction(factorial(a) * total, factorial(n))


def harmonic_per_term(m: int) -> Fraction:
    """Oracle: H_m as a Fraction sum, one term 1/i at a time."""
    total = Fraction(0)
    for i in range(1, m + 1):
        total += Fraction(1, i)
    return total


def knuth_general_log2_per_p(k: int, n: int) -> Fraction:
    """Oracle: 2 * sum_p ((k-1)/(kn-p)) * C(kn-p, n-p) * H_{p-1}, one
    Fraction term per p."""
    total = Fraction(0)
    h = Fraction(0)  # H_{p-1}, carried from one p to the next
    for p in range(2, n + 1):
        h += Fraction(1, p - 1)
        total += Fraction(k - 1, k * n - p) * binomial(k * n - p, n - p) * h
    return 2 * total


def _product(qs) -> int:
    acc = 1
    for q in qs:
        acc *= q
    return acc


class TestCoeffLogPower:
    def test_power_one_collapses(self):
        for k in (2, 3, 4):
            for n in range(1, 9):
                assert coeff_log_power(k, n, 1) == coeff_log(k, n)

    def test_small_squares(self):
        assert coeff_log_power(2, 2, 2) == 1
        assert coeff_log_power(2, 3, 2) == 3

    def test_below_valuation(self):
        assert coeff_log_power(2, 1, 2) == 0
        assert coeff_log_power(3, 2, 3) == 0

    def test_against_per_p_dp(self):
        for k in (2, 3, 4, 5):
            for n in range(1, 31):
                for a in (1, 2, 3, 4):
                    dp = sum((returns_count(k, n, p) * composition_sum_dp(p, a)
                              for p in range(a, n + 1)), Fraction(0))
                    assert coeff_log_power(k, n, a) == dp, (k, n, a)

    def test_deep_against_closed_forms(self):
        # order in the hundreds: the diagonal-return sum against the
        # factorial form (a = 1) and both harmonic forms (a = 2). With a
        # composition-sum DP for every p, the k = 2 loop took 63 s up to
        # n = 100 alone (one core of a 2-core x86 machine), and its cost
        # grows as n^4.
        for n in range(1, 201):
            assert coeff_log_power(2, n, 1) == coeff_log(2, n), n
            if n >= 2:
                assert coeff_log_power(2, n, 2) == knuth_log2_coeff(n) == knuth_general_log2(2, n), n
        for n in range(2, 101):
            assert coeff_log_power(3, n, 2) == knuth_general_log2(3, n), n

    def test_against_series(self):
        for k in (2, 3):
            lg = catalan_series(k, 10).log()
            for a in (1, 2, 3):
                powered = lg**a
                for n in range(1, 11):
                    assert coeff_log_power(k, n, a) == powered[n], (k, n, a)

    def test_against_per_p_forms(self):
        for k in range(2, 7):
            for n in range(1, 81):
                for a in range(1, 6):
                    assert coeff_log_power(k, n, a) == coeff_log_power_per_p(k, n, a), (k, n, a)


class TestHarmonicForms:
    def test_valuation(self):
        assert knuth_log2_coeff(1) == 0

    def test_small(self):
        assert knuth_log2_coeff(2) == Fraction(1, 2) * 6 * (Fraction(11, 6) - Fraction(3, 2)) == 1
        assert knuth_log2_coeff(3) == 3

    def test_equals_returns_form(self):
        for n in range(1, 21):
            assert knuth_log2_coeff(n) == coeff_log_power(2, n, 2)

    def test_general_form_small(self):
        assert knuth_general_log2(2, 2) == 1

    def test_general_form_matches_k2(self):
        for n in range(2, 21):
            assert knuth_general_log2(2, n) == knuth_log2_coeff(n)

    def test_general_form_k3(self):
        assert knuth_general_log2(3, 2) == coeff_log_power(3, 2, 2)
        lg2 = catalan_series(3, 6).log() ** 2
        for n in range(2, 7):
            assert knuth_general_log2(3, n) == lg2[n]

    def test_against_per_p_forms(self):
        for k in range(2, 7):
            for n in range(2, 81):
                assert knuth_general_log2(k, n) == knuth_general_log2_per_p(k, n), (k, n)
        for m in range(160):
            assert harmonic(m) == harmonic_per_term(m), m


class TestStructureCounts:
    def test_ornament_counts(self):
        assert count_ornaments(2, 1) == 1
        assert count_ornaments(2, 2) == 3
        assert count_ornaments(3, 2) == factorial(5) // factorial(4) == 5

    def test_path_counts(self):
        for k in (2, 3, 5):
            assert count_paths(k, 1) == 1
        assert count_paths(2, 2) == 4
        assert count_paths(3, 2) == 6

    def test_path_count_is_egf_count(self):
        for k in (2, 3, 4):
            for n in range(1, 9):
                assert count_paths(k, n) == factorial(n) * gen_catalan(k, n)

    def test_ornament_count_is_egf_of_log(self):
        for k in (2, 3, 4):
            for n in range(1, 9):
                assert count_ornaments(k, n) == factorial(n) * coeff_log(k, n)

    def test_multiset_count(self):
        assert count_multisets(2, 2) == 3
        assert count_multisets(3, 2) == 10
        # the rooted ones are exactly a 1/(k-1) fraction
        for k in (2, 3, 4, 5):
            for n in range(1, 9):
                assert count_multisets(k, n) == (k - 1) * count_ornaments(k, n)


class TestCoeffTable:
    def test_checked_table_matches(self):
        table = coeff_table(2, 6, power=1, check=True)
        assert all(r.match for r in table.rows)
        assert [str(r.closed_form) for r in table.rows[:3]] == ["1", "3/2", "10/3"]

    def test_deep_checked_tables_match(self):
        # every row of two deep tables against the series grown from
        # G = 1 + x*G^k; `catlog coeff --k 3 --max-n 60 --power 3 --check`
        # is pinned byte for byte in tests/test_cli.py
        for k, max_n, power in ((2, 100, 1), (3, 60, 3)):
            table = coeff_table(k, max_n, power, check=True)
            assert [r.n for r in table.rows] == list(range(1, max_n + 1))
            assert all(r.match for r in table.rows), (k, max_n, power)

    def test_power_two_valuation_row(self):
        table = coeff_table(2, 1, power=2, check=True)
        assert table.rows[0].closed_form == 0
        assert table.rows[0].match

    def test_unchecked_table(self):
        table = coeff_table(3, 4)
        assert all(r.series_value is None and r.match is None for r in table.rows)

    def test_k1_power_limits(self):
        assert [str(r.closed_form) for r in coeff_table(1, 4).rows] == [
            "1", "1/2", "1/3", "1/4",
        ]
        with pytest.raises(ValueError):
            coeff_table(1, 4, power=2)

    def test_csv(self):
        text = table_to_csv(coeff_table(2, 2, check=True))
        lines = text.strip().splitlines()
        assert lines[0] == "n,closed_form,series_value,match"
        assert lines[1] == "1,1/1,1/1,true"
        assert lines[2] == "2,3/2,3/2,true"

    def test_json(self):
        obj = table_to_json(coeff_table(2, 2))
        text = json.dumps(obj)  # must be serializable
        assert json.loads(text)["rows"][1]["closed_form"] == "3/2"
