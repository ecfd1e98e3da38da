import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from catlog.arith import (
    binomial,
    factorial,
    format_rational,
    harmonic,
    multichoose,
)


def pascal_triangle(rows: int) -> list[list[int]]:
    """Independent oracle: build C(n, r) purely from the addition rule."""
    tri = [[1]]
    for n in range(1, rows + 1):
        prev = tri[-1]
        row = [1]
        for r in range(1, n):
            row.append(prev[r - 1] + prev[r])
        row.append(1)
        tri.append(row)
    return tri


class TestFactorial:
    def test_empty_product(self):
        assert factorial(0) == 1

    def test_small(self):
        assert factorial(5) == 120

    def test_twelve_by_repeated_multiplication(self):
        acc = 1
        for i in range(1, 13):
            acc *= i
        assert acc == 479001600
        assert factorial(12) == acc

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            factorial(-1)


class TestBinomial:
    def test_examples(self):
        assert binomial(4, 1) == 4
        assert binomial(10, 4) == 210  # pascal_triangle(10)[10][4]
        assert binomial(3, 5) == 0
        assert binomial(3, -1) == 0

    def test_against_pascal_rule_exhaustive(self):
        tri = pascal_triangle(64)
        for n in range(65):
            for r in range(n + 1):
                assert binomial(n, r) == tri[n][r]

    def test_pascal_recurrence_holds(self):
        for n in range(1, 65):
            for r in range(-1, n + 2):
                assert binomial(n, r) == binomial(n - 1, r - 1) + binomial(n - 1, r)

    @given(st.integers(0, 300), st.integers(-5, 305))
    def test_symmetry(self, n, r):
        assert binomial(n, r) == binomial(n, n - r)


class TestMultichoose:
    def test_examples(self):
        assert multichoose(2, 2) == 3  # {1,1} {1,2} {2,2}
        assert multichoose(5, 0) == 1
        assert multichoose(3, 2) == 6

    def test_against_enumeration(self):
        for i in range(1, 7):
            for j in range(6):
                count = len(list(itertools.combinations_with_replacement(range(i), j)))
                assert multichoose(i, j) == count

    def test_factorial_identity(self):
        # multichoose(i, j) * j! * (i-1)! == (i+j-1)! for i >= 1
        for i in range(1, 21):
            for j in range(21):
                assert multichoose(i, j) * factorial(j) * factorial(i - 1) == factorial(
                    i + j - 1
                )

    def test_empty_symbol_set(self):
        assert multichoose(0, 0) == 1
        with pytest.raises(ValueError):
            multichoose(0, 3)


class TestHarmonic:
    def test_examples(self):
        assert harmonic(0) == 0
        assert harmonic(2) == Fraction(3, 2)
        assert harmonic(3) == sum(Fraction(1, i) for i in range(1, 4)) == Fraction(11, 6)

    def test_difference_property(self):
        for m in range(1, 201):
            assert harmonic(m) - harmonic(m - 1) == Fraction(1, m)

    def test_canonical_form(self):
        for m in range(0, 60):
            h = harmonic(m)
            assert h.denominator > 0
            # Fraction reduces on construction; re-reducing changes nothing
            assert Fraction(h.numerator, h.denominator) == h


class TestRationalStrings:
    def test_format(self):
        assert format_rational(Fraction(3, 2)) == "3/2"
        assert format_rational(7) == "7/1"
        assert format_rational(Fraction(-1, 3)) == "-1/3"

    @given(st.fractions(max_denominator=10**9))
    def test_roundtrip(self, q):
        assert Fraction(format_rational(q)) == q
