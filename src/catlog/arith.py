"""Exact integer and rational arithmetic helpers.

Python integers are arbitrary precision and fractions.Fraction always
stores values in lowest terms with a positive denominator, so both meet
the exactness requirements as-is. This module adds the elementary
counting functions everything else consumes, plus the string form used
for rationals in JSON and CSV output.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import check_ints


def factorial(n: int) -> int:
    """n! for n >= 0."""
    check_ints("factorial needs n >= 0", (n, 0))
    return math.factorial(n)


def binomial(n: int, r: int) -> int:
    """C(n, r); zero outside 0 <= r <= n."""
    check_ints("binomial needs n >= 0", (n, 0), (r, -math.inf))  # any int r
    if r < 0 or r > n:
        return 0
    return math.comb(n, r)


def multichoose(i: int, j: int) -> int:
    """Number of size-j multisets over i symbols, C(i+j-1, j)."""
    check_ints("multichoose needs i >= 0 and j >= 0", (i, 0), (j, 0))
    if j == 0:
        return 1
    if i == 0:
        raise ValueError("no nonempty multiset over zero symbols")
    return math.comb(i + j - 1, j)


def harmonic(m: int) -> Fraction:
    """Sum of 1/i for i = 1..m, exactly; harmonic(0) = 0."""
    check_ints("harmonic needs m >= 0", (m, 0))
    d = math.lcm(*range(1, m + 1))  # every 1/i is (d // i)/d
    return Fraction(sum(d // i for i in range(1, m + 1)), d)


def format_rational(q) -> str:
    """Exact "num/den" form, used wherever rationals leave the process."""
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"

