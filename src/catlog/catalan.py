"""Closed-form coefficient formulas around generalized Catalan numbers.

Everything returns exact integers or Fractions. Each formula has an
independent counterpart elsewhere (series expansion or exhaustive
enumeration); nothing here is trusted on its own.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ._trusted import Record
from .arith import binomial, factorial, format_rational, harmonic, multichoose
from .errors import check_ints
from . import series as fps


def gen_catalan(k: int, n: int) -> int:
    """Generalized Catalan number C(kn, n-1) / n (the quotient is exact)."""
    check_ints("gen_catalan needs k >= 1 and n >= 1", (k, 1), (n, 1))
    q, r = divmod(binomial(k * n, n - 1), n)
    assert r == 0, "C(kn, n-1) is always divisible by n"
    return q


def coeff_log(k: int, n: int) -> Fraction:
    """Coefficient of x^n in the log of the Catalan series: (kn-1)!/((kn-n)!*n!)."""
    check_ints("coeff_log needs k >= 1 and n >= 1", (k, 1), (n, 1))
    return Fraction(factorial(k * n - 1), factorial(k * n - n) * factorial(n))


def returns_count(k: int, n: int, p: int) -> int:
    """Unlabeled good paths of size n that meet the diagonal exactly p times
    (origin counted, endpoint not): ((kp-p)/(kn-p)) * C(kn-p, n-p)."""
    check_ints("returns_count needs k >= 2 and n >= 1", (k, 2), (n, 1))
    out_of_range = f"p must lie in 1..{n}, got {p}"
    check_ints(out_of_range, (p, 1))
    if p > n:
        raise ValueError(out_of_range)
    q, r = divmod((k - 1) * p * binomial(k * n - p, n - p), k * n - p)
    assert r == 0, "the ballot count (k-1)p/(kn-p) * C(kn-p, n-p) is an integer"
    return q


def _stirling_column(n: int, a: int) -> list[int]:
    """Unsigned Stirling numbers of the first kind c(p, a) for p = 0..n:
    the permutations of p elements with exactly a cycles, row by row from
    c(p, j) = c(p-1, j-1) + (p-1)*c(p-1, j)."""
    row = [1] + [0] * a  # c(0, j) for j = 0..a
    column = [row[a]]
    for p in range(1, n + 1):
        for j in range(a, 0, -1):
            row[j] = row[j - 1] + (p - 1) * row[j]
        row[0] = 0
        column.append(row[a])
    return column


def composition_sum(p: int, a: int) -> Fraction:
    """Sum of 1/(q_1*...*q_a) over all a-part compositions of p, which is
    a!*c(p, a)/p! with c the unsigned Stirling numbers of the first kind.

    Proof by double counting the sequences (C_1, ..., C_a) of a cycles
    whose vertex sets partition {1..p}. For fixed sizes (q_1, ..., q_a),
    choose the vertex sets in p!/(q_1!*...*q_a!) ways and close each set
    of q elements into a cycle in (q-1)! ways: p!/(q_1*...*q_a) sequences.
    Summed over the compositions q this is p! times the left side. Each
    such sequence is also a permutation of p elements with a cycles, listed
    in one of a! orders, so there are a!*c(p, a) of them.

    The literal composition enumeration lives in the tests as an oracle.
    Returns 0 when a > p (no compositions).
    """
    check_ints("composition_sum needs p >= 1 and a >= 1", (p, 1), (a, 1))
    return Fraction(factorial(a) * _stirling_column(p, a)[p], factorial(p))


def coeff_log_power(k: int, n: int, a: int) -> Fraction:
    """Coefficient of x^n in the a-th power of the log of the Catalan series.

    Computed as the diagonal-return sum over p of W(p) = returns_count(k, n, p)
    times composition_sum(p, a) = a!*c(p, a)/p!, so it stays independent
    of both the factorial form in coeff_log and the series expansion. The
    terms W are walked down from W(n) = 1 by their ratio
    W(p-1)/W(p) = (p-1)(kn-p) / (p(n-p+1)), each an exact integer quotient;
    one Stirling column serves every p, and the sum is kept in integers
    over the common denominator n!. Zero for n < a (the a-th log power has
    valuation a).
    """
    check_ints("coeff_log_power needs k >= 2, n >= 1, a >= 1", (k, 2), (n, 1), (a, 1))
    if n < a:
        return Fraction(0)
    stirling = _stirling_column(n, a)
    total, falling, w = 0, 1, 1  # falling = n!/p!, w = W(p)
    for p in range(n, a - 1, -1):
        total += w * stirling[p] * falling
        falling *= p
        w, r = divmod(w * (p - 1) * (k * n - p), p * (n - p + 1))
        assert r == 0, "W(p-1) = returns_count(k, n, p-1) is an integer"
    return Fraction(factorial(a) * total, factorial(n))


def knuth_log2_coeff(n: int) -> Fraction:
    """Squared-log coefficient for k=2 in harmonic form:
    (1/n) * C(2n, n) * (H_{2n-1} - H_n)."""
    check_ints("knuth_log2_coeff needs n >= 1", (n, 1))
    return Fraction(binomial(2 * n, n), n) * (harmonic(2 * n - 1) - harmonic(n))


def knuth_general_log2(k: int, n: int) -> Fraction:
    """Squared-log coefficient for general k >= 2 in harmonic form:
    2 * sum_p ((k-1)/(kn-p)) * C(kn-p, n-p) * H_{p-1}.

    The summand's ballot factor (k-1)/(kn-p) * C(kn-p, n-p) is
    C(kn-p-1, n-p)/n, walked down from 1 at p = n by the ratio
    (kn-p)/(n-p+1), and D*H_{p-1} is an integer for D = lcm(1..n): the
    sum is kept in integers over n*D."""
    check_ints("knuth_general_log2 needs k >= 2 and n >= 2", (k, 2), (n, 2))
    d = math.lcm(*range(1, n + 1))
    h = sum(d // i for i in range(1, n))  # D*H_{p-1}
    total, b = 0, 1  # b = C(kn-p-1, n-p)
    for p in range(n, 1, -1):
        total += b * h
        h -= d // (p - 1)
        b, r = divmod(b * (k * n - p), n - p + 1)
        assert r == 0, "C(kn-p, n-p+1) is an integer"
    return Fraction(2 * total, n * d)


def count_ornaments(k: int, n: int) -> int:
    """(kn-1)!/(kn-n)!, the number of ornaments (and of several structures
    in bijection with them) on n labels."""
    check_ints("count_ornaments needs k >= 2 and n >= 1", (k, 2), (n, 1))
    return factorial(k * n - 1) // factorial(k * n - n)


def count_paths(k: int, n: int) -> int:
    """Labeled good paths on n labels: n! * gen_catalan(k, n) = (n-1)! * C(kn, n-1)."""
    check_ints("count_paths needs k >= 2 and n >= 1", (k, 2), (n, 1))
    return factorial(n - 1) * binomial(k * n, n - 1)


def count_multisets(k: int, n: int) -> int:
    """Cyclically ordered multisets on n labels: (n-1)! * multichoose((k-1)n, n)."""
    check_ints("count_multisets needs k >= 2 and n >= 1", (k, 2), (n, 1))
    return factorial(n - 1) * multichoose((k - 1) * n, n)


# -- coefficient tables -------------------------------------------------------


class CoeffRow(Record):
    n: int
    closed_form: Fraction
    series_value: Fraction | None
    match: bool | None


class CoeffTable(Record):
    k: int
    power: int
    rows: tuple[CoeffRow, ...]


def coeff_table(k: int, max_n: int, power: int = 1, check: bool = False) -> CoeffTable:
    """Tabulate closed-form log-power coefficients, optionally against the
    series expansion computed from scratch."""
    check_ints("coeff_table needs k >= 1, max_n >= 1, power >= 1",
               (k, 1), (max_n, 1), (power, 1))
    if k == 1 and power > 1:
        raise ValueError("closed forms for higher log powers need k >= 2")
    if check:
        powered = fps.catalan_series(k, max_n).log() ** power
    rows = []
    for n in range(1, max_n + 1):
        closed = coeff_log(k, n) if power == 1 else coeff_log_power(k, n, power)
        if check:
            value = powered[n]
            rows.append(CoeffRow(n, closed, value, closed == value))
        else:
            rows.append(CoeffRow(n, closed, None, None))
    return CoeffTable(k, power, tuple(rows))


def table_to_csv(table: CoeffTable) -> str:
    lines = ["n,closed_form,series_value,match"]
    for r in table.rows:
        sv = format_rational(r.series_value) if r.series_value is not None else ""
        mt = "" if r.match is None else str(r.match).lower()
        lines.append(f"{r.n},{format_rational(r.closed_form)},{sv},{mt}")
    return "\n".join(lines) + "\n"


def table_to_json(table: CoeffTable) -> dict:
    return {
        "k": table.k,
        "power": table.power,
        "rows": [
            {
                "n": r.n,
                "closed_form": format_rational(r.closed_form),
                "series_value": (
                    format_rational(r.series_value) if r.series_value is not None else None
                ),
                "match": r.match,
            }
            for r in table.rows
        ],
    }
