"""Truncated formal power series with exact rational coefficients.

A Series of order N stores the coefficients c_0 .. c_N and every
operation is exact modulo x^(N+1). Mixing truncation orders is an error
rather than a silent re-truncation, so that a wrong order in a
cross-check fails loudly instead of hiding a bug.

The series here exist to be the independent side of coefficient checks:
the generating function of generalized Catalan numbers is grown one order
at a time from its defining equation G = 1 + x*G^k, and log, exp and
integer powers are computed coefficient by coefficient, never from
closed forms.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ._trusted import Record, trusted
from .errors import check_ints


def _as_fraction(c) -> Fraction:
    if isinstance(c, float):
        raise TypeError("float coefficients are not exact; use Fraction or int")
    if isinstance(c, bool) or not isinstance(c, (int, Fraction)):
        raise ValueError("a coefficient must be an int or a Fraction")
    return Fraction(c)


def _series(coeffs: tuple[Fraction, ...]) -> "Series":
    """The series of `coeffs`, a tuple of Fractions, built by `trusted`:
    the constructor checks only what callers hand in."""
    return trusted(Series, coeffs=coeffs)


class Series(Record):
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if not isinstance(self.coeffs, (tuple, list)) or not self.coeffs:
            raise ValueError("coefficients must be a nonempty tuple or list, constant term first")
        object.__setattr__(self, "coeffs", tuple(map(_as_fraction, self.coeffs)))

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def one(order: int) -> "Series":
        check_ints("order must be >= 0", (order, 0))
        return _series((Fraction(1),) + (Fraction(0),) * order)

    @staticmethod
    def x(order: int) -> "Series":
        check_ints("order must be >= 0", (order, 0))
        return _series(((Fraction(0), Fraction(1)) + (Fraction(0),) * order)[:order + 1])

    # -- basics --------------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> Fraction:
        check_ints("a coefficient index must be an integer", (n, -math.inf))
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} is beyond truncation order {self.order}")
        return self.coeffs[n]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def _match(self, other: "Series") -> None:
        if self.order != other.order:
            raise ValueError(
                f"truncation order mismatch: {self.order} vs {other.order}"
            )

    # -- ring operations -----------------------------------------------------

    def __add__(self, other: "Series") -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        self._match(other)
        return _series(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Series") -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        self._match(other)
        return _series(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "Series":
        return _series(tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        """The product at the common order, or the scalar multiple. `s * s`
        takes each cross product c_i*c_j, i < j, once and doubles it, about
        half the products; exact, so the same Fractions in lowest terms."""
        if isinstance(other, Series):
            self._match(other)
            n = self.order
            if other is self:
                c, out = self.coeffs, []
                for m in range(n + 1):
                    s = Fraction(0)
                    for i in range((m + 1) // 2):  # i < m - i
                        if c[i] and c[m - i]:
                            s += c[i] * c[m - i]
                    s += s
                    if not m % 2 and c[m // 2]:
                        s += c[m // 2] * c[m // 2]
                    out.append(s)
                return _series(tuple(out))
            out = [Fraction(0)] * (n + 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j in range(n + 1 - i):
                    b = other.coeffs[j]
                    if b != 0:
                        out[i + j] += a * b
            return _series(tuple(out))
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)  # refuses a bool
            return _series(tuple(a * c for a in self.coeffs))
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, a: int) -> "Series":
        """self**a by square and multiply over a's bits, highest first:
        floor(log2 a) squares and popcount(a) - 1 products by self, every
        one a Series product (Knuth, TAOCP vol. 2, 4.6.3). s**0 is
        Series.one and s**1 is s itself."""
        check_ints("only nonnegative integer powers are defined", (a, 0))
        if not a:
            return Series.one(self.order)
        result = self
        for bit in bin(a)[3:]:  # the bits after the leading 1
            result = result * result
            if bit == "1":
                result = result * self
        return result

    # -- log and exp ---------------------------------------------------------

    def log(self) -> "Series":
        """Series L with L(0) = 0 and exp(L) = self; needs constant term 1.

        Computed from self * L' = self', integrating termwise, which keeps
        every step an exact rational operation.
        """
        if self.coeffs[0] != 1:
            raise ValueError("log needs constant term 1")
        n = self.order
        c = self.coeffs
        deriv: list[Fraction] = []  # coefficients of L'
        for m in range(n):
            s = (m + 1) * c[m + 1]
            for j in range(1, m + 1):
                s -= c[j] * deriv[m - j]
            deriv.append(s)
        out = [Fraction(0)] * (n + 1)
        for m in range(1, n + 1):
            out[m] = deriv[m - 1] / m
        return _series(tuple(out))

    def exp(self) -> "Series":
        """Series E with E(0) = 1 and log(E) = self; needs constant term 0."""
        if self.coeffs[0] != 0:
            raise ValueError("exp needs constant term 0")
        n = self.order
        c = self.coeffs
        deriv = [i * c[i] for i in range(1, n + 1)]  # coefficients of self'
        out = [Fraction(1)] + [Fraction(0)] * n
        for m in range(n):
            s = Fraction(0)
            for j in range(m + 1):
                s += deriv[m - j] * out[j]
            out[m + 1] = s / (m + 1)
        return _series(tuple(out))


def catalan_series(k: int, order: int) -> Series:
    """Generating function of generalized Catalan numbers, truncated.

    The unique series G with constant term 1 satisfying G = 1 + x*G^k.
    If g holds G exactly to order m-1, so does g^k, and 1 + x*g^k holds it
    exactly to order m, since its x^m coefficient reads only g^k's x^(m-1);
    so round m prepends 1 to g^k, multiplying at order m-1 only.
    """
    check_ints("catalan_series needs k >= 1", (k, 1))
    check_ints("order must be >= 0", (order, 0))
    g = Series.one(0)
    for _ in range(order):
        g = _series((Fraction(1),) + (g**k).coeffs)
    return g
