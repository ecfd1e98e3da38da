"""Truncated formal power series with exact rational coefficients.

A Series of order N stores the coefficients c_0 .. c_N and every
operation is exact modulo x^(N+1). Mixing truncation orders is an error
rather than a silent re-truncation, so that a wrong order in a
cross-check fails loudly instead of hiding a bug.

The series here exist to be the independent side of coefficient checks:
the generating function of generalized Catalan numbers is produced by
fixed-point iteration on its defining equation G = 1 + x*G^k, and log,
exp and integer powers are computed coefficient by coefficient, never
from closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import format_rational, parse_rational
from .errors import check_ints


def _as_fraction(c) -> Fraction:
    if isinstance(c, float):
        raise TypeError("float coefficients are not exact; use Fraction or int")
    return Fraction(c)


@dataclass(frozen=True)
class Series:
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        try:
            empty = len(self.coeffs) < 1
        except TypeError:  # no collection of coefficients
            empty = True
        if empty:
            raise ValueError("a series needs at least its constant coefficient")
        object.__setattr__(self, "coeffs", tuple(_as_fraction(c) for c in self.coeffs))

    # -- construction helpers ------------------------------------------------

    @classmethod
    def constant(cls, value, order: int) -> "Series":
        check_ints("order must be >= 0", (order, 0))
        return cls((_as_fraction(value),) + (Fraction(0),) * order)

    @classmethod
    def zero(cls, order: int) -> "Series":
        return cls.constant(0, order)

    @classmethod
    def one(cls, order: int) -> "Series":
        return cls.constant(1, order)

    @classmethod
    def x(cls, order: int) -> "Series":
        check_ints("order must be >= 0", (order, 0))
        if order < 1:
            return cls.zero(order)
        return cls((Fraction(0), Fraction(1)) + (Fraction(0),) * (order - 1))

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
        return Series(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Series") -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        self._match(other)
        return Series(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "Series":
        return Series(tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, Series):
            self._match(other)
            n = self.order
            out = [Fraction(0)] * (n + 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j in range(n + 1 - i):
                    b = other.coeffs[j]
                    if b != 0:
                        out[i + j] += a * b
            return Series(tuple(out))
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            return Series(tuple(a * c for a in self.coeffs))
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, a: int) -> "Series":
        check_ints("only nonnegative integer powers are defined", (a, 0))
        result = Series.one(self.order)
        for _ in range(a):
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
        return Series(tuple(out))

    def exp(self) -> "Series":
        """Series E with E(0) = 1 and log(E) = self; needs constant term 0."""
        if self.coeffs[0] != 0:
            raise ValueError("exp needs constant term 0")
        n = self.order
        c = self.coeffs
        out = [Fraction(1)] + [Fraction(0)] * n
        for m in range(n):
            s = Fraction(0)
            for j in range(m + 1):
                s += (m + 1 - j) * c[m + 1 - j] * out[j]
            out[m + 1] = s / (m + 1)
        return Series(tuple(out))

    # -- presentation ----------------------------------------------------------

    def __str__(self) -> str:
        terms = []
        for i, c in enumerate(self.coeffs):
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*x")
            else:
                terms.append(f"{c}*x^{i}")
        return " + ".join(terms) + f" + O(x^{self.order + 1})"

    def to_json(self) -> list[str]:
        return [format_rational(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, items) -> "Series":
        return cls(tuple(parse_rational(s) for s in items))


def catalan_series(k: int, order: int) -> Series:
    """Generating function of generalized Catalan numbers, truncated.

    The unique series G with constant term 1 satisfying G = 1 + x*G^k.
    Fixed-point iteration G <- 1 + x*G^k gains at least one exact
    coefficient per round, so order+1 rounds settle every coefficient.
    """
    check_ints("catalan_series needs k >= 1", (k, 1))
    check_ints("order must be >= 0", (order, 0))
    one = Series.one(order)
    x = Series.x(order)
    g = one
    for _ in range(order + 1):
        g = one + x * g**k
    return g
