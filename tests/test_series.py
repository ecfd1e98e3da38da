import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from catlog.catalan import gen_catalan
from catlog.series import Series, catalan_series


def S(*coeffs):
    return Series(tuple(Fraction(c) for c in coeffs))


small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def series_strategy(order: int, constant=None, coeff=small_fractions):
    inner = st.tuples(*([st.just(Fraction(constant))] if constant is not None else [coeff]),
                      *[coeff] * order)
    return inner.map(Series)


# coefficients that are often exactly zero, so products take the skips
sparse_fractions = st.one_of(st.just(Fraction(0)), small_fractions)


class TestConstruction:
    def test_orders(self):
        assert Series.one(4).order == 4
        assert Series.x(3).coeffs == (0, 1, 0, 0)
        assert Series.x(0).is_zero()

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            Series((0.5, 1))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Series(())


class TestRingOperations:
    def test_additive_identity(self):
        f = S(1, 2, 3)
        assert f + S(0, 0, 0) == f

    def test_add(self):
        assert S(1, 1, 0) + S(1, -1, 0) == S(2, 0, 0)

    def test_add_agrees_with_scalar_multiple(self):
        lg = catalan_series(2, 8).log()
        assert lg + lg == 2 * lg

    def test_order_mismatch_is_an_error(self):
        with pytest.raises(ValueError):
            S(1, 2) + S(1, 2, 3)
        with pytest.raises(ValueError):
            S(1, 2) * S(1, 2, 3)

    def test_multiplicative_identity(self):
        f = S(2, 5, 7, 1)
        assert f * Series.one(3) == f

    def test_mul(self):
        assert S(1, 1, 0) * S(1, 1, 0) == S(1, 2, 1)

    def test_scalar_mul(self):
        assert 3 * S(1, 2) == S(3, 6)
        assert S(1, 2) * Fraction(1, 2) == S(Fraction(1, 2), 1)

    def test_catalan_product_matches_direct_convolution(self):
        # independent oracle: convolve the closed-form coefficient lists
        n_max = 10
        g = catalan_series(2, n_max)
        c = [1] + [gen_catalan(2, n) for n in range(1, n_max + 1)]
        square = g * g
        for n in range(n_max + 1):
            assert square[n] == sum(c[j] * c[n - j] for j in range(n + 1))

    def test_pow(self):
        f = S(1, 4, 2)
        assert f**1 == f
        assert f**0 == Series.one(2)
        assert S(1, 1, 0, 0) ** 3 == S(1, 3, 3, 1)

    @pytest.mark.parametrize("a", range(10))
    def test_pow_squares_and_multiplies(self, monkeypatch, a):
        # floor(log2 a) squares and popcount(a) - 1 products by the base,
        # where a - 1 products would take the power left to right
        g = catalan_series(2, 6)
        products = []
        product = Series.__mul__

        def counted(self, other):
            products.append(other)
            return product(self, other)

        monkeypatch.setattr(Series, "__mul__", counted)
        powered = g**a
        monkeypatch.undo()
        assert len(products) == max(a.bit_length() - 1 + bin(a).count("1") - 1, 0)
        if a == 1:
            assert powered is g

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 9),
           st.integers(0, 8).flatmap(lambda n: series_strategy(n, coeff=sparse_fractions)))
    def test_pow_is_the_left_to_right_product(self, a, s):
        left_to_right = Series.one(s.order)
        for _ in range(a):
            left_to_right = left_to_right * s
        assert s**a == left_to_right

    def test_pow_of_log_catalan(self):
        sq = catalan_series(2, 3).log() ** 2
        assert sq[2] == 1
        assert sq[3] == 3  # square of x + 3/2 x^2 + 10/3 x^3 by hand


class TestSquare:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 12).flatmap(lambda n: series_strategy(n, coeff=sparse_fractions)))
    def test_square_is_the_general_product(self, s):
        # an equal but distinct right factor takes the general path
        twin = Series(s.coeffs)
        assert twin is not s
        square = s * s
        assert square == s * twin
        assert all(type(c) is Fraction for c in square.coeffs)

    @staticmethod
    def squared(monkeypatch, s):
        """s * s and the number of Fraction products it took."""
        count = 0
        product = Fraction.__mul__

        def counted(a, b):
            nonlocal count
            count += 1
            return product(a, b)

        monkeypatch.setattr(Fraction, "__mul__", counted)
        square = s * s
        monkeypatch.undo()
        return square, count

    def test_square_of_a_sparse_series(self, monkeypatch):
        # only c_1*c_3 and c_1^2 are products of two nonzero coefficients
        square, count = self.squared(monkeypatch, S(0, 2, 0, Fraction(-1, 3), 0, 0))
        assert square.coeffs == (0, 0, 4, 0, Fraction(-4, 3), 0)
        assert count == 2

    def test_square_takes_each_cross_product_once(self, monkeypatch):
        # order 40, no zero coefficient: the general path takes all 41*42/2 =
        # 861 products c_i*c_j; the square takes c_i*c_j for i < j once, plus
        # c_(m/2)^2 at even m, 21**2 = 441
        g = catalan_series(2, 40)
        square, count = self.squared(monkeypatch, g)
        assert count <= 441
        assert square == g * Series(g.coeffs)


class TestLogExp:
    def test_log_of_one(self):
        assert Series.one(5).log() == S(0, 0, 0, 0, 0, 0)

    def test_log_of_geometric(self):
        geo = Series((Fraction(1),) * 9)
        expected = Series((Fraction(0),) + tuple(Fraction(1, n) for n in range(1, 9)))
        assert geo.log() == expected

    def test_log_catalan_coefficients(self):
        lg = catalan_series(2, 3).log()
        assert [lg[1], lg[2], lg[3]] == [1, Fraction(3, 2), Fraction(10, 3)]

    def test_exp_of_zero(self):
        assert S(0, 0, 0, 0, 0, 0, 0).exp() == Series.one(6)

    def test_exp_log_inverse_on_catalan(self):
        g = catalan_series(3, 8)
        assert g.log().exp() == g

    def test_exp_of_log_series_is_geometric(self):
        f = Series((Fraction(0),) + tuple(Fraction(1, n) for n in range(1, 8)))
        assert f.exp() == Series((Fraction(1),) * 8)

    def test_exp_builds_the_derivative_once(self, monkeypatch):
        # order 30: one int x Fraction product per coefficient of the
        # derivative, where rebuilding it for every output took 465
        f = catalan_series(2, 30).log()
        count = 0
        product = Fraction.__rmul__

        def counted(a, b):
            nonlocal count
            count += type(b) is int
            return product(a, b)

        monkeypatch.setattr(Fraction, "__rmul__", counted)
        e = f.exp()
        monkeypatch.undo()
        assert count == 30
        assert e == catalan_series(2, 30)

    def test_wrong_constant_terms(self):
        with pytest.raises(ValueError):
            S(2, 1).log()
        with pytest.raises(ValueError):
            S(1, 1).exp()

    @given(series_strategy(5, constant=1))
    def test_exp_inverts_log(self, f):
        assert f.log().exp() == f

    @given(series_strategy(5, constant=0))
    def test_log_inverts_exp(self, g):
        assert g.exp().log() == g


def fixed_point_series(k: int, order: int) -> Series:
    """Oracle: the fixed-point iteration g <- 1 + x*g^k, on plain integer
    lists. Each round settles at least one more coefficient, so order+1
    rounds settle all of them."""
    g = [1] + [0] * order
    for _ in range(order + 1):
        power = [1] + [0] * order
        for _ in range(k):
            power = [sum(power[i] * g[m - i] for i in range(m + 1)) for m in range(order + 1)]
        g = [1] + power[:order]
    return Series(tuple(g))


class TestCatalanSeries:
    def test_matches_fixed_point_iteration(self):
        for k in range(1, 8):
            assert catalan_series(k, 30) == fixed_point_series(k, 30), k

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 7), st.integers(0, 25))
    def test_fixed_point_random(self, k, order):
        assert catalan_series(k, order) == fixed_point_series(k, order)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 7), st.integers(0, 40), st.integers(0, 40))
    def test_lower_order_is_a_prefix(self, k, m, n):
        m, n = min(m, n), max(m, n)
        assert catalan_series(k, m).coeffs == catalan_series(k, n).coeffs[:m + 1]

    def test_each_round_multiplies_at_its_own_order(self, monkeypatch):
        # machine-independent work: the output rows of every series-by-series
        # product. Round m of the k = 2 growth makes one product, g**2 at
        # order m - 1; 40 rounds at the full order would make 1,640.
        rows = []
        product = Series.__mul__

        def counted(self, other):
            if isinstance(other, Series):
                rows.append(self.order + 1)
            return product(self, other)

        monkeypatch.setattr(Series, "__mul__", counted)
        g = catalan_series(2, 40)
        assert g == fixed_point_series(2, 40)
        assert sum(rows) <= sum(m for m in range(1, 41))  # 820

    def test_order_zero(self):
        for k in range(1, 6):
            assert catalan_series(k, 0) == Series.one(0)

    def test_k2_coefficients(self):
        g = catalan_series(2, 4)
        assert list(g.coeffs) == [1, 1, 2, 5, 14]

    def test_first_coefficient_any_k(self):
        for k in range(1, 7):
            assert catalan_series(k, 2)[1] == 1

    def test_k3_n2(self):
        assert catalan_series(3, 2)[2] == 3

    def test_k1_is_geometric(self):
        for order in (0, 1, 6, 40):
            assert catalan_series(1, order) == Series((Fraction(1),) * (order + 1))

    def test_functional_equation_residual_zero(self):
        for k in range(1, 6):
            for order in (0, 1, 5, 16):
                g = catalan_series(k, order)
                residual = g - Series.one(order) - Series.x(order) * g**k
                assert residual.is_zero(), (k, order)

    def test_defining_identity_after_log(self):
        # with F = log G: exp(F) - 1 - x*exp(k*F) vanishes
        for k in (1, 2, 3):
            order = 12
            f = catalan_series(k, order).log()
            residual = f.exp() - Series.one(order) - Series.x(order) * (k * f).exp()
            assert residual.is_zero(), k

    def test_matches_closed_form(self):
        for k in (1, 2, 3, 4):
            g = catalan_series(k, 10)
            for n in range(1, 11):
                assert g[n] == gen_catalan(k, n)


class TestPresentation:
    def test_getitem_bounds(self):
        with pytest.raises(IndexError):
            S(1, 2)[5]


def test_span_tracing_installs():
    """bench/spans.py wraps the Series methods it names, reading each from
    the class dict, so `bench/run.py --trace 1` needs every one of them."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "bench")]))
    code = "import catlog, spans; spans.install(spans.Recorder(), catlog)"
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
