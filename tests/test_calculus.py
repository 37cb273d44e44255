from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from compositae import (
    DivisionByNonUnit,
    InsufficientOrder,
    NonInvertible,
    NonzeroConstantTerm,
    OrderMismatch,
    PowerSeries,
    compose_series,
    composita_compose,
    composita_from_series,
    composita_product_series,
    composita_sum,
    inverse_series,
    make_spec,
    catalog_series,
    check_reciprocal_identity,
    reciprocal_composita,
    scale_argument,
    scale_value,
    series_from_composita,
)
from compositae.combinatorics import binomial, kronecker_delta
from helpers import fibonacci_list, series_strategy, small_fraction

X = PowerSeries.of([0, 1], order=8)


def table_of(*coeffs, order=8):
    return composita_from_series(PowerSeries.of(list(coeffs), order=order), order)


class TestScaling:
    def test_scale_value_identity(self):
        t = table_of(0, 1, 1)
        assert scale_value(t, 1) == t

    def test_scale_value_of_x(self):
        t = scale_value(composita_from_series(X, 5), 2)
        for n, k, value in t.entries():
            assert value == (2**k if n == k else 0)

    def test_scale_value_matches_scaled_series(self):
        t = scale_value(table_of(0, 1, 1, 1, 1, 1, 1, 1, 1), 3)
        direct = composita_from_series(PowerSeries.of([0] + [3] * 8, order=8), 8)
        assert t == direct

    def test_scale_argument_identity(self):
        t = table_of(0, 1, 0, 2)
        assert scale_argument(t, 1) == t

    def test_scale_argument_matches_substituted_series(self):
        t = scale_argument(table_of(0, 1, 1, 1, 1, 1, 1, 1, 1), 2)
        direct = composita_from_series(
            PowerSeries.of([0] + [2**n for n in range(1, 9)], order=8), 8
        )
        assert t == direct

    def test_scale_argument_zero(self):
        t = scale_argument(table_of(0, 1, 1), 0)
        assert all(value == 0 for _, _, value in t.entries())


class TestProductAndSum:
    def test_product_with_one(self):
        t = table_of(0, 2, -1, 3)
        assert composita_product_series(t, PowerSeries.one(8)) == t

    def test_product_x_times_exp(self):
        t = composita_from_series(X, 8)
        e = PowerSeries(tuple(Fraction(1, math.factorial(n)) for n in range(9)))
        got = composita_product_series(t, e)
        for n, k, value in got.entries():
            assert value == Fraction(k ** (n - k), math.factorial(n - k))

    def test_product_with_zero_constant_factor(self):
        t = composita_from_series(X, 8)
        b = PowerSeries.of([0, 1, 1], order=8)
        direct = composita_from_series(PowerSeries.of([0, 0, 1, 1], order=8), 8)
        assert composita_product_series(t, b) == direct

    def test_product_insufficient_order(self):
        with pytest.raises(InsufficientOrder):
            composita_product_series(table_of(0, 1, 1), PowerSeries.one(3))

    def test_sum_x_plus_x_squared(self):
        got = composita_sum(
            composita_from_series(X, 8),
            composita_from_series(PowerSeries.of([0, 0, 1], order=8), 8),
        )
        for n, k, value in got.entries():
            assert value == binomial(k, n - k)

    def test_sum_with_zero_table(self):
        t = table_of(0, 1, -2, 1)
        zero = composita_from_series(PowerSeries.zero(8), 8)
        assert composita_sum(t, zero) == t

    def test_sum_order_mismatch(self):
        with pytest.raises(OrderMismatch):
            composita_sum(table_of(0, 1, order=4), table_of(0, 1, order=5))

    def test_x_plus_sin_formula(self):
        # Adding the identity table shifts the sine triangle by C(k,j):
        # entry(n,k) = delta(n,k) + sum_j C(k,j) Sin(n-k+j, j).
        sin_t = composita_from_series(catalog_series(make_spec("sin"), 8), 8)
        got = composita_sum(composita_from_series(X, 8), sin_t)
        for n, k, value in got.entries():
            expected = Fraction(kronecker_delta(n, k))
            for j in range(1, k + 1):
                i = n - k + j
                if j <= i <= sin_t.order:
                    expected += binomial(k, j) * sin_t[i, j]
            assert value == expected

    @given(
        f=series_strategy(min_order=4, max_order=12, zero_constant=True),
        g=series_strategy(min_order=4, max_order=12, zero_constant=True),
    )
    def test_sum_theorem_matches_direct(self, f, g):
        n = min(f.order, g.order)
        f, g = f.truncate(n), g.truncate(n)
        lhs = composita_sum(composita_from_series(f, n), composita_from_series(g, n))
        assert lhs == composita_from_series(f + g, n)

    @given(
        f=series_strategy(min_order=4, max_order=12, zero_constant=True),
        b=series_strategy(min_order=12, max_order=12),
    )
    def test_product_theorem_matches_direct(self, f, b):
        t = composita_from_series(f, f.order)
        b = b.truncate(f.order)
        product = f * b
        if all(c == 0 for c in product.coeffs):
            return
        assert composita_product_series(t, b) == composita_from_series(product, f.order)


class TestComposition:
    def test_identity_on_either_side(self):
        t = table_of(0, 1, 2, 3)
        ident = composita_from_series(X, 8)
        assert composita_compose(ident, t) == t
        assert composita_compose(t, ident) == t

    def test_fibonacci_from_geometric_of_poly(self):
        r = PowerSeries.of([1] * 9, order=8)
        a = compose_series(r, table_of(0, 1, 1))
        # R(F(x)) = 1/(1-x-x^2), the Fibonacci generating function.
        assert list(a.coeffs) == fibonacci_list(9)

    def test_compose_with_identity_table(self):
        r = PowerSeries.of([5, -1, Fraction(1, 3), 2], order=8)
        assert compose_series(r, composita_from_series(X, 8)) == r

    def test_log_exp_tables_cancel(self):
        log_t = composita_from_series(catalog_series(make_spec("log1p"), 8), 8)
        exp_t = composita_from_series(catalog_series(make_spec("expm1"), 8), 8)
        got = composita_compose(exp_t, log_t)
        for n, m, value in got.entries():
            assert value == kronecker_delta(n, m)

    def test_order_mismatch(self):
        with pytest.raises(OrderMismatch):
            composita_compose(table_of(0, 1, order=4), table_of(0, 1, order=6))

    @given(
        f=series_strategy(min_order=3, max_order=8, zero_constant=True),
        r=series_strategy(min_order=8, max_order=8, zero_constant=True),
    )
    def test_table_product_matches_series_composition(self, f, r):
        n = f.order
        tf = composita_from_series(f, n)
        tr = composita_from_series(r.truncate(n), n)
        composed = compose_series(r.truncate(n), tf)
        if all(c == 0 for c in composed.coeffs):
            return
        assert composita_compose(tf, tr) == composita_from_series(composed, n)


class TestReciprocal:
    def test_constant_one(self):
        t = reciprocal_composita(PowerSeries.one(6), 6)
        for n, k, value in t.entries():
            assert value == kronecker_delta(n, k)

    def test_one_minus_x_gives_pascal(self):
        t = reciprocal_composita(PowerSeries.of([1, -1], order=6), 6)
        for n, k, value in t.entries():
            assert value == binomial(n - 1, k - 1)

    def test_x_squared_cosecant(self):
        sin = catalog_series(make_spec("sin"), 9)
        sin_over_x = PowerSeries(sin.coeffs[1:])
        t = reciprocal_composita(sin_over_x, 8)
        column = series_from_composita(t)
        direct = X * X / sin.truncate(8)  # loses one order to the x-shift
        assert column.truncate(direct.order) == direct

    def test_rejects_zero_constant_term(self):
        with pytest.raises(DivisionByNonUnit):
            reciprocal_composita(PowerSeries.of([0, 1], order=4), 4)

    @given(b=series_strategy(min_order=3, max_order=8))
    def test_reciprocal_law(self, b):
        if b.coeffs[0] == 0:
            b = b + PowerSeries.one(b.order)
        t = reciprocal_composita(b, b.order + 1)
        a = PowerSeries(series_from_composita(t).coeffs[1:])  # strip the x factor
        assert a * b == PowerSeries.one(b.order)

    @given(b=series_strategy(min_order=0, max_order=7, coeffs=small_fraction))
    def test_matches_the_paper_formula(self, b):
        # the negative binomial sum shares no code with division + recurrence
        if b.coeffs[0] == 0:
            b = b + PowerSeries.one(b.order)
        report = check_reciprocal_identity(b, reciprocal_composita(b, b.order + 1))
        assert report.verified, report.first_failure

    def test_rejects_short_series(self):
        with pytest.raises(InsufficientOrder):
            reciprocal_composita(PowerSeries.of([1, 1], order=3), 5)


class TestInverseSeries:
    def test_x_is_self_inverse(self):
        f = PowerSeries.of([0, 1], order=6)
        assert inverse_series(f, composita_from_series(f, 6)) == f

    def test_lambert_values(self):
        f = catalog_series(make_spec("x_exp"), 5)
        inv = inverse_series(f, composita_from_series(f, 5))
        assert inv.coeffs == (0, 1, -1, Fraction(3, 2), Fraction(-8, 3), Fraction(125, 24))

    def test_x_plus_sin_leading_coefficient(self):
        f = PowerSeries.of([0, 1], order=6) + catalog_series(make_spec("sin"), 6)
        inv = inverse_series(f, composita_from_series(f, 6))
        assert inv[1] == Fraction(1, 2)
        check = compose_series(PowerSeries(inv.coeffs), composita_from_series(f, 6))
        assert check == PowerSeries.of([0, 1], order=6)

    def test_rejects_vanishing_linear_term(self):
        f = PowerSeries.of([0, 0, 1], order=4)
        with pytest.raises(NonInvertible):
            inverse_series(f, composita_from_series(f, 4))

    def test_rejects_nonzero_constant(self):
        f = PowerSeries.of([1, 1], order=4)
        with pytest.raises(NonzeroConstantTerm):
            inverse_series(f, composita_from_series(PowerSeries.of([0, 1], order=4), 4))

    @given(f=series_strategy(min_order=3, max_order=8, zero_constant=True, unit_linear=True))
    def test_inverse_law(self, f):
        n = f.order
        tf = composita_from_series(f, n)
        inv = inverse_series(f, tf)
        tinv = composita_from_series(inv, n)
        got = composita_compose(tf, tinv)
        for nn, mm, value in got.entries():
            assert value == kronecker_delta(nn, mm)
        got = composita_compose(tinv, tf)
        for nn, mm, value in got.entries():
            assert value == kronecker_delta(nn, mm)
