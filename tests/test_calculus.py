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
    inverse_series,
    make_spec,
    catalog_series,
    check_product_identity,
    check_reciprocal_identity,
    check_sum_identity,
    reciprocal_composita,
    riordan_build,
)
from compositae.combinatorics import binomial, kronecker_delta
from helpers import fibonacci_list, refuses_wrong_base, series_strategy, small_fraction

X = PowerSeries.of([0, 1], order=8)


def table_of(*coeffs, order=8):
    return composita_from_series(PowerSeries.of(list(coeffs), order=order), order)


class TestScaling:
    """The triangle of alpha*F is alpha^k * T and that of F(alpha*x) is
    alpha^n * T; both are ``composita_from_series`` of the scaled series."""

    @staticmethod
    def scaled_by(table, weight):
        return tuple(
            tuple(weight(n, k) * v for k, v in enumerate(row, start=1))
            for n, row in enumerate(table.rows, start=1)
        )

    def test_scale_value_identity(self):
        t = table_of(0, 1, 1)
        assert self.scaled_by(t, lambda n, k: 1) == t.rows

    def test_scale_value_of_x(self):
        t = composita_from_series(PowerSeries.of([0, 2], order=5), 5)
        for n, k, value in t.entries():
            assert value == (2**k if n == k else 0)

    def test_scale_value_matches_scaled_series(self):
        t = table_of(0, 1, 1, 1, 1, 1, 1, 1, 1)
        direct = composita_from_series(PowerSeries.of([0] + [3] * 8, order=8), 8)
        assert self.scaled_by(t, lambda n, k: 3**k) == direct.rows

    def test_scale_argument_identity(self):
        t = table_of(0, 1, 0, 2)
        assert self.scaled_by(t, lambda n, k: 1**n) == t.rows

    def test_scale_argument_matches_substituted_series(self):
        t = table_of(0, 1, 1, 1, 1, 1, 1, 1, 1)
        direct = composita_from_series(
            PowerSeries.of([0] + [2**n for n in range(1, 9)], order=8), 8
        )
        assert self.scaled_by(t, lambda n, k: 2**n) == direct.rows

    def test_scale_argument_zero(self):
        t = composita_from_series(PowerSeries.zero(8), 8)
        assert self.scaled_by(table_of(0, 1, 1), lambda n, k: 0**n) == t.rows

    @given(f=series_strategy(min_order=1, max_order=8, zero_constant=True), alpha=small_fraction)
    def test_scaling_laws(self, f, alpha):
        t = composita_from_series(f)
        value = composita_from_series(f * alpha)
        argument = composita_from_series(
            PowerSeries(tuple(c * alpha**n for n, c in enumerate(f.coeffs)))
        )
        assert self.scaled_by(t, lambda n, k: alpha**k) == value.rows
        assert self.scaled_by(t, lambda n, k: alpha**n) == argument.rows


class TestProductAndSum:
    """The paper's product and sum theorems, as checks, verify the
    recurrence triangles of F * B and F + G."""

    def test_product_with_one(self):
        t = table_of(0, 2, -1, 3)
        assert check_product_identity(t, PowerSeries.one(8), t).verified

    def test_product_x_times_exp(self):
        t = composita_from_series(X, 8)
        e = PowerSeries(tuple(Fraction(1, math.factorial(n)) for n in range(9)))
        x_exp = composita_from_series(X * e, 8)
        for n, k, value in x_exp.entries():
            assert value == Fraction(k ** (n - k), math.factorial(n - k))
        assert check_product_identity(t, e, x_exp).verified

    def test_product_with_zero_constant_factor(self):
        t = composita_from_series(X, 8)
        b = PowerSeries.of([0, 1, 1], order=8)
        direct = composita_from_series(PowerSeries.of([0, 0, 1, 1], order=8), 8)
        assert check_product_identity(t, b, direct).verified

    def test_product_insufficient_order(self):
        t = table_of(0, 1, 1)
        with pytest.raises(InsufficientOrder):
            check_product_identity(t, PowerSeries.one(3), t)

    def test_sum_x_plus_x_squared(self):
        tf = composita_from_series(X, 8)
        tg = composita_from_series(PowerSeries.of([0, 0, 1], order=8), 8)
        total = composita_from_series(PowerSeries.of([0, 1, 1], order=8), 8)
        for n, k, value in total.entries():
            assert value == binomial(k, n - k)
        assert check_sum_identity(tf, tg, total).verified

    def test_sum_with_zero_table(self):
        t = table_of(0, 1, -2, 1)
        zero = composita_from_series(PowerSeries.zero(8), 8)
        assert check_sum_identity(t, zero, t).verified

    def test_sum_order_mismatch(self):
        with pytest.raises(OrderMismatch):
            check_sum_identity(
                table_of(0, 1, order=4), table_of(0, 1, order=5), table_of(0, 1, order=4)
            )

    def test_x_plus_sin_formula(self):
        # Adding the identity table shifts the sine triangle by C(k,j):
        # entry(n,k) = delta(n,k) + sum_j C(k,j) Sin(n-k+j, j).
        sin = catalog_series(make_spec("sin"), 8)
        sin_t = composita_from_series(sin, 8)
        got = composita_from_series(X + sin, 8)
        for n, k, value in got.entries():
            expected = Fraction(kronecker_delta(n, k))
            for j in range(1, k + 1):
                i = n - k + j
                if j <= i <= sin_t.order:
                    expected += binomial(k, j) * sin_t[i, j]
            assert value == expected
        assert check_sum_identity(composita_from_series(X, 8), sin_t, got).verified

    @given(
        f=series_strategy(min_order=4, max_order=12, zero_constant=True),
        g=series_strategy(min_order=4, max_order=12, zero_constant=True),
    )
    def test_sum_theorem_matches_direct(self, f, g):
        n = min(f.order, g.order)
        f, g = f.truncate(n), g.truncate(n)
        tf, tg = composita_from_series(f, n), composita_from_series(g, n)
        assert check_sum_identity(tf, tg, composita_from_series(f + g, n)).verified

    @given(
        f=series_strategy(min_order=4, max_order=12, zero_constant=True),
        b=series_strategy(min_order=12, max_order=12),
    )
    def test_product_theorem_matches_direct(self, f, b):
        t = composita_from_series(f, f.order)
        b = b.truncate(f.order)
        product = composita_from_series(f * b, f.order)
        assert check_product_identity(t, b, product).verified


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
        column = PowerSeries((0,) + t.column(1))
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
        a = PowerSeries(t.column(1))  # column 1 is x * A, read from a(0)
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
        assert inverse_series(composita_from_series(f, 6)) == f

    def test_lambert_values(self):
        f = catalog_series(make_spec("x_exp"), 5)
        inv = inverse_series(composita_from_series(f, 5))
        assert inv.coeffs == (0, 1, -1, Fraction(3, 2), Fraction(-8, 3), Fraction(125, 24))

    def test_x_plus_sin_leading_coefficient(self):
        f = PowerSeries.of([0, 1], order=6) + catalog_series(make_spec("sin"), 6)
        inv = inverse_series(composita_from_series(f, 6))
        assert inv[1] == Fraction(1, 2)
        check = compose_series(PowerSeries(inv.coeffs), composita_from_series(f, 6))
        assert check == PowerSeries.of([0, 1], order=6)

    def test_rejects_vanishing_linear_term(self):
        f = PowerSeries.of([0, 0, 1], order=4)
        with pytest.raises(NonInvertible):
            inverse_series(composita_from_series(f, 4))

    def test_reads_f_off_its_triangle(self):
        # f(1) is T(1, 1): the triangle of 2x + x^2 gives that series' inverse
        f = PowerSeries.of([0, 2, 1], order=5)
        inv = inverse_series(composita_from_series(f))
        assert inv.coeffs == (0, Fraction(1, 2), Fraction(-1, 8), Fraction(1, 16),
                              Fraction(-5, 128), Fraction(7, 256))

    def test_nonzero_constant_is_refused_when_its_triangle_is_built(self):
        # a triangle exists only for f(0) = 0, so the inverse needs no check of its own
        with pytest.raises(NonzeroConstantTerm):
            inverse_series(composita_from_series(PowerSeries.of([1, 1], order=4), 4))

    @given(f=series_strategy(min_order=3, max_order=8, zero_constant=True, unit_linear=True))
    def test_inverse_law(self, f):
        n = f.order
        tf = composita_from_series(f, n)
        inv = inverse_series(tf)
        tinv = composita_from_series(inv, n)
        got = composita_compose(tf, tinv)
        for nn, mm, value in got.entries():
            assert value == kronecker_delta(nn, mm)
        got = composita_compose(tinv, tf)
        for nn, mm, value in got.entries():
            assert value == kronecker_delta(nn, mm)


class TestRiordanArraysAreRefused:
    """A Riordan array (base 0) starts one row lower than a triangle.  Read
    as a triangle, the array (1 + x, x/(1 - x)) gave the inverse of
    x/(1 - x) as 1, -1, 2, -4, 8, -16 (it is 1, -1, 1, -1, 1), R(F) as
    1, 1, 1, 0, 0, 0 (all ones) and a product of base 1 and order 6, so
    each transform refuses one before any work."""

    F = PowerSeries.of([0] + [1] * 5)
    G = PowerSeries.of([1, 1], order=5)

    def array(self):
        return riordan_build(self.G, self.F)

    def test_compose_series(self):
        with refuses_wrong_base("compose_series"):
            compose_series(self.G, self.array())

    def test_inverse_series(self):
        with refuses_wrong_base("inverse_series"):
            inverse_series(self.array())

    def test_composita_compose(self):
        r, tf = self.array(), composita_from_series(self.F)
        for pair in ((r, r), (r, tf), (tf, r), (r, tf.truncated(3))):
            with refuses_wrong_base("composita_compose"):  # before the orders are compared
                composita_compose(*pair)
