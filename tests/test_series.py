from __future__ import annotations

import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from compositae import (
    DivisionByNonUnit,
    PowerSeries,
    UnknownFunction,
    as_rational,
)
from compositae.formats import series_text
from compositae.series import raw_coefficients
from helpers import exp_coeffs, series_strategy


def S(*values, order=None):
    return PowerSeries.of([Fraction(v) for v in values], order=order)


class TestConstruction:
    def test_of_pads_to_order(self):
        s = S(0, 1, order=5)
        assert s.order == 5
        assert s.coeffs == (0, 1, 0, 0, 0, 0)

    def test_of_cuts_to_order(self):
        assert PowerSeries.of([1, 2, 3], order=1).coeffs == (1, 2)

    def test_zero_and_one(self):
        assert PowerSeries.zero(3).coeffs == (0, 0, 0, 0)
        assert PowerSeries.one(2).coeffs == (1, 0, 0)

    def test_getitem_beyond_order_raises(self):
        s = S(1, 2)
        assert s[1] == 2
        with pytest.raises(IndexError):
            s[2]

    def test_truncate_and_extended(self):
        s = S(1, 2, 3)
        assert s.truncate(1).coeffs == (1, 2)
        assert s.extended(4).coeffs == (1, 2, 3, 0, 0)

    # a string coefficient is read in the CLI's grammar: bare Fraction would
    # build a 2,000,001-digit integer, read '1_0' as 10 and '٣' as 3
    @pytest.mark.parametrize(
        "text, message",
        [("1e2000000", "exponent notation"), ("1_0", "'_' and non-ASCII"),
         ("\u0663", "'_' and non-ASCII")],
    )
    def test_string_coefficients_refuse_what_the_cli_refuses(self, text, message):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=message):
                PowerSeries.of([text])
            with pytest.raises(ValueError, match=message):
                as_rational(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_string_coefficients_still_read(self):
        series = PowerSeries.of(["1/2", "-4/6", "0.5"])
        assert series.coeffs == (Fraction(1, 2), Fraction(-2, 3), Fraction(1, 2))
        assert all(type(c) is Fraction for c in series.coeffs)

    # a float would be stored as its binary expansion: 0.1 as
    # 3602879701896397/36028797018963968, where "0.1" reads as 1/10
    def test_a_float_coefficient_is_refused(self):
        with pytest.raises(TypeError, match="pass a str such as '1/10' or a Fraction"):
            as_rational(0.1)
        with pytest.raises(TypeError, match="float"):
            PowerSeries.of([1, 0.1])
        with pytest.raises(TypeError, match="float"):
            PowerSeries.of([1, 2]) * 0.5
        with pytest.raises(TypeError, match="float"):
            0.5 * PowerSeries.of([1, 2])
        with pytest.raises(TypeError, match="float"):
            PowerSeries.of([1, 2]) / 2.0
        assert as_rational("0.1") == Fraction(1, 10)


class TestArithmetic:
    def test_add_disjoint_supports(self):
        assert S(0, 1, 0) + S(0, 0, 1) == S(0, 1, 1)

    def test_add_zero_is_identity(self):
        a = S(3, -1, 2)
        assert a + PowerSeries.zero(2) == a

    def test_add_cancellation(self):
        assert S(1, 1) + S(1, -1) == S(2, 0)

    def test_mul_geometric_pair(self):
        # (x/(1-x)) * (1/(1-x)) = x + 2x^2 + 3x^3 + 4x^4 + 5x^5 + ...
        xgeo = S(0, 1, 1, 1, 1, 1)
        geo = S(1, 1, 1, 1, 1, 1)
        assert (xgeo * geo).coeffs == (0, 1, 2, 3, 4, 5)

    def test_mul_by_one(self):
        a = S(2, 0, -5, 7)
        assert a * PowerSeries.one(3) == a

    def test_mul_x_by_x(self):
        assert S(0, 1, 0) * S(0, 1, 0) == S(0, 0, 1)

    def test_mixed_orders_truncate_to_min(self):
        assert (S(1, 1, 1, 1) + S(1, 1)).order == 1
        assert (S(0, 1, 1, 1) * S(1, 1)).order == 1

    def test_square_of_x_plus_x2(self):
        assert (S(0, 1, 1, order=4) ** 2).coeffs == (0, 0, 1, 2, 1)

    def test_pow_zero_and_one(self):
        a = S(0, 2, -1)
        assert a**1 == a
        assert a**0 == PowerSeries.one(2)

    def test_scalar_ops(self):
        a = S(1, 2)
        assert (a * 3).coeffs == (3, 6)
        assert (3 * a).coeffs == (3, 6)
        assert (a / 2).coeffs == (Fraction(1, 2), 1)


class TestDivision:
    def test_geometric_from_division(self):
        q = S(0, 1, 0, 0) / S(1, -1, 0, 0)
        assert q.coeffs == (0, 1, 1, 1)

    def test_divide_by_one(self):
        a = S(4, -2, 9)
        assert a / PowerSeries.one(2) == a

    def test_tangent_from_sin_over_cos(self):
        sin = S(0, 1, 0, Fraction(-1, 6), 0, Fraction(1, 120))
        cos = S(1, 0, Fraction(-1, 2), 0, Fraction(1, 24), 0)
        tan = sin / cos
        assert tan.coeffs == (0, 1, 0, Fraction(1, 3), 0, Fraction(2, 15))

    def test_shared_leading_zeroes_cancel(self):
        # x / (e^x - 1) is the Bernoulli generating function.
        x = S(0, 1, order=7)
        em1 = PowerSeries(tuple(Fraction(0 if n == 0 else 1, math.factorial(n)) for n in range(8)))
        q = x / em1
        assert [q[n] * math.factorial(n) for n in range(7)] == [
            1,
            Fraction(-1, 2),
            Fraction(1, 6),
            0,
            Fraction(-1, 30),
            0,
            Fraction(1, 42),
        ]

    def test_non_unit_divisor_raises(self):
        with pytest.raises(DivisionByNonUnit):
            S(1, 0, 0) / S(0, 1, 0)

    def test_zero_divisor_raises(self):
        with pytest.raises(DivisionByNonUnit):
            S(0, 1) / PowerSeries.zero(1)


class TestCalculusOps:
    def test_derivative_examples(self):
        assert S(0, 0, 1).derivative().coeffs == (0, 2)
        assert S(5).derivative().coeffs == (0,)
        assert S(0, 1, 1, 1).derivative().coeffs == (1, 2, 3)

    def test_derivative_drops_order(self):
        assert S(1, 1, 1).derivative().order == 1

    def test_integral_inverts_derivative(self):
        a = S(0, 3, -2, 7)
        assert a.integral().derivative() == a

    def test_times_x(self):
        assert S(1, 2).times_x().coeffs == (0, 1, 2)


class TestTextFormat:
    """The coefficient-list grammar, read by ``raw_coefficients`` alone."""

    def test_parse_fractions_and_padding(self):
        s = PowerSeries.of(raw_coefficients("0,1/2,-3"), order=4)
        assert s.coeffs == (0, Fraction(1, 2), -3, 0, 0)

    def test_roundtrip(self):
        s = S(1, Fraction(-2, 3), 0, 5)
        assert PowerSeries.of(raw_coefficients(series_text(s.coeffs))) == s

    @pytest.mark.parametrize("text", ["", "1,,2", "1,a", "1/0", "1e3", "0,1_0"])
    def test_malformed_input(self, text):
        with pytest.raises(UnknownFunction):
            raw_coefficients(text)

    @pytest.mark.parametrize("text", ["1e3", "0,2E-1", "0,1.5e2", "0,1e100000000"])
    def test_rejects_exponent_notation(self, text):
        with pytest.raises(UnknownFunction, match="exponent notation"):
            raw_coefficients(text)

    # Fraction reads '1_0' as 10 from Python 3.11 on, and '٣' (Arabic-Indic
    # three) as 3; the grammar is ASCII digits on every version.
    @pytest.mark.parametrize("text", ["0,1_0", "1_000", "0,1/1_0", "0,1._5", "0,\u0663", "0,\u00bd"])
    def test_rejects_underscores_and_non_ascii_digits(self, text):
        with pytest.raises(UnknownFunction, match="'_' and non-ASCII"):
            raw_coefficients(text)

    @pytest.mark.parametrize(
        "text, value",
        [("-3/4", Fraction(-3, 4)), ("+2", Fraction(2)), (" 0.25 ", Fraction(1, 4)),
         (".5", Fraction(1, 2)), ("7.", Fraction(7))],
    )
    def test_accepts_signs_fractions_and_decimals(self, text, value):
        assert raw_coefficients(text) == [value]


@given(a=series_strategy(), b=series_strategy(), c=series_strategy())
def test_ring_axioms(a, b, c):
    n = min(a.order, b.order, c.order)
    a, b, c = a.truncate(n), b.truncate(n), c.truncate(n)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(a=series_strategy(), b=series_strategy())
def test_div_undoes_mul(a, b):
    n = min(a.order, b.order)
    a, b = a.truncate(n), b.truncate(n)
    if b.coeffs[0] == 0:
        b = b + PowerSeries.one(n)
    assert (a * b) / b == a


@given(a=series_strategy(max_order=6), k=st.integers(min_value=0, max_value=6))
def test_pow_is_repeated_mul(a, k):
    expected = PowerSeries.one(a.order)
    for _ in range(k):
        expected = expected * a
    assert a**k == expected


@given(a=series_strategy(coeffs=st.fractions(min_value=-3, max_value=3, max_denominator=6)))
def test_coefficients_stay_canonical(a):
    sq = a * a
    for c in sq.coeffs:
        assert isinstance(c, Fraction)
        assert c.denominator > 0
        assert math.gcd(c.numerator, c.denominator) == 1


def test_exp_times_exp_minus_x():
    e = PowerSeries(tuple(exp_coeffs(8)))
    e_neg = PowerSeries(tuple(c if n % 2 == 0 else -c for n, c in enumerate(exp_coeffs(8))))
    assert e * e_neg == PowerSeries.one(8)
