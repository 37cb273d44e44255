from __future__ import annotations

import math
import pickle
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from compositae import (
    DivisionByNonUnit,
    PowerSeries,
    UnknownFunction,
    as_rational,
)
from compositae.formats import series_text
from compositae.series import parse_pair, raw_coefficients
from helpers import exp_coeffs, reference_quotient, series_strategy


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


_ROW_FAMILIES = st.sampled_from([
    st.integers(min_value=-9, max_value=9).map(Fraction),
    st.fractions(min_value=-9, max_value=9, max_denominator=40),
])


@st.composite
def _operands(draw):
    """A dividend and a divisor of one family (integers or rationals), each
    of its own order, each after a leading power of x of its own: equal
    ones cancel, and a divisor's longer one is refused."""
    family = draw(_ROW_FAMILIES)

    def side():
        lead = draw(st.integers(min_value=0, max_value=3))
        values = draw(st.lists(family, min_size=1, max_size=10))
        return PowerSeries(tuple([Fraction(0)] * lead + values))

    return side(), side()


class TestQuotientAgainstReference:
    """The quotient on integer rows against the plain ``Fraction`` long
    division of ``helpers.reference_quotient``: the same series, stored
    canonically, or the same refusal."""

    @given(operands=_operands())
    @example(operands=(S(1, 2, 3), S(-3, 1, 2)))
    @example(operands=(S(0, 0, 1, 5), S(0, 0, Fraction(-2, 3), 7, 1)))
    @example(operands=(S(0, 1, 2), S(0, 0, 1, 1)))
    @example(operands=(S(1, 2), S(0, 0, 0)))
    @example(operands=(S(0, 1), S(0, 1)))
    @example(operands=(S(Fraction(3, 7), 1, 2, 3, 4, 5, 6), S(Fraction(-6, 5), Fraction(1, 9))))
    def test_matches_the_fraction_long_division(self, operands):
        a, b = operands
        try:
            expected = reference_quotient(a, b)
        except DivisionByNonUnit as exc:
            with pytest.raises(DivisionByNonUnit) as refused:
                a / b
            assert str(refused.value) == str(exc)
            return
        got = a / b
        assert got == expected
        nums, den = got.int_row
        assert den > 0 and math.gcd(den, *nums) == 1

    @given(
        a=st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=40), min_size=1, max_size=9),
        scalar=st.fractions(min_value=-9, max_value=9, max_denominator=40).filter(bool),
    )
    def test_scalar_quotient_and_derivative_match_fraction_values(self, a, scalar):
        series = PowerSeries(a)
        for divisor in (scalar, str(scalar)):
            quotient = series / divisor
            assert quotient.coeffs == tuple(c / scalar for c in a)
            assert math.gcd(quotient.int_row[1], *quotient.int_row[0]) == 1
        expected = tuple(n * a[n] for n in range(1, len(a))) or (0,)
        assert series.derivative().coeffs == expected

    def test_scalar_zero_is_refused(self):
        with pytest.raises(DivisionByNonUnit, match="^division by the zero series$"):
            S(1, 2) / 0


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
        s = PowerSeries.from_pairs(raw_coefficients("0,1/2,-3"), order=4)
        assert s.coeffs == (0, Fraction(1, 2), -3, 0, 0)

    def test_roundtrip(self):
        s = S(1, Fraction(-2, 3), 0, 5)
        assert PowerSeries.from_pairs(raw_coefficients(series_text(s.int_row))) == s

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
        assert raw_coefficients(text) == [value.as_integer_ratio()]


    # Fraction reads spaces around '/' from Python 3.12 on; the grammar
    # refuses them on every version, with the message of 3.10 and 3.11.
    @pytest.mark.parametrize("text", ["0,1 / 2", "0,1 /2", "0,1/ 2", "0,1\t/2", "3 / 4"])
    def test_rejects_spaces_around_the_slash(self, text):
        with pytest.raises(UnknownFunction, match="Invalid literal for Fraction"):
            raw_coefficients(text)


# Texts over the characters of the grammar, in every position: a random
# mix, and texts built on the grammar's own shape so that many are read.
_GRAMMAR_CHARS = "0123456789+-./ \t"
_DIGITS = st.text("0123456789", max_size=4)
_SHAPED = st.builds(
    lambda *parts: "".join(parts),
    st.sampled_from(["", " ", "\t"]),
    st.sampled_from(["", "+", "-"]),
    _DIGITS,
    st.sampled_from(["", "/", ".", " /", "/ "]),
    _DIGITS,
    st.sampled_from(["", " ", "\n"]),
)
_COEFFICIENT_TEXTS = st.text(_GRAMMAR_CHARS, max_size=8) | _SHAPED


def _fraction_reads_alike_everywhere(text: str) -> bool:
    # spaces around '/' are the one difference left among these characters
    return re.search(r"\s/|/\s", text) is None


class TestReader:
    """``parse_pair`` against ``Fraction(text)`` on texts that every
    supported Python reads alike."""

    @given(text=_COEFFICIENT_TEXTS.filter(_fraction_reads_alike_everywhere))
    def test_reads_what_fraction_reads(self, text):
        try:
            expected = Fraction(text)
        except ZeroDivisionError:
            with pytest.raises(ValueError, match="^zero denominator: "):
                parse_pair(text)
            return
        except ValueError as exc:
            with pytest.raises(ValueError) as refused:
                parse_pair(text)
            assert str(refused.value) == str(exc)
            return
        assert parse_pair(text) == expected.as_integer_ratio()

    @given(value=st.fractions(max_denominator=10**6))
    def test_reads_the_text_of_every_fraction(self, value):
        assert parse_pair(str(value)) == value.as_integer_ratio()
        assert parse_pair(f" {value}\t") == value.as_integer_ratio()


_RATIONALS = st.fractions(min_value=-50, max_value=50, max_denominator=60)


class TestStoredRow:
    """A series stores one canonical integer row, whatever its inputs were."""

    @given(values=st.lists(_RATIONALS, min_size=1, max_size=9))
    def test_int_str_and_fraction_inputs_store_one_row(self, values):
        built = [
            PowerSeries(values),
            PowerSeries([str(v) for v in values]),
            PowerSeries([v.numerator if v.denominator == 1 else v for v in values]),
            PowerSeries.of([str(v) for v in values]),
        ]
        first = built[0]
        for series in built:
            assert series == first
            assert hash(series) == hash(first)
            assert series.coeffs == tuple(values)
            assert pickle.loads(pickle.dumps(series)) == series
        nums, den = first.int_row
        assert den > 0 and math.gcd(den, *nums) == 1
        assert all(type(c) is Fraction for c in first.coeffs)

    @given(values=st.lists(_RATIONALS, min_size=2, max_size=9), data=st.data())
    def test_truncate_keeps_the_row_canonical(self, values, data):
        order = data.draw(st.integers(0, len(values) - 1))
        series = PowerSeries(values).truncate(order)
        assert series == PowerSeries(values[: order + 1])
        nums, den = series.int_row
        assert math.gcd(den, *nums) == 1

    def test_getitem_builds_one_fraction(self):
        s = S(0, Fraction(1, 2), Fraction(-3, 4))
        assert s.int_row == ((0, 2, -3), 4)
        assert (s[0], s[1], s[2]) == (0, Fraction(1, 2), Fraction(-3, 4))
        with pytest.raises(IndexError):
            s[-1]


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
