"""Differential tests for the routes built on the integer row kernel.

Each routed function is compared for exact equality with an independent
route that never touches the kernel: the powers route and the oracle for
the triangle, plain list convolutions from ``tests/helpers.py``,
``PowerSeries`` arithmetic, and the paper's sum and product theorems as
checked in ``identities.py``.  The random series mix zeros, f(1) = 0,
negative values, coprime and shared denominators, and all-integer lists.
"""
from __future__ import annotations

from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from compositae import (
    PowerSeries,
    check_product_identity,
    check_sum_identity,
    compose_series,
    composita_compose,
    composita_from_powers,
    composita_from_series,
    composita_oracle,
    inverse_series,
    riordan_build,
)
from compositae._rows import combine, dot, fractions_of, to_row

from helpers import compose_plain, convolve, power_coeffs

# Coefficient families: every series draws all its coefficients from one.
INTEGERS = st.integers(min_value=-4, max_value=4).map(Fraction)
SHARED_DENOMINATOR = st.integers(min_value=-8, max_value=8).map(lambda p: Fraction(p, 6))
COPRIME_DENOMINATORS = st.builds(
    Fraction,
    st.integers(min_value=-5, max_value=5),
    st.sampled_from([1, 2, 3, 5, 7, 11, 13]),
)
FAMILIES = st.sampled_from([INTEGERS, SHARED_DENOMINATOR, COPRIME_DENOMINATORS])


@st.composite
def rational_series(draw, min_order=1, max_order=8, vanishing=True, unit_linear=False):
    """Random series; ``vanishing`` forces f(0) = 0 and sometimes f(1) = 0."""
    order = draw(st.integers(min_value=min_order, max_value=max_order))
    family = draw(FAMILIES)
    values = draw(st.lists(family, min_size=order + 1, max_size=order + 1))
    if vanishing:
        values[0] = Fraction(0)
        if draw(st.booleans()):
            values[1] = Fraction(0)
    if unit_linear and values[1] == 0:
        values[1] = draw(family.filter(bool))
    return PowerSeries(tuple(values))


def _plain_triangle(coeffs: list[Fraction], order: int) -> list[list[Fraction]]:
    """rows[n-1][k-1] = [x^n] (sum coeffs[i] x^i)^k, by list convolution."""
    columns = [power_coeffs(coeffs, k, order) for k in range(1, order + 1)]
    return [[columns[k - 1][n] for k in range(1, n + 1)] for n in range(1, order + 1)]


class TestKernel:
    @given(values=st.lists(COPRIME_DENOMINATORS, min_size=1, max_size=6))
    def test_rows_are_canonical(self, values):
        nums, den = to_row(values)
        assert fractions_of((nums, den)) == tuple(values)
        doubled = combine([(2, 1, (nums, den), 0), (-1, 1, (nums, den), 0)], len(values))
        assert doubled == (nums, den)
        zero = combine([(1, 1, (nums, den), 0), (-1, 1, (nums, den), 0)], len(values))
        assert zero == ((0,) * len(values), 1)

    @given(
        scalars=st.lists(COPRIME_DENOMINATORS, min_size=1, max_size=6),
        values=st.lists(SHARED_DENOMINATOR, min_size=1, max_size=6),
    )
    def test_dot_matches_fraction_sum(self, scalars, values):
        # dot takes the scalars as one canonical row
        expected = sum((s * v for s, v in zip(scalars, values)), Fraction(0))
        assert dot(to_row(scalars), values) == expected

    def test_shifted_terms_are_cut_to_width(self):
        row = to_row([Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)])
        nums, den = combine([(3, 1, row, 2), (1, 5, row, 4)], 4)
        assert fractions_of((nums, den)) == (0, 0, Fraction(3, 2), 1)


class TestTriangle:
    @given(f=rational_series(max_order=10))
    def test_recurrence_matches_powers(self, f):
        assert composita_from_series(f) == composita_from_powers(f)

    @given(f=rational_series(max_order=8))
    def test_recurrence_matches_oracle(self, f):
        table = composita_from_series(f)
        for n, k, value in table.entries():
            assert value == composita_oracle(f, n, k)


class TestRiordan:
    @given(
        g=rational_series(min_order=8, max_order=8, vanishing=False),
        f=rational_series(max_order=8),
    )
    def test_columns_are_g_times_powers(self, g, f):
        n_max = f.order
        rio = riordan_build(g, composita_from_series(f))
        g_coeffs = list(g.coeffs)
        for k in range(n_max + 1):
            column = convolve(g_coeffs, power_coeffs(list(f.coeffs), k, n_max), n_max)
            for n in range(k, n_max + 1):
                assert rio[n, k] == column[n]


class TestCalculus:
    @given(
        f=rational_series(min_order=7, max_order=7),
        r=rational_series(min_order=7, max_order=7),
    )
    def test_compose_matches_convolution_triangle(self, f, r):
        n_max = 7
        outer = [Fraction(0)] * (n_max + 1)
        for k in range(1, n_max + 1):
            power = power_coeffs(list(f.coeffs), k, n_max)
            outer = [a + r.coeffs[k] * p for a, p in zip(outer, power)]
        table = composita_compose(composita_from_series(f), composita_from_series(r))
        assert [list(row) for row in table.rows] == _plain_triangle(outer, n_max)

    @given(
        r=rational_series(min_order=8, max_order=8, vanishing=False),
        f=rational_series(max_order=8),
    )
    def test_compose_series_matches_horner(self, r, f):
        assert compose_series(r, composita_from_series(f)) == compose_plain(r, f)

    @given(f=rational_series(min_order=2, max_order=8, unit_linear=True))
    def test_inverse_undoes_f(self, f):
        a = inverse_series(f, composita_from_series(f))
        assert compose_plain(f, a) == PowerSeries.of([0, 1], order=f.order)

    @given(
        f=rational_series(min_order=6, max_order=6),
        b=rational_series(min_order=6, max_order=6, vanishing=False),
    )
    def test_product_matches_powers(self, f, b):
        # the paper's product theorem, on integer powers of B, against the
        # recurrence triangle of F * B
        product = composita_from_series(f * b)
        assert check_product_identity(composita_from_series(f), b, product).verified

    @given(
        f=rational_series(min_order=6, max_order=6),
        g=rational_series(min_order=6, max_order=6),
    )
    def test_sum_matches_powers(self, f, g):
        # the paper's sum theorem, on plain Fractions, against the
        # recurrence triangle of F + G
        total = composita_from_series(f + g)
        tf, tg = composita_from_series(f), composita_from_series(g)
        assert check_sum_identity(tf, tg, total).verified
