from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from compositae import (
    InsufficientOrder,
    CompositaTable,
    NonzeroConstantTerm,
    PowerSeries,
    composita_from_powers,
    composita_from_series,
    composita_oracle,
)
from helpers import power_coeffs, series_strategy

GEOMETRIC = PowerSeries.of([0] + [1] * 10, order=10)  # x/(1-x)

PASCAL_ROWS = [
    [1],
    [1, 1],
    [1, 2, 1],
    [1, 3, 3, 1],
    [1, 4, 6, 4, 1],
    [1, 5, 10, 10, 5, 1],
]


class TestTableType:
    def setup_method(self):
        self.table = composita_from_series(PowerSeries.of([0, 1, 1], order=4), 4)

    def test_entries_inside_triangle(self):
        assert self.table[2, 1] == 1
        assert self.table[4, 2] == 1
        assert self.table[4, 3] == 3

    def test_zero_outside_band(self):
        assert self.table[3, 4] == 0
        assert self.table[3, 0] == 0
        assert self.table[3, -1] == 0

    def test_row_outside_order_raises(self):
        with pytest.raises(IndexError):
            self.table[5, 1]

    def test_row_and_column_views(self):
        assert self.table.row(3) == (0, 2, 1)
        assert self.table.column(1) == (1, 1, 0, 0)

    def test_truncated(self):
        small = self.table.truncated(2)
        assert small.order == 2
        assert small[2, 2] == 1

    def test_with_entry_replaces_single_value(self):
        bumped = self.table.with_entry(3, 2, Fraction(9))
        assert bumped[3, 2] == 9
        assert self.table[3, 2] == 2
        assert bumped[3, 1] == self.table[3, 1]

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            CompositaTable(rows=((Fraction(1),), (Fraction(1),)))


class TestOracle:
    def test_geometric_pair_count(self):
        assert composita_oracle(GEOMETRIC, 5, 2) == 4

    def test_first_column_is_the_series(self):
        f = PowerSeries.of([0, 3, -1, 2], order=5)
        for n in range(1, 6):
            assert composita_oracle(f, n, 1) == f[n]

    def test_poly2_cell(self):
        assert composita_oracle(PowerSeries.of([0, 1, 1], order=4), 4, 2) == 1

    def test_nonzero_constant_term_rejected(self):
        with pytest.raises(NonzeroConstantTerm):
            composita_oracle(PowerSeries.of([1, 1], order=3), 2, 1)


class TestRecurrence:
    def test_pascal_triangle(self):
        table = composita_from_series(GEOMETRIC.truncate(6), 6)
        assert [list(table.row(n)) for n in range(1, 7)] == PASCAL_ROWS

    def test_monomial_x_squared(self):
        table = composita_from_series(PowerSeries.of([0, 0, 1], order=6), 6)
        for n, k, value in table.entries():
            assert value == (1 if n == 2 * k else 0)

    def test_x_exp(self):
        import math

        f = PowerSeries(tuple(Fraction(0) if n == 0 else Fraction(1, math.factorial(n - 1)) for n in range(9)))
        table = composita_from_series(f, 8)
        for n, k, value in table.entries():
            assert value == Fraction(k ** (n - k), math.factorial(n - k))

    def test_requires_enough_coefficients(self):
        with pytest.raises(InsufficientOrder):
            composita_from_series(PowerSeries.of([0, 1], order=3), 7)

    def test_nonzero_constant_term_rejected(self):
        with pytest.raises(NonzeroConstantTerm):
            composita_from_series(PowerSeries.of([2, 1], order=3), 3)


class TestPowers:
    def test_identity_table(self):
        table = composita_from_powers(PowerSeries.of([0, 1], order=5), 5)
        for n, k, value in table.entries():
            assert value == (1 if n == k else 0)

    def test_scaled_monomial(self):
        table = composita_from_powers(PowerSeries.of([0, 2], order=4), 4)
        for n, k, value in table.entries():
            assert value == (2**k if n == k else 0)

    def test_agrees_with_recurrence_on_poly(self):
        f = PowerSeries.of([0, 1, 1], order=10)
        assert composita_from_powers(f, 10) == composita_from_series(f, 10)


class TestSeriesReadback:
    def test_pascal_column(self):
        table = composita_from_series(GEOMETRIC.truncate(6), 6)
        assert table.column(1) == (1, 1, 1, 1, 1, 1)

    def test_identity_column(self):
        table = composita_from_series(PowerSeries.of([0, 1], order=4), 4)
        assert table.column(1) == (1, 0, 0, 0)

    @given(f=series_strategy(zero_constant=True))
    def test_roundtrip(self, f):
        table = composita_from_series(f, f.order)
        assert table.column(1) == f.coeffs[1:]


@given(f=series_strategy(min_order=3, max_order=9, zero_constant=True))
def test_three_constructions_agree(f):
    n = f.order
    by_recurrence = composita_from_series(f, n)
    by_powers = composita_from_powers(f, n)
    assert by_recurrence == by_powers
    # Spot-check the brute-force enumeration on a diagonal stripe; running
    # it on every cell is wasteful since it is exponential in n.
    for nn, kk in [(n, 1), (n, 2), (n, n), (n - 1, n // 2 or 1)]:
        assert composita_oracle(f, nn, kk) == by_recurrence[nn, kk]


@given(f=series_strategy(zero_constant=True))
def test_structural_laws(f):
    table = composita_from_series(f, f.order)
    for n in range(1, f.order + 1):
        assert table[n, 1] == f[n]
        assert table[n, n] == f[1] ** n


def test_row_sums_count_compositions():
    table = composita_from_series(GEOMETRIC, 10)
    for n in range(1, 11):
        assert sum(table.row(n)) == 2 ** (n - 1)


@given(f=series_strategy(min_order=3, max_order=8, zero_constant=True), k=st.integers(1, 8))
def test_columns_match_plain_convolution(f, k):
    if k > f.order:
        k = f.order
    table = composita_from_series(f, f.order)
    oracle = power_coeffs(list(f.coeffs), k, f.order)
    for n in range(k, f.order + 1):
        assert table[n, k] == oracle[n]
