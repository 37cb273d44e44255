"""Riordan arrays: construction from (G, F), sequence transforms, and the
re-indexing that identifies the (F, xF) array with the triangle of xF."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from compositae import (
    InsufficientOrder,
    CompositaTable,
    NonzeroConstantTerm,
    OrderMismatch,
    PowerSeries,
    catalog_series,
    check_riordan_formula,
    check_riordan_identity,
    compose_series,
    composita_from_series,
    default_instances,
    make_spec,
    riordan_apply,
    riordan_build,
)
from compositae.combinatorics import binomial
from helpers import series_strategy


def ones(order):
    return PowerSeries.of([1] * (order + 1), order=order)


def geometric(order):
    return PowerSeries.of([0] + [1] * order, order=order)


def pascal(order):
    return riordan_build(ones(order), geometric(order))


class TestRiordanArray:
    def test_rows_are_ragged_lower_triangle(self):
        t = CompositaTable(((Fraction(1),), (Fraction(2), Fraction(3))), base=0)
        assert t.order == 1
        assert t[0, 0] == 1
        assert t[1, 0] == 2
        assert t[1, 1] == 3

    def test_indexing_starts_at_zero(self):
        assert pascal(4).base == 0
        assert pascal(4)[0, 0] == 1

    def test_outside_band_is_zero(self):
        t = pascal(4)
        assert t[2, 3] == 0
        assert t[3, -1] == 0

    def test_row_out_of_range_raises(self):
        t = pascal(3)
        with pytest.raises(IndexError):
            t[4, 0]
        with pytest.raises(IndexError):
            t.row(4)

    def test_misshapen_row_rejected(self):
        with pytest.raises(ValueError):
            CompositaTable(((Fraction(1),), (Fraction(1),)), base=0)

    def test_entries_cover_the_triangle(self):
        t = pascal(5)
        seen = list(t.entries())
        assert len(seen) == 21
        assert seen[0] == (0, 0, Fraction(1))
        assert all(t[n, k] == v for n, k, v in seen)

    def test_row_column_and_truncation_start_at_zero(self):
        t = pascal(4)
        assert t.row(0) == (1,)
        assert t.column(0) == (1, 1, 1, 1, 1)
        assert t.column(2) == (1, 3, 6)
        small = t.truncated(2)
        assert (small.order, small.base) == (2, 0)
        assert small.rows == t.rows[:3]
        with pytest.raises(ValueError):
            t.truncated(-1)

    def test_with_entry_replaces_one_cell(self):
        t = pascal(4)
        faulty = t.with_entry(3, 1, Fraction(99))
        assert faulty[3, 1] == 99
        assert t[3, 1] == 3
        with pytest.raises(IndexError):
            t.with_entry(1, 2, Fraction(0))


class TestBuild:
    def test_pascal_from_geometric_pair(self):
        # (1/(1-x), x/(1-x)) is the binomial array.
        t = pascal(8)
        for n in range(9):
            for k in range(n + 1):
                assert t[n, k] == binomial(n, k)

    def test_first_column_is_g(self):
        g = PowerSeries.of([5, 0, Fraction(-1, 2), 7], order=5)
        t = riordan_build(g, geometric(5))
        for n in range(6):
            assert t[n, 0] == g.coeffs[n]

    def test_unit_g_reproduces_the_triangle(self):
        # (1, F) keeps F's triangle and pads row 0 with a lone 1.
        f = PowerSeries.of([0, 1, 1, 0, 2], order=6)
        tf = composita_from_series(f, 6)
        t = riordan_build(PowerSeries.of([1], order=6), f)
        assert t[0, 0] == 1
        for n in range(1, 7):
            assert t[n, 0] == 0
            for k in range(1, n + 1):
                assert t[n, k] == tf[n, k]

    def test_short_g_rejected(self):
        with pytest.raises(InsufficientOrder, match="g is needed to order 6, got 5"):
            riordan_build(ones(5), geometric(6))

    def test_f_is_checked_as_a_triangle_is(self):
        # the array has F's order, and F passes the triangle builder's checks
        with pytest.raises(NonzeroConstantTerm):
            riordan_build(ones(3), ones(3))
        with pytest.raises(ValueError, match="order >= 1"):
            riordan_build(ones(3), PowerSeries.of([0], order=0))
        assert riordan_build(ones(9), geometric(4)) == pascal(4)

    def test_zero_g_and_zero_f(self):
        zero = PowerSeries.of([0], order=4)
        assert riordan_build(zero, geometric(4)).int_rows == tuple(((0,) * (n + 1), 1) for n in range(5))
        pure = riordan_build(ones(4), zero)
        assert [pure.column(0), pure.column(1)] == [(1,) * 5, (0,) * 4]


class TestApply:
    def test_binomial_transform_of_ones(self):
        out = riordan_apply(pascal(7), [Fraction(1)] * 8)
        assert out == tuple(Fraction(2) ** n for n in range(8))

    def test_picks_out_a_column(self):
        b = [Fraction(0), Fraction(1)] + [Fraction(0)] * 6
        out = riordan_apply(pascal(7), b)
        assert out == tuple(Fraction(n) for n in range(8))

    def test_a_float_term_is_refused(self):
        with pytest.raises(TypeError, match="float"):
            riordan_apply(pascal(2), [1, 0.5, 0])

    def test_short_sequence_rejected(self):
        with pytest.raises(InsufficientOrder):
            riordan_apply(pascal(4), [Fraction(1)] * 4)

    def test_composita_triangle_rejected(self):
        # rows of a base-1 table would pair T(n, k) with b(k - 1)
        with pytest.raises(ValueError, match="base 0"):
            riordan_apply(composita_from_series(geometric(4), 4), [Fraction(1)] * 6)

    @given(
        g=series_strategy(min_order=6, max_order=6),
        f=series_strategy(min_order=6, max_order=6, zero_constant=True),
        b=st.lists(
            st.integers(min_value=-3, max_value=3), min_size=7, max_size=7
        ),
    )
    def test_matches_composition_route(self, g, f, b):
        # The table transform and G(x)*B(F(x)) are the same map.
        tf = composita_from_series(f, 6)
        table = riordan_build(g, f)
        b_series = PowerSeries.of([Fraction(v) for v in b], order=6)
        direct = g * compose_series(b_series, tf)
        assert riordan_apply(table, b_series.coeffs) == direct.coeffs


def shifted_pair(f, order):
    """The (F, xF) array to ``order`` and the triangle of xF to ``order + 1``."""
    base = f.truncate(order)
    xf = base.times_x()
    return riordan_build(base, xf.truncate(order)), composita_from_series(xf, order + 1)


class TestCompositaCheck:
    """``check_riordan_identity``: the (F, xF) array is the triangle of xF
    shifted by one."""

    def test_geometric(self):
        report = check_riordan_identity(*shifted_pair(ones(8), 8))
        assert report.verified
        assert report.checked == 9 * 10 // 2

    @pytest.mark.parametrize(
        "spec",
        [s for s in default_instances()],
        ids=lambda s: s.label(),
    )
    def test_every_catalog_function(self, spec):
        assert check_riordan_identity(*shifted_pair(catalog_series(spec, 8), 8)).verified

    def test_short_series_rejected(self):
        rio, table = shifted_pair(ones(8), 8)
        with pytest.raises(InsufficientOrder):
            check_riordan_identity(rio, table.truncated(8))

    @given(f=series_strategy(min_order=5, max_order=8))
    def test_holds_for_arbitrary_series(self, f):
        assert check_riordan_identity(*shifted_pair(f, f.order)).verified

    def test_detects_a_broken_pairing(self):
        # Pair tan with the triangle of x*sin instead of x*tan: the shifted
        # array no longer matches.
        order = 6
        f = catalog_series(make_spec("tan"), order)
        wrong = catalog_series(make_spec("sin"), order)
        table = composita_from_series(wrong.times_x(), order + 1)
        rio = riordan_build(f, wrong.times_x().truncate(order))
        report = check_riordan_identity(rio, table)
        assert report.status == "counterexample"
        (n, k), lhs, rhs = report.first_failure
        assert lhs == rio[n, k] != rhs == table[n + 1, k + 1]


class TestRiordanFormula:
    """``check_riordan_formula`` needs F's triangle to the array's order
    and G at least that far; its sweep is in ``test_identities``."""

    def test_orders_are_checked(self):
        rio = pascal(6)
        assert check_riordan_formula(rio, ones(6), composita_from_series(geometric(6))).verified
        with pytest.raises(OrderMismatch):
            check_riordan_formula(rio, ones(6), composita_from_series(geometric(5)))
        with pytest.raises(InsufficientOrder):
            check_riordan_formula(rio, ones(5), composita_from_series(geometric(6)))
