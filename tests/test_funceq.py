from __future__ import annotations

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from compositae import (
    CompositaTable,
    InsufficientOrder,
    PowerSeries,
    ZeroConstantTerm,
    catalog_series,
    compose_series,
    composita_from_powers,
    composita_from_series,
    make_spec,
    solve_functional_equation,
)
from compositae import funceq, triangle
from compositae.combinatorics import binomial
from helpers import catalan, gb, reference_quotient, series_strategy


def unit_series(g):
    """``g`` with a zero constant term replaced by 1."""
    coeffs = list(g.coeffs)
    coeffs[0] = coeffs[0] or Fraction(1)
    return PowerSeries(tuple(coeffs))


class TestRightComposita:
    """The paper's right composita (k/n) * T_xG(2n - k, n), the triangle of
    x*A for A = G(xA), is ``solve_functional_equation`` with m = 1."""

    def test_identity_for_constant_one(self):
        t = solve_functional_equation(PowerSeries.of([1], order=8), 1, 8).a_table
        assert t.order == 9
        for n, k, value in t.entries():
            assert value == (1 if n == k else 0)

    def test_pascal_from_one_plus_x(self):
        # A = 1 + x*A solves to 1/(1-x); its x*A triangle is Pascal.
        t = solve_functional_equation(PowerSeries.of([1, 1], order=10), 1, 10).a_table
        assert t.order == 11
        for n, k, value in t.entries():
            assert value == binomial(n - 1, k - 1)

    def test_tree_function_from_x_exp(self):
        # A = exp(x*A), so x*A is the tree function: entry (n,1) = n^(n-1)/n!.
        g = PowerSeries(tuple(Fraction(1, math.factorial(n)) for n in range(7)))
        t = solve_functional_equation(g, 1, 6).a_table
        for n in range(1, 8):
            assert t[n, 1] == Fraction(n ** (n - 1), math.factorial(n))


class TestLeftComposita:
    """The paper's left composita (k/(2k - n)) * T_xG(k, 2k - n) is the
    m = -1 triangle where 2k - n >= 1; the full m = -1 solution undoes
    the m = 1 solution, and the other way round, on the whole series."""

    def test_identity_for_constant_one(self):
        t = solve_functional_equation(PowerSeries.of([1], order=7), -1, 7).a_table
        for n, k, value in t.entries():
            assert value == (1 if n == k else 0)

    def test_one_plus_x_closed_form(self):
        # A = 1 + x/A: entries (k/(2k-n)) C(2k-n, n-k) where 2k - n >= 1.
        t = solve_functional_equation(PowerSeries.of([1, 1], order=7), -1, 7).a_table
        for n, k, value in t.entries():
            if 2 * k - n >= 1:
                assert value == Fraction(k, 2 * k - n) * binomial(2 * k - n, n - k)

    @given(g=series_strategy(min_order=9, max_order=9))
    def test_right_after_left_restores(self, g):
        g = unit_series(g)
        a = solve_functional_equation(g, -1, 9).a_series
        assert solve_functional_equation(a, 1, 9).a_series == g

    @given(g=series_strategy(min_order=9, max_order=9))
    def test_left_after_right_restores_where_defined(self, g):
        # with the full m = -1 solution, "where defined" is everywhere
        g = unit_series(g)
        a = solve_functional_equation(g, 1, 9).a_series
        assert solve_functional_equation(a, -1, 9).a_series == g


class TestSolver:
    def test_rejects_zero_constant_term(self):
        with pytest.raises(ZeroConstantTerm):
            solve_functional_equation(PowerSeries.of([0, 1], order=8), 2, 2)

    def test_rejects_short_series(self):
        for m in (-2, 0, 2):
            with pytest.raises(InsufficientOrder):
                solve_functional_equation(PowerSeries.of([1, 1], order=3), m, 4)

    @pytest.mark.parametrize("m", [-3, -1, 0, 1, 2])
    def test_order_zero_holds_a0(self, m):
        sol = solve_functional_equation(PowerSeries.of([3, 1], order=1), m, 0)
        assert sol.a_table == CompositaTable(((3,),))
        assert sol.a_series == PowerSeries((3,))

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            solve_functional_equation(PowerSeries.of([1, 1], order=3), 1, -1)

    @pytest.mark.parametrize("m, order", [(99999999, 2), (-2000, 40), (0, 1000), (1, 1000)])
    def test_refuses_a_power_table_over_its_cap(self, monkeypatch, m, order):
        # refused before the first power of G is built
        monkeypatch.setattr(funceq, "_power_table", None)
        with pytest.raises(ValueError, match=f"; its cap is {triangle.MAX_TABLE_ENTRIES}$"):
            solve_functional_equation(PowerSeries.of([1, 1], order=order), m, order)

    @pytest.mark.parametrize("cap", [6256, 6255])
    def test_cap_reads_the_power_table_estimate(self, monkeypatch, cap):
        # m = 3 to order 45, the largest solve in the benchmark's job lists,
        # is estimated at (3 * 45 + 1) * (45 + 1) = 6256 entries
        monkeypatch.setattr(funceq, "MAX_TABLE_ENTRIES", cap)
        g = PowerSeries.of([1, 1], order=45)
        if cap < 6256:
            with pytest.raises(ValueError, match="about 6256 entries; its cap is 6255$"):
                solve_functional_equation(g, 3, 45)
        else:
            # A = 1 + x*A^3 counts ternary trees: a(n) = C(3n, n) / (2n + 1)
            a = solve_functional_equation(g, 3, 45).a_series
            assert a[45] == binomial(3 * 45, 45) // (2 * 45 + 1)

    @pytest.mark.parametrize("m, builds", [(-3, 1), (-1, 1), (0, 0), (1, 0), (3, 0)])
    def test_triangles_built(self, monkeypatch, m, builds):
        # m >= 0 reads a band of powers of G and builds no triangle; m < 0
        # builds only the reciprocal transform's triangle of x*A.
        calls = []
        build = triangle.composita_from_series

        def counting(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name == "compositae" or name.startswith("compositae."):
                monkeypatch.setattr(module, "composita_from_series", counting, raising=False)
        solve_functional_equation(PowerSeries.of([1, 2, -1], order=6), m, 6)
        assert len(calls) == builds

    def test_required_order(self):
        # G is needed to the solution's order and no further, for every m.
        for m in (-3, -1, 0, 1, 3):
            sol = solve_functional_equation(PowerSeries.of([1, 1], order=6), m, 6)
            assert sol.a_series.order == 6

    def test_m_zero_returns_g(self):
        g = PowerSeries.of([1, 1, Fraction(1, 2)], order=6)
        sol = solve_functional_equation(g, 0, 6)
        assert sol.a_series == g

    def test_catalan_solution(self):
        sol = solve_functional_equation(PowerSeries.of([1, 1], order=24), 2, 8)
        assert list(sol.a_series.coeffs) == [catalan(n) for n in range(9)]

    def test_negative_one_alternating_catalan(self):
        sol = solve_functional_equation(PowerSeries.of([1, 1], order=16), -1, 8)
        expected = [Fraction(1), Fraction(1)] + [
            (-1) ** (n - 1) * catalan(n - 1) for n in range(2, 9)
        ]
        assert list(sol.a_series.coeffs) == expected

    def test_negative_table_has_entries_the_formula_misses(self):
        # At 2k-n = 0 the m=-1 closed form degenerates, but the triangle
        # itself is perfectly finite there.
        sol = solve_functional_equation(PowerSeries.of([1, 1], order=16), -1, 7)
        assert sol.a_table[2, 1] == 1

    @given(
        g=series_strategy(min_order=8, max_order=8),
        m=st.integers(min_value=-3, max_value=3),
        order=st.integers(min_value=1, max_value=8),
    )
    def test_fixed_point_property(self, g, m, order):
        coeffs = list(g.coeffs[: order + 1])
        coeffs[0] = coeffs[0] or Fraction(1)
        g = PowerSeries(tuple(coeffs))  # truncated to exactly the order
        sol = solve_functional_equation(g, m, order)
        a = sol.a_series
        if m >= 0:
            a_pow = a**m
        else:
            a_pow = reference_quotient(PowerSeries.one(order), a ** (-m))
        inner = PowerSeries.of([0, 1], order=order) * a_pow
        evaluated = compose_series(g, composita_from_series(inner, order))
        assert evaluated == a
        # the triangle agrees with powers of x*A, a route sharing no code
        # with the banded power table or the reciprocal transform
        assert sol.a_table == composita_from_powers(a.times_x(), order + 1)

    @given(
        g=series_strategy(min_order=6, max_order=6),
        m=st.integers(min_value=-3, max_value=3),
        order=st.integers(min_value=0, max_value=6),
    )
    def test_series_is_column_1_of_the_table(self, g, m, order):
        sol = solve_functional_equation(unit_series(g), m, order)
        column = tuple(sol.a_table[n, 1] for n in range(1, order + 2))
        assert sol.a_series == PowerSeries(column)
        assert sol.a_series.order == order

    @given(
        g=series_strategy(min_order=16, max_order=16),
        m=st.integers(min_value=-2, max_value=3),
    )
    def test_diagonal_is_preserved(self, g, m):
        # the diagonal of x*A is that of x*G: a(0) = g(0)
        g = unit_series(g)
        sol = solve_functional_equation(g, m, 4)
        for n in range(1, sol.a_table.order + 1):
            assert sol.a_table[n, n] == g[0] ** n

    @given(g=series_strategy(min_order=11, max_order=11))
    def test_lagrange_classical_relation(self, g):
        # For A = G(xA): n*[x^n](xA)^k = k*[x^(n-k)] G^n.
        order = 5
        coeffs = list(g.coeffs)
        coeffs[0] = coeffs[0] or Fraction(1)
        g = PowerSeries(tuple(coeffs))
        sol = solve_functional_equation(g, 1, order)
        for n in range(1, order + 1):
            g_pow_n = g.truncate(order) ** n
            for k in range(1, n + 1):
                assert n * sol.a_table[n, k] == k * g_pow_n[n - k]

    def test_integer_family_stays_integer(self):
        for m in (0, 1, 2, 3):
            sol = solve_functional_equation(PowerSeries.of([1, 1], order=4 * 8), m, 8)
            for _, _, value in sol.a_table.entries():
                assert value.denominator == 1


_INTEGER_G = st.integers(min_value=-6, max_value=6)
_RATIONAL_G = st.fractions(min_value=-6, max_value=6, max_denominator=20)


@st.composite
def _unit_g(draw, order):
    """G to ``order`` with g(0) != 0, over integers or rationals (either
    sign of g(0)), or the sparse 1 + x^2."""
    family = draw(st.sampled_from(["integer", "rational", "1 + x^2"]))
    if family == "1 + x^2":
        return PowerSeries.of([1, 0, 1], order=order)
    values = draw(st.lists(_INTEGER_G if family == "integer" else _RATIONAL_G,
                           min_size=order + 1, max_size=order + 1))
    values[0] = values[0] or draw(st.sampled_from([1, -1, 2, -3]))
    return PowerSeries.of(values)


class TestNegativeM:
    """m < 0 reads a(d) = [x^d] G^j / j, j = 1 + m*d, off Miller's power
    recurrence.  The reference is the paper's reduction through
    reciprocals, built here from parts that share no code with it:
    1 / solve(1/G, -m) by the m > 0 power table, with the plain
    ``Fraction`` quotient of ``helpers.reference_quotient``."""

    @given(data=st.data(), m=st.integers(min_value=-3, max_value=-1),
           order=st.integers(min_value=0, max_value=12))
    def test_matches_the_reciprocal_reduction(self, data, m, order):
        g = data.draw(_unit_g(order))
        one = PowerSeries.one(order)
        inner = solve_functional_equation(reference_quotient(one, g), -m, order).a_series
        expected = reference_quotient(one, inner)
        sol = solve_functional_equation(g, m, order)
        assert sol.a_series == expected
        assert sol.a_table == composita_from_powers(expected.times_x(), order + 1)

    @pytest.mark.parametrize("g", [[3, 5], [Fraction(-3, 7), Fraction(2, 13)], [1, 0, 1]])
    def test_j_zero_is_the_log_term(self, g):
        # m = -1, d = 1: j = 0, and a(1) = [x] log G = g(1)/g(0)
        a = solve_functional_equation(PowerSeries.of(g, order=1), -1, 1).a_series
        assert a.coeffs == (Fraction(g[0]), Fraction(g[1]) / g[0])


def radical_composita(m: int, order: int) -> CompositaTable:
    """The triangle of the catalog's radical:m, 1 - (1-x)^(1/m)."""
    return composita_from_series(catalog_series(make_spec("radical", [m]), order), order)


def arcsin_composita(order: int) -> CompositaTable:
    return composita_from_series(catalog_series(make_spec("arcsin"), order), order)


def triangle_by_solve(b: PowerSeries, order: int) -> CompositaTable:
    """The triangle of x*A, to ``order``, for the A that solves A = G(xA)
    with G = 1/B: the reference route through ``solve`` with m = 1, which
    reads B only to ``order - 1``."""
    return solve_functional_equation(PowerSeries.one(order - 1) / b, 1, order - 1).a_table


class TestRadical:
    @staticmethod
    def by_solve(m: int, order: int) -> CompositaTable:
        # A = (1 - (1-x)^(1/m))/x solves A = G(xA) with G = x/(1 - (1-x)^m),
        # the reciprocal of (1 - (1-x)^m)/x = sum_{j=1}^{m} C(m, j) (-1)^(j+1) x^(j-1)
        denom = PowerSeries.of(
            [(-1) ** (j + 1) * binomial(m, j) for j in range(1, min(m, order) + 1)],
            order=order - 1,
        )
        return triangle_by_solve(denom, order)

    def test_cube_root_matches_binomial_expansion(self):
        t = radical_composita(3, 10)
        for n in range(1, 11):
            assert t[n, 1] == -((-1) ** n) * gb(Fraction(1, 3), n)

    def test_square_root_column(self):
        t = radical_composita(2, 6)
        assert [t[n, 1] for n in range(1, 4)] == [
            Fraction(1, 2),
            Fraction(1, 8),
            Fraction(1, 16),
        ]

    def test_diagonal_is_inverse_root(self):
        t = radical_composita(3, 8)
        for n in range(1, 9):
            assert t[n, n] == Fraction(1, 3) ** n

    def test_full_table_is_the_composita_of_the_series(self):
        for order in (1, 2, 9):
            for m in (1, 2, 3, 4, 10**6):
                series = PowerSeries(
                    (Fraction(0),)
                    + tuple(-((-1) ** n) * gb(Fraction(1, m), n) for n in range(1, order + 1))
                )
                assert radical_composita(m, order) == composita_from_series(series, order)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 10**6])
    def test_designator_equals_the_solve_route(self, m):
        for order in range(1, 41):
            assert radical_composita(m, order) == self.by_solve(m, order), order


class TestArcsin:
    @staticmethod
    def arcsin_coeff(n: int) -> Fraction:
        # Integrate (1-x^2)^(-1/2) term by term.
        if n % 2 == 0:
            return Fraction(0)
        j = (n - 1) // 2
        return Fraction(binomial(2 * j, j), 4**j * (2 * j + 1))

    def test_column_is_the_arcsin_series(self):
        t = arcsin_composita(9)
        for n in range(1, 10):
            assert t[n, 1] == self.arcsin_coeff(n)

    def test_odd_cells_vanish(self):
        t = arcsin_composita(8)
        for n, k, value in t.entries():
            if (n - k) % 2 == 1:
                assert value == 0

    def test_diagonal_is_one(self):
        t = arcsin_composita(8)
        for n in range(1, 9):
            assert t[n, n] == 1

    def test_full_table_is_the_composita_of_the_series(self):
        for order in (1, 2, 8):
            series = PowerSeries(tuple(self.arcsin_coeff(n) for n in range(order + 1)))
            assert arcsin_composita(order) == composita_from_series(series, order)

    def test_designator_equals_the_solve_route(self):
        # A = arcsin(x)/x solves A = G(xA) with G = x/sin(x), the reciprocal
        # of the catalog's sin(x)/x
        for order in range(1, 51):
            sin_over_x = catalog_series(make_spec("sin_over_x"), order - 1)
            assert arcsin_composita(order) == triangle_by_solve(sin_over_x, order), order
