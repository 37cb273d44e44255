"""The identity checkers: each one verifies on honest inputs, reports the
first counterexample on corrupted ones, and produces a usable record."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from compositae import (
    DivisionByNonUnit,
    IdentityReport,
    InsufficientOrder,
    OrderMismatch,
    PowerSeries,
    catalog_series,
    check_associativity,
    check_closed_form,
    check_derivative_identity,
    check_funceq_identity,
    check_inverse_identity,
    check_lambert_identity,
    check_product_identity,
    check_reciprocal_identity,
    check_riordan_formula,
    check_riordan_identity,
    check_sum_identity,
    composita_from_series,
    inverse_series,
    make_spec,
    parse_function_spec,
    reciprocal_composita,
    riordan_build,
)
from helpers import route, series_strategy, small_fraction, small_int_fraction


def table_for(name: str, order: int):
    return composita_from_series(catalog_series(make_spec(name), order), order)


def xg_table(coeffs, order):
    g = PowerSeries.of(list(coeffs), order=order - 1)
    return composita_from_series(g.times_x(), order)


class TestReport:
    def test_verified_record(self):
        report = IdentityReport("demo", "n <= 4", 0)
        assert report.verified
        assert report.status == "verified"
        assert report.to_record() == {
            "identity": "demo",
            "range": "n <= 4",
            "status": "verified",
            "checked": 0,
        }

    def test_counterexample_record(self):
        report = IdentityReport("demo", "n <= 4", 5, ((3, 2), Fraction(25), Fraction(26)))
        assert not report.verified
        record = report.to_record()
        assert list(record) == ["identity", "range", "status", "checked", "failure"]
        assert record["status"] == "counterexample"
        assert record["checked"] == 5
        assert record["failure"] == {
            "parameters": [3, 2],
            "lhs": "25",
            "rhs": "26",
        }


class TestAssociativity:
    TRIPLES = [
        ("geometric", "sin", "x_exp"),
        ("poly2:1,1", "geometric", "expm1"),
        ("tan", "poly2:1,-1", "sinh"),
    ]

    @pytest.mark.parametrize("names", TRIPLES, ids=lambda t: "*".join(t))
    def test_catalog_triples_verify(self, names):
        order = 8
        tables = [
            composita_from_series(catalog_series(parse_function_spec(n), order), order)
            for n in names
        ]
        report = check_associativity(*tables)
        assert report.verified
        assert report.first_failure is None

    def test_fault_is_caught(self):
        order = 6
        tables = [table_for(n, order) for n in ("geometric", "sin", "x_exp")]
        report = check_associativity(*tables, fault=(4, 1, Fraction(1)))
        assert report.status == "counterexample"
        params, lhs, rhs = report.first_failure
        assert lhs != rhs

    def test_orders_must_match(self):
        with pytest.raises(OrderMismatch):
            check_associativity(
                table_for("geometric", 6),
                table_for("sin", 6),
                table_for("x_exp", 5),
            )


class TestDerivative:
    @pytest.mark.parametrize("name", ["geometric", "sin", "x_exp", "tan"])
    def test_catalog_functions_verify(self, name):
        order = 10
        f = catalog_series(make_spec(name), order)
        report = check_derivative_identity(f, composita_from_series(f, order))
        assert report.verified

    def test_corrupted_table_is_caught(self):
        order = 8
        f = catalog_series(make_spec("geometric"), order)
        tf = composita_from_series(f, order)
        bad = tf.with_entry(5, 2, tf[5, 2] + 1)
        report = check_derivative_identity(f, bad)
        assert report.status == "counterexample"


class TestInverse:
    def test_x_exp_pair_verifies(self):
        order = 10
        f = catalog_series(make_spec("x_exp"), order)
        tf = composita_from_series(f, order)
        report = check_inverse_identity(
            tf, composita_from_series(inverse_series(f, tf), order)
        )
        assert report.verified

    def test_wrong_inverse_is_caught(self):
        order = 6
        f = catalog_series(make_spec("x_exp"), order)
        tf = composita_from_series(f, order)
        tinv = composita_from_series(inverse_series(f, tf), order)
        report = check_inverse_identity(
            tf, tinv.with_entry(4, 2, tinv[4, 2] + Fraction(1, 3))
        )
        assert report.status == "counterexample"

    def test_orders_must_match(self):
        with pytest.raises(OrderMismatch):
            check_inverse_identity(table_for("sin", 6), table_for("sin", 7))


class TestLambert:
    def test_verifies_through_ten(self):
        report = check_lambert_identity(10)
        assert report.verified
        assert report.parameter_range == "1 <= m <= n <= 10"

    def test_fault_is_caught_at_its_site(self):
        report = check_lambert_identity(10, fault=(7, 3, Fraction(1)))
        assert report.status == "counterexample"
        assert report.first_failure[0] == (7, 3)


class TestFuncEq:
    G_COEFFS = {
        "geometric": [Fraction(1)] * 40,
        "expm1_over_x": [Fraction(1, math.factorial(n + 1)) for n in range(40)],
        "one_plus_x": [Fraction(1), Fraction(1)] + [Fraction(0)] * 38,
    }

    @pytest.mark.parametrize("g_name", sorted(G_COEFFS))
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_generating_function_families_verify(self, g_name, m):
        max_n, max_r = 6, 6
        g = xg_table(self.G_COEFFS[g_name], (m + 1) * max_n + max_r)
        report = check_funceq_identity(g, m, max_n, max_r)
        assert report.verified

    def test_corrupted_table_is_caught(self):
        g = xg_table(self.G_COEFFS["geometric"], 14)
        bad = g.with_entry(3, 2, g[3, 2] + 1)
        report = check_funceq_identity(bad, 1, 6, 2)
        assert report.status == "counterexample"

    def test_m_below_one_rejected(self):
        g = xg_table(self.G_COEFFS["geometric"], 14)
        with pytest.raises(ValueError):
            check_funceq_identity(g, 0, 6, 2)

    def test_short_table_rejected(self):
        g = xg_table(self.G_COEFFS["geometric"], 10)
        with pytest.raises(InsufficientOrder):
            check_funceq_identity(g, 1, 6, 6)


class TestReciprocal:
    @staticmethod
    def checked(b: PowerSeries, order: int, fault=None) -> IdentityReport:
        return check_reciprocal_identity(b, reciprocal_composita(b, order), fault=fault)

    def test_sin_over_x_verifies(self):
        report = self.checked(catalog_series(make_spec("sin_over_x"), 11), 12)
        assert report.verified
        assert report.parameter_range == "1 <= m <= n <= 12"

    def test_one_minus_x_verifies(self):
        assert self.checked(PowerSeries.of([1, -1], order=9), 10).verified

    def test_rational_series_verifies(self):
        # unrelated denominators, so no entry of the table reduces to an integer
        b = PowerSeries.of(["3/7", "-1/11", "2/13", "-5/17", "1/19", "4/23"], order=7)
        assert self.checked(b, 8).verified

    def test_fault_is_caught_at_its_site(self):
        b = catalog_series(make_spec("sin_over_x"), 9)
        report = self.checked(b, 10, fault=(6, 2, Fraction(1, 5)))
        assert report.status == "counterexample"
        assert report.first_failure[0] == (6, 2)

    def test_wrong_table_is_caught(self):
        b = PowerSeries.of([1, -1], order=7)
        table = reciprocal_composita(b, 8)
        report = check_reciprocal_identity(b, table.with_entry(5, 3, table[5, 3] + 1))
        assert report.first_failure[0] == (5, 3)

    def test_rejects_zero_constant_term(self):
        with pytest.raises(DivisionByNonUnit):
            check_reciprocal_identity(PowerSeries.of([0, 1], order=4), table_for("geometric", 4))

    def test_short_series_rejected(self):
        b = PowerSeries.of([1, -1], order=7)
        with pytest.raises(InsufficientOrder):
            check_reciprocal_identity(b.truncate(5), reciprocal_composita(b, 8))


COEFFS = {"int": small_int_fraction, "rational": small_fraction}
NONZERO = small_fraction.filter(bool)
POLY_ARITY = {"poly2": 2, "poly3": 3, "poly13": 2, "poly124": 3, "poly4": 4}


def sweep_and_fault(data, check, table):
    """``check(table)`` verifies every entry of the production ``table``,
    and a copy with one entry moved fails at that entry."""
    sites = [(n, k) for n, k, _ in table.entries()]
    report = check(table)
    assert report.verified
    assert report.checked == len(sites)
    n, k = data.draw(st.sampled_from(sites))
    bad = table.with_entry(n, k, table[n, k] + data.draw(NONZERO))
    report = check(bad)
    assert report.status == "counterexample"
    assert report.first_failure[:2] == ((n, k), bad[n, k])
    assert report.checked == sites.index((n, k)) + 1


@pytest.mark.parametrize("coeffs", COEFFS.values(), ids=list(COEFFS))
class TestPaperTheorems:
    """The paper's sum, product, Riordan-shift, Riordan-formula and
    closed-form theorems against the production triangles, on integer and
    rational series."""

    @given(data=st.data(), order=st.integers(min_value=1, max_value=8))
    def test_sum_identity(self, coeffs, data, order):
        f, g = (
            data.draw(series_strategy(order, order, zero_constant=True, coeffs=coeffs))
            for _ in range(2)
        )
        tf, tg = composita_from_series(f), composita_from_series(g)
        total = composita_from_series(f + g)
        sweep_and_fault(data, lambda t: check_sum_identity(tf, tg, t), total)

    @given(data=st.data(), order=st.integers(min_value=1, max_value=8))
    def test_product_identity(self, coeffs, data, order):
        # B to order N - 1 is enough: f(0) = 0 meets b(N) only
        f = data.draw(series_strategy(order, order, zero_constant=True, coeffs=coeffs))
        b = data.draw(series_strategy(order - 1, order - 1, coeffs=coeffs))
        tf = composita_from_series(f)
        product = composita_from_series(f * b.extended(order))
        sweep_and_fault(data, lambda t: check_product_identity(tf, b, t), product)

    @given(data=st.data(), order=st.integers(min_value=1, max_value=8))
    def test_riordan_identity(self, coeffs, data, order):
        f = data.draw(series_strategy(order, order, coeffs=coeffs))
        shifted = composita_from_series(f.times_x())
        rio = riordan_build(f, f.times_x().truncate(order))
        sweep_and_fault(data, lambda t: check_riordan_identity(t, shifted), rio)

    @given(data=st.data(), order=st.integers(min_value=1, max_value=8), packed=st.booleans())
    def test_riordan_formula(self, coeffs, data, order, packed):
        # packed=True sends an integer G and F to packed rows
        g = data.draw(series_strategy(order, order, coeffs=coeffs))
        f = data.draw(series_strategy(order, order, zero_constant=True, coeffs=coeffs))
        with route(packed):
            rio = riordan_build(g, f)
        tf = composita_from_series(f)
        sweep_and_fault(data, lambda t: check_riordan_formula(t, g, tf), rio)

    @given(data=st.data(), order=st.integers(min_value=1, max_value=8))
    def test_closed_form(self, coeffs, data, order):
        name, arity = data.draw(st.sampled_from(sorted(POLY_ARITY.items())))
        spec = make_spec(name, data.draw(st.lists(coeffs, min_size=arity, max_size=arity)))
        table = composita_from_series(catalog_series(spec, order), order)
        sweep_and_fault(data, lambda t: check_closed_form(spec, t), table)


def test_product_orders_must_match():
    with pytest.raises(OrderMismatch):
        check_product_identity(
            table_for("geometric", 6), PowerSeries.one(6), table_for("geometric", 5)
        )


class TestChecked:
    """``checked`` counts the entries compared: all of them in a verified
    sweep, and up to and including the first failure otherwise."""

    def test_associativity_compares_the_whole_triangle(self):
        tables = [table_for(n, 6) for n in ("geometric", "sin", "x_exp")]
        assert check_associativity(*tables).checked == 6 * 7 // 2

    @pytest.mark.parametrize("order", [1, 2, 9])
    def test_derivative_compares_n_choose_2(self, order):
        f = catalog_series(make_spec("fib"), order)
        report = check_derivative_identity(f, composita_from_series(f, order))
        assert report.verified
        assert report.checked == order * (order - 1) // 2

    def test_derivative_counts_to_the_failure(self):
        f = catalog_series(make_spec("geometric"), 8)
        tf = composita_from_series(f, 8)
        report = check_derivative_identity(f, tf.with_entry(5, 2, tf[5, 2] + 1))
        assert report.first_failure[0] == (5, 2)
        assert report.checked == 1 + 2 + 3 + 1

    def test_inverse_compares_both_products(self):
        f = catalog_series(make_spec("x_exp"), 7)
        tf = composita_from_series(f, 7)
        tinv = composita_from_series(inverse_series(f, tf), 7)
        assert check_inverse_identity(tf, tinv).checked == 2 * (7 * 8 // 2)

    def test_lambert(self):
        assert check_lambert_identity(10).checked == 10 * 11 // 2
        assert check_lambert_identity(10, fault=(3, 2, Fraction(1))).checked == 1 + 2 + 2

    @pytest.mark.parametrize("max_n, max_r, count", [(6, 6, 21), (6, 2, 11), (4, 1, 4)])
    def test_funceq_sums_min_n_max_r(self, max_n, max_r, count):
        g = xg_table([Fraction(1), Fraction(1, 3)], 2 * max_n + max_r)
        report = check_funceq_identity(g, 1, max_n, max_r)
        assert report.verified
        assert report.checked == count

    def test_reciprocal_compares_every_entry(self):
        b = catalog_series(make_spec("sin_over_x"), 11)
        report = check_reciprocal_identity(b, reciprocal_composita(b, 12))
        assert report.checked == 12 * 13 // 2
        report = check_reciprocal_identity(
            b, reciprocal_composita(b, 12), fault=(4, 2, Fraction(1))
        )
        assert report.checked == 1 + 2 + 3 + 2
