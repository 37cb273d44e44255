from __future__ import annotations

import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compositae import (
    FunctionSpec,
    NoClosedForm,
    UnknownFunction,
    catalog_closed_form,
    catalog_series,
    check_closed_form,
    composita_from_series,
    default_instances,
    make_spec,
    parse_function_spec,
    registry_names,
)
from compositae._rows import to_row
from compositae.catalog import _FIXED
from compositae.combinatorics import stirling_first_unsigned
from helpers import bernoulli_list, fibonacci_list

TRIG_NAMES = {"sin", "x_cos", "tan", "arctan", "sinh", "x_cosh", "arcsin"}


def table_of(spec, order):
    return composita_from_series(catalog_series(spec, order), order)


class TestSpecParsing:
    def test_fixed_name(self):
        spec = parse_function_spec("geometric")
        assert spec.name == "geometric"
        assert spec.parameters == ()

    def test_parameterized_name(self):
        spec = parse_function_spec("poly2:1,1/2")
        assert spec.name == "poly2"
        assert spec.parameters == (1, Fraction(1, 2))

    def test_raw_coefficient_list(self):
        spec = parse_function_spec("0,1,1")
        assert spec.closed_form is None
        assert catalog_series(spec, 5).coeffs == (0, 1, 1, 0, 0, 0)

    @pytest.mark.parametrize("text", ["nope", "poly2", "poly2:1", "poly2:1,2,3", "sin:2", "0,1,x"])
    def test_rejects_malformed(self, text):
        with pytest.raises(UnknownFunction):
            parse_function_spec(text)

    @pytest.mark.parametrize("text", ["0,1e3,2E-1", "1e3", "poly2:1e5,1", "monomial:1E1"])
    def test_rejects_exponent_notation(self, text):
        with pytest.raises(UnknownFunction, match="exponent notation"):
            parse_function_spec(text)

    @pytest.mark.parametrize(
        "name, params, message",
        [
            ("monomial", (0,), "monomial exponent must be a positive integer"),
            ("monomial", ("1/2",), "monomial exponent must be a positive integer"),
            ("monomial", (1, 2), "monomial takes 1 parameters, got 2"),
            ("radical", (0,), "radical index must be a positive integer"),
            ("radical", ("1/2",), "radical index must be a positive integer"),
            ("radical", (-1,), "radical index must be a positive integer"),
            ("radical", (), "radical takes 1 parameters, got 0"),
            ("radical", (1, 2), "radical takes 1 parameters, got 2"),
            ("arcsin", (1,), "arcsin takes no parameters"),
            ("poly124", (1, 2), "poly124 takes 3 parameters, got 2"),
            ("nope", (), "no catalog entry named 'nope'"),
            ("sin", (1,), "sin takes no parameters"),
        ],
    )
    def test_make_spec_messages(self, name, params, message):
        with pytest.raises(UnknownFunction) as info:
            make_spec(name, params)
        assert str(info.value) == message

    # a hand-built spec is expanded from its name and parameters, which are
    # checked as make_spec checks them: the CLI reports UnknownFunction with
    # exit 1, where a KeyError would be an internal error (exit 4)
    @pytest.mark.parametrize(
        "name, params, message",
        [
            ("nosuch", (), "no catalog entry named 'nosuch'"),
            ("geometric", (1,), "geometric takes no parameters"),
            ("monomial", ("1/2",), "monomial exponent must be a positive integer"),
            ("radical", (0,), "radical index must be a positive integer"),
            ("poly2", (1,), "poly2 takes 2 parameters, got 1"),
        ],
    )
    def test_catalog_series_refuses_what_make_spec_refuses(self, name, params, message):
        with pytest.raises(UnknownFunction) as info:
            catalog_series(FunctionSpec(name, params), 5)
        assert str(info.value) == message

    def test_hand_built_specs_expand_as_parsed_ones(self):
        for text in ("geometric", "monomial:3", "radical:2", "poly13:1,-1/2", "0,1,2"):
            parsed = parse_function_spec(text)
            built = FunctionSpec(parsed.name, parsed.parameters)
            assert catalog_series(built, 7) == catalog_series(parsed, 7)

    @pytest.mark.parametrize("spec", default_instances(), ids=lambda s: s.label())
    def test_label_parses_back_to_the_spec(self, spec):
        again = parse_function_spec(spec.label())
        assert again == spec
        assert catalog_series(again, 9) == catalog_series(spec, 9)

    def test_label_shows_parameters(self):
        assert make_spec("poly2", [1, Fraction(-1, 2)]).label() == "poly2:1,-1/2"
        assert make_spec("sin").label() == "sin"

    def test_registry_lists_all(self):
        names = registry_names()
        for expected in [
            "monomial",
            "geometric",
            "x_exp",
            "log1p",
            "expm1",
            "poly2",
            "poly3",
            "poly13",
            "poly124",
            "poly4",
            "sin",
            "x_cos",
            "tan",
            "arctan",
            "sinh",
            "x_cosh",
            "sin_over_x",
            "fib",
            "arcsin",
            "radical",
        ]:
            assert expected in names


class TestSeriesGenerators:
    def test_geometric(self):
        assert catalog_series(make_spec("geometric"), 4).coeffs == (0, 1, 1, 1, 1)

    def test_tan_matches_sin_over_cos(self):
        tan = catalog_series(make_spec("tan"), 7)
        assert tan.coeffs[:6] == (0, 1, 0, Fraction(1, 3), 0, Fraction(2, 15))
        assert tan[7] == Fraction(17, 315)

    def test_arctan(self):
        arc = catalog_series(make_spec("arctan"), 7)
        assert arc.coeffs == (0, 1, 0, Fraction(-1, 3), 0, Fraction(1, 5), 0, Fraction(-1, 7))

    def test_fib_series_is_the_recurrence(self):
        f = catalog_series(make_spec("fib"), 8)
        assert f.coeffs == (0, 1, 1, 2, 3, 5, 8, 13, 21)

    def test_monomial(self):
        assert catalog_series(make_spec("monomial", [3]), 5).coeffs == (0, 0, 0, 1, 0, 0)
        assert catalog_series(make_spec("monomial", [5]), 5).coeffs == (0, 0, 0, 0, 0, 1)
        assert catalog_series(make_spec("monomial", [6]), 5).coeffs == (0,) * 6

    def test_large_monomial_costs_what_its_order_costs(self):
        # x^3000000 to order 3 is four zeros; no list of 3000001 coefficients
        tracemalloc.start()
        try:
            series = catalog_series(parse_function_spec("monomial:3000000"), 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert series.coeffs == (0, 0, 0, 0)
        assert peak < 1_000_000

    def test_radical(self):
        # 1 - sqrt(1 - x) = x/2 + x^2/8 + x^3/16 + 5x^4/128
        series = catalog_series(make_spec("radical", [2]), 4)
        assert series.coeffs == (0, Fraction(1, 2), Fraction(1, 8), Fraction(1, 16), Fraction(5, 128))
        assert catalog_series(make_spec("radical", [1]), 3).coeffs == (0, 1, 0, 0)

    def test_large_radical_costs_what_its_order_costs(self):
        # the binomial series of (1 - x)^(1/m) is built to the order only
        tracemalloc.start()
        try:
            series = catalog_series(parse_function_spec("radical:3000000"), 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert series[1] == Fraction(1, 3000000)
        assert peak < 1_000_000

    def test_arcsin(self):
        arc = catalog_series(make_spec("arcsin"), 9)
        assert arc.coeffs == (
            0, 1, 0, Fraction(1, 6), 0, Fraction(3, 40), 0, Fraction(5, 112), 0, Fraction(35, 1152)
        )


def _odd(term):
    return lambda n: term((n - 1) // 2) if n % 2 else 0


def _radical_coefficient(m):
    # -(-1)^n C(1/m, n), with C(1/m, n) = prod_{i<n} (1/m - i) / n!
    def coefficient(n):
        if n == 0:
            return 0
        return -(-1) ** n * math.prod(Fraction(1, m) - i for i in range(n)) / math.factorial(n)

    return coefficient


# every term-ratio entry and monomial:m against its coefficient formula in
# n: for sin_over_x, which has no triangle, this is the only second route
COEFFICIENT_FORMULAS = {
    "arcsin": _odd(lambda k: Fraction(math.comb(2 * k, k), 4**k * (2 * k + 1))),
    "sin_over_x": lambda n: 0 if n % 2 else Fraction((-1) ** (n // 2), math.factorial(n + 1)),
    "x_cos": _odd(lambda k: Fraction((-1) ** k, math.factorial(2 * k))),
    "arctan": _odd(lambda k: Fraction((-1) ** k, 2 * k + 1)),
    "geometric": lambda n: int(n > 0),
    "x_exp": lambda n: Fraction(1, math.factorial(n - 1)) if n else 0,
    "log1p": lambda n: Fraction((-1) ** (n + 1), n) if n else 0,
    "expm1": lambda n: Fraction(1, math.factorial(n)) if n else 0,
    "sin": _odd(lambda k: Fraction((-1) ** k, math.factorial(2 * k + 1))),
    "sinh": _odd(lambda k: Fraction(1, math.factorial(2 * k + 1))),
    "x_cosh": _odd(lambda k: Fraction(1, math.factorial(2 * k))),
    **{f"radical:{m}": _radical_coefficient(m) for m in (1, 2, 3, 5, 10**6)},
    **{f"monomial:{m}": (lambda n, m=m: int(n == m)) for m in (1, 2, 3, 5, 10**6)},
}


@pytest.mark.parametrize("designator", sorted(COEFFICIENT_FORMULAS))
def test_series_match_their_coefficient_formulas(designator):
    series = catalog_series(parse_function_spec(designator), 69)
    formula = COEFFICIENT_FORMULAS[designator]
    assert all(type(c) is Fraction for c in series.coeffs)
    for n, c in enumerate(series.coeffs):
        assert c == formula(n), (designator, n)


def _tan_coefficient(n):
    # tan x = sum over k >= 1 of (-1)^(k-1) 4^k (4^k - 1) B(2k) x^(2k-1) / (2k)!
    if n % 2 == 0:
        return 0
    k = (n + 1) // 2
    b = bernoulli_list(2 * k + 1)[2 * k]
    return (-1) ** (k - 1) * 4**k * (4**k - 1) * b / math.factorial(2 * k)


# every entry without parameters as a plain Fraction expansion
PLAIN_EXPANSIONS = {
    **{name: COEFFICIENT_FORMULAS[name] for name in _FIXED if name in COEFFICIENT_FORMULAS},
    "fib": lambda n: ([0] + fibonacci_list(n))[n],
    "tan": _tan_coefficient,
}


@pytest.mark.parametrize("name", sorted(_FIXED))
def test_fixed_entries_at_order_60_equal_plain_fraction_expansions(name):
    expected = [Fraction(PLAIN_EXPANSIONS[name](n)) for n in range(61)]
    series = catalog_series(make_spec(name), 60)
    assert series.coeffs == tuple(expected)
    assert series.int_row == to_row([v.as_integer_ratio() for v in expected])


class TestClosedForms:
    @pytest.mark.parametrize(
        "spec",
        [s for s in default_instances() if s.closed_form is not None],
        ids=lambda s: s.label(),
    )
    def test_matches_recurrence(self, spec):
        order = 30 if spec.name in TRIG_NAMES else 40
        report = check_closed_form(spec, table_of(spec, order))
        assert report.verified, report.first_failure
        assert report.checked == order * (order + 1) // 2

    def test_verify_needs_a_closed_form(self):
        table = table_of(parse_function_spec("0,2,5"), 6)
        with pytest.raises(NoClosedForm):
            check_closed_form(make_spec("sin_over_x"), table)
        with pytest.raises(NoClosedForm):
            check_closed_form(parse_function_spec("0,2,5"), table)

    def test_sin_parity(self):
        for spec_name in ["sin", "tan", "arctan", "sinh"]:
            spec = make_spec(spec_name)
            for n in range(1, 9):
                for k in range(1, n + 1):
                    if (n - k) % 2 == 1:
                        assert catalog_closed_form(spec, n, k) == 0, (spec_name, n, k)

    def test_x_cos_parity(self):
        for spec_name in ["x_cos", "x_cosh"]:
            spec = make_spec(spec_name)
            for n in range(2, 9):
                for k in range(1, n):
                    if (n - k) % 2 == 1:
                        assert catalog_closed_form(spec, n, k) == 0, (spec_name, n, k)

    def test_log1p_encodes_signed_stirling(self):
        spec = make_spec("log1p")
        for n in range(1, 9):
            for k in range(1, n + 1):
                value = catalog_closed_form(spec, n, k) * Fraction(
                    math.factorial(n), math.factorial(k)
                )
                expected = stirling_first_unsigned(n, k)
                assert abs(value) == expected
                assert value == (-1) ** (n - k) * expected

    def test_closed_form_rejects_out_of_band(self):
        with pytest.raises(ValueError):
            catalog_closed_form(make_spec("geometric"), 3, 4)

    def test_no_closed_form_for_sin_over_x(self):
        with pytest.raises(NoClosedForm):
            catalog_closed_form(make_spec("sin_over_x"), 3, 1)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_radical_matches_recurrence(self, m):
        spec = make_spec("radical", [m])
        report = check_closed_form(spec, table_of(spec, 30))
        assert report.verified, report.first_failure
        assert report.checked == 30 * 31 // 2

    @settings(max_examples=15, deadline=None)
    @given(m=st.integers(min_value=1, max_value=10**6), order=st.integers(min_value=1, max_value=30))
    def test_radical_of_any_index_matches_recurrence(self, m, order):
        spec = make_spec("radical", [m])
        assert check_closed_form(spec, table_of(spec, order)).verified

    @pytest.mark.parametrize("order", [1, 2, 7, 30, 60])
    def test_arcsin_matches_recurrence(self, order):
        spec = make_spec("arcsin")
        report = check_closed_form(spec, table_of(spec, order))
        assert report.verified, report.first_failure
        assert report.checked == order * (order + 1) // 2

    @pytest.mark.parametrize("text", ["arcsin", "radical:3"])
    def test_planted_fault_in_arcsin_and_radical_is_found(self, text):
        spec = parse_function_spec(text)
        table = table_of(spec, 12)
        report = check_closed_form(spec, table.with_entry(9, 5, table[9, 5] + 1))
        assert report.first_failure == ((9, 5), table[9, 5] + 1, table[9, 5])
        assert report.checked == 36 + 5

    def test_raw_spec_has_no_closed_form(self):
        with pytest.raises(NoClosedForm):
            catalog_closed_form(parse_function_spec("0,1,1"), 2, 1)


class TestVerification:
    def test_report_carries_first_mismatch(self):
        # The poly2:1,2 closed form against the triangle of poly2:1,3: the
        # first entry with a power of b, (2, 1), differs.
        truth = table_of(make_spec("poly2", [1, 3]), 6)
        report = check_closed_form(make_spec("poly2", [1, 2]), truth)
        assert report.status == "counterexample"
        assert report.first_failure == ((2, 1), Fraction(3), Fraction(2))
        assert report.checked == 2

    def test_planted_fault_is_found_at_its_site(self):
        spec = make_spec("x_exp")
        table = table_of(spec, 9)
        report = check_closed_form(spec, table.with_entry(7, 4, table[7, 4] + Fraction(1, 7)))
        assert report.first_failure[0] == (7, 4)
        assert report.checked == 21 + 4

    def test_fraction_parameters_verify(self):
        spec = make_spec("poly3", [Fraction(1, 2), -1, Fraction(3, 4)])
        assert check_closed_form(spec, table_of(spec, 9)).verified
