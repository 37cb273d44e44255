from __future__ import annotations

import importlib.util
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

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
    raw_spec,
    registry_names,
)
from compositae.combinatorics import stirling_first_unsigned
from compositae.theorems import closed_form_formula

TRIG_NAMES = {"sin", "x_cos", "tan", "arctan", "sinh", "x_cosh"}


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
            ("poly124", (1, 2), "poly124 takes 3 parameters, got 2"),
            ("nope", (), "no catalog entry named 'nope'"),
            ("sin", (1,), "sin takes no parameters"),
        ],
    )
    def test_make_spec_messages(self, name, params, message):
        with pytest.raises(UnknownFunction) as info:
            make_spec(name, params)
        assert str(info.value) == message

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


class TestClosedForms:
    @pytest.mark.parametrize(
        "spec",
        [s for s in default_instances() if s.closed_form is not None],
        ids=lambda s: s.label(),
    )
    def test_matches_recurrence(self, spec):
        order = 8 if spec.name in TRIG_NAMES else 10
        report = check_closed_form(spec, table_of(spec, order))
        assert report.verified, report.first_failure
        assert report.checked == order * (order + 1) // 2

    def test_verify_needs_a_closed_form(self):
        table = table_of(raw_spec([0, 2, 5]), 6)
        with pytest.raises(NoClosedForm):
            check_closed_form(make_spec("sin_over_x"), table)
        with pytest.raises(NoClosedForm):
            check_closed_form(raw_spec([0, 2, 5]), table)

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

    @pytest.mark.parametrize("spec", default_instances(), ids=lambda s: s.label())
    def test_catalog_agrees_with_theorems(self, spec):
        formula = closed_form_formula(spec.name, spec.parameters)
        assert (spec.closed_form is None) == (formula is None)
        if formula is not None:
            for n in range(1, 9):
                for k in range(1, n + 1):
                    assert spec.closed_form(n, k) == formula(n, k), (n, k)

    def test_closed_form_rejects_out_of_band(self):
        with pytest.raises(ValueError):
            catalog_closed_form(make_spec("geometric"), 3, 4)

    def test_no_closed_form_for_sin_over_x(self):
        with pytest.raises(NoClosedForm):
            catalog_closed_form(make_spec("sin_over_x"), 3, 1)

    def test_raw_spec_has_no_closed_form(self):
        with pytest.raises(NoClosedForm):
            catalog_closed_form(raw_spec([0, 1, 1]), 2, 1)


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

    def test_catalog_series_matches_composita_route(self):
        for spec in default_instances():
            if spec.closed_form is None:
                continue
            order = 7
            series = catalog_series(spec, order)
            table = composita_from_series(series, order)
            for n, k, value in table.entries():
                assert catalog_closed_form(spec, n, k) == value, (spec.label(), n, k)


def _load_script():
    path = Path(__file__).resolve().parents[1] / "scripts" / "verify_catalog.py"
    spec = importlib.util.spec_from_file_location("verify_catalog", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestVerifyCatalogScript:
    def test_every_entry_verifies(self, capsys):
        script = _load_script()
        assert script.main(["--poly-order", "6", "--trig-order", "5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        labels = [s.label() for s in default_instances()]
        assert [line.split()[0] for line in lines[:-1]] == labels
        assert lines[labels.index("sin_over_x")].endswith("skipped (no closed form)")
        assert lines[-1] == "0 mismatching entries"

    def test_wrong_closed_form_exits_1(self, capsys, monkeypatch):
        script = _load_script()
        geometric = make_spec("geometric")

        def wrong(n, k):
            return geometric.closed_form(n, k) + ((n, k) == (4, 2))

        spec = FunctionSpec("geometric", (), geometric.series_generator, wrong)
        monkeypatch.setattr(script, "default_instances", lambda: [spec])
        assert script.main(["--poly-order", "6"]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "geometric        N=6   MISMATCH at (4,2): closed form 4, recurrence 3",
            "1 mismatching entry",
        ]
