"""Text renderings and their CSV inverses."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given

from compositae import PowerSeries, composita_from_series, riordan_build
from compositae.formats import (
    parse_triangle_csv,
    series_csv,
    series_records,
    series_text,
    triangle_csv,
    triangle_records,
    triangle_text,
)
from helpers import series_strategy

PASCAL = composita_from_series(PowerSeries.of([0] + [1] * 4, order=4), 4)


def test_triangle_text_rows():
    assert triangle_text(PASCAL) == "1\n1 1\n1 2 1\n1 3 3 1"


def test_triangle_text_renders_fractions():
    t = composita_from_series(
        PowerSeries.of([0, 1, Fraction(-1, 2)], order=3), 3
    )
    assert triangle_text(t).splitlines()[1] == "-1/2 1"


def test_triangle_csv_headers_and_indices():
    lines = triangle_csv(PASCAL).splitlines()
    assert lines[0] == "n,k,value"
    assert lines[1] == "1,1,1"
    assert lines[-1] == "4,4,1"


def test_triangle_records_are_json_lines():
    records = [json.loads(line) for line in triangle_records(PASCAL).splitlines()]
    assert records[0] == {"n": 1, "k": 1, "value": "1"}
    assert len(records) == 10


def test_series_text_is_comma_joined():
    assert series_text([Fraction(1), Fraction(-1, 2), Fraction(3)]) == "1,-1/2,3"


def test_series_csv_start_offset():
    out = series_csv([Fraction(5), Fraction(7)], start=1)
    assert out == "n,value\n1,5\n2,7"


def test_series_records_start_offset():
    lines = series_records([Fraction(5)], start=3).splitlines()
    assert json.loads(lines[0]) == {"n": 3, "value": "5"}


def test_composita_csv_round_trip():
    parsed = parse_triangle_csv(triangle_csv(PASCAL))
    assert parsed == PASCAL
    assert parsed.base == 1


def test_riordan_csv_round_trip():
    g = PowerSeries.of([1] * 5, order=4)
    rio = riordan_build(g, PASCAL)
    parsed = parse_triangle_csv(triangle_csv(rio))
    assert parsed == rio
    assert parsed.base == 0


def test_parse_rejects_empty_text():
    with pytest.raises(ValueError):
        parse_triangle_csv("n,k,value\n")
    with pytest.raises(ValueError):
        parse_triangle_csv("")


def test_parse_rejects_a_missing_entry():
    with pytest.raises(ValueError, match=r"entry \(2, 1\) is missing"):
        parse_triangle_csv("n,k,value\n1,1,1\n2,2,1")
    with pytest.raises(ValueError, match=r"entry \(2, 2\) is missing"):
        parse_triangle_csv("n,k,value\n1,1,1\n2,1,1\n3,1,1\n3,2,2\n3,3,1")


def test_parse_rejects_an_entry_outside_the_triangle():
    with pytest.raises(ValueError, match=r"entry \(1, 2\) lies outside the triangle"):
        parse_triangle_csv("n,k,value\n1,1,1\n1,2,5")
    with pytest.raises(ValueError, match=r"entry \(1, 0\) lies outside the triangle"):
        parse_triangle_csv("n,k,value\n1,0,7\n1,1,1")


def test_parse_rejects_a_repeated_entry():
    with pytest.raises(ValueError, match=r"entry \(1, 1\) appears twice"):
        parse_triangle_csv("n,k,value\n1,1,1\n1,1,1")


@pytest.mark.parametrize("text", ["n,k,value\n2,1,1", "n,k,value\n-1,-1,1\n0,-1,1\n0,0,1"])
def test_parse_rejects_a_first_row_other_than_0_or_1(text):
    with pytest.raises(ValueError, match="first row must be n = 0 or n = 1"):
        parse_triangle_csv(text)


@given(f=series_strategy(min_order=3, max_order=7, zero_constant=True))
def test_round_trip_any_triangle(f):
    table = composita_from_series(f, f.order)
    assert parse_triangle_csv(triangle_csv(table)) == table


@given(
    g=series_strategy(min_order=3, max_order=6),
    f=series_strategy(min_order=3, max_order=6, zero_constant=True),
)
def test_round_trip_any_riordan_array(g, f):
    order = min(g.order, f.order)
    rio = riordan_build(g, composita_from_series(f, order))
    assert parse_triangle_csv(triangle_csv(rio)) == rio


@given(f=series_strategy(min_order=3, max_order=6, zero_constant=True))
def test_renderings_are_deterministic(f):
    table = composita_from_series(f, f.order)
    for render in (triangle_text, triangle_csv, triangle_records):
        assert render(table) == render(table)
