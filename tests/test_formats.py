"""Text renderings and their CSV inverses."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from compositae import (
    CompositaTable,
    IdentityReport,
    PowerSeries,
    composita_from_series,
    riordan_build,
)
from compositae._verify import record_line
from compositae.cli import IDENTITY_NAMES
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


@pytest.mark.parametrize("value", ["1_0", "\u0663", "1e3"])
def test_parse_rejects_values_outside_the_coefficient_grammar(value):
    with pytest.raises(ValueError, match="not accepted"):
        parse_triangle_csv(f"n,k,value\n1,1,{value}")


@pytest.mark.parametrize(
    "line", ["1_0,1,1", "1,1_0,1", "\u0661,1,1", "1,\u0661,1", "\uff11,1,1"]
)
def test_parse_rejects_indices_outside_the_integer_grammar(line):
    with pytest.raises(ValueError, match="not accepted"):
        parse_triangle_csv(f"n,k,value\n{line}")


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


# Record lines are written without json; they must be exactly what
# json.dumps makes of the same dicts.  Values: zero, negatives, and
# numerators and denominators up to 500 bits.
_exact = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-(2**500), 2**500), st.integers(1, 2**500)),
)


@st.composite
def _tables(draw) -> CompositaTable:
    """A table of any entries, from (1, 1) like a composita triangle or
    from (0, 0) like a Riordan array."""
    size = draw(st.integers(1, 5))
    rows = [draw(st.lists(_exact, min_size=n, max_size=n)) for n in range(1, size + 1)]
    return CompositaTable(rows, base=draw(st.sampled_from((0, 1))))


@given(table=_tables())
def test_triangle_records_equal_json_dumps(table):
    assert triangle_records(table) == "\n".join(
        json.dumps({"n": n, "k": k, "value": str(v)}) for n, k, v in table.entries()
    )


@given(values=st.lists(_exact, min_size=1, max_size=8), start=st.integers(-3, 2**70))
def test_series_records_equal_json_dumps(values, start):
    assert series_records(values, start=start) == "\n".join(
        json.dumps({"n": n, "value": str(v)}) for n, v in enumerate(values, start=start)
    )


@given(
    name=st.sampled_from(IDENTITY_NAMES),
    bounds=st.lists(st.integers(1, 2**40), min_size=3, max_size=3),
    checked=st.integers(0, 2**40),
    failure=st.none() | st.tuples(
        st.lists(st.integers(-3, 2**40), min_size=2, max_size=3).map(tuple), _exact, _exact
    ),
)
def test_verify_record_line_equals_json_dumps(name, bounds, checked, failure):
    m, n, r = bounds
    for rng in (f"1 <= m <= n <= {n}", f"m={m}, 1 <= n <= {n}, 1 <= r <= min(n, {r})"):
        record = IdentityReport(name, rng, checked, failure).to_record()
        assert record_line(record) == json.dumps(record)
