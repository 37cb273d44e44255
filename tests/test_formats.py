"""Text renderings and their CSV inverses."""

from __future__ import annotations

import hashlib
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
from compositae import cli
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
from helpers import (
    reference_triangle_csv,
    reference_triangle_records,
    reference_triangle_text,
    route,
    series_strategy,
    takes_packed_rows,
)

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
    rio = riordan_build(g, PowerSeries.of([0] + [1] * 4, order=4))
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
    rio = riordan_build(g, f.truncate(min(g.order, f.order)))
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


# Triangles are printed from the stored integer rows, with no Fraction:
# the text must be byte for byte str(Fraction) of each entry.  Rows mix
# zeros, negatives, integers and fractions (so integer-valued entries sit
# in rows whose denominator is not 1), or hold integers alone (den == 1).
_entry = st.one_of(
    st.just(Fraction(0)),
    st.integers(-(2**70), 2**70).map(Fraction),
    st.fractions(min_value=-50, max_value=50, max_denominator=60),
    st.builds(Fraction, st.integers(-(2**300), 2**300), st.integers(1, 2**300)),
)
_integer_entry = st.integers(-(2**70), 2**70).map(Fraction)


@st.composite
def _mixed_tables(draw) -> CompositaTable:
    size = draw(st.integers(1, 6))
    rows = [
        draw(st.lists(draw(st.sampled_from((_entry, _integer_entry))), min_size=n, max_size=n))
        for n in range(1, size + 1)
    ]
    return CompositaTable(rows, base=draw(st.sampled_from((0, 1))))


@given(table=_mixed_tables())
def test_triangle_renderings_equal_str_of_each_fraction(table):
    assert triangle_text(table) == reference_triangle_text(table)
    assert triangle_csv(table) == reference_triangle_csv(table)
    assert triangle_records(table) == reference_triangle_records(table)


def test_integer_valued_entries_of_a_fractional_row_print_bare():
    table = CompositaTable([[Fraction(-3, 2)], [0, "4/2"], ["-6/3", "1/6", 7]], base=0)
    assert table.int_rows[2] == ((-12, 1, 42), 6)
    assert triangle_text(table) == "-3/2\n0 2\n-2 1/6 7"


# sha256 of stdout at the commit before tables stored integer rows, when
# every renderer printed str(Fraction) of stored Fraction entries.
GOLDEN_STDOUT = {
    ("composita", "--fn", "0,-1/2,1/3", "--n", "9"): (
        "61d49d0f34c43f7c9e1212cc0b37afded3b6d61a9fdeeef71c1b498e250c0af2",
        "08596835956f7ba415e5eea66c69476078791234e4b9a5e0ce0f644ba1c24e97",
        "d953fc1e4db945c46a433b27830472c7ad9faf7cb6eba53446651c5dc6f390d9",
    ),
    ("riordan", "--g", "3/7,-2/13", "--fn", "log1p", "--n", "12"): (
        "fe8238c6d7a3b43a3ee072f383fae0521b5c270553fd62293ff828dc56ca91f7",
        "10de5d47d77497d621b95493677c783545f2896e9d07d8735115b4454b9bcd10",
        "b1ded107cd8b55e28d01716e5ed96e79976e14d5d22a59724bf68d2f90472e56",
    ),
    ("solve", "--g", "3/7,2/13,-3/17", "--m", "2", "--order", "10", "--table"): (
        "415855e6d4b1123c9d6adc59c81c02850f03b284e4698522b47b7c9eaa91b1fe",
        "3f41e5edde65b433cdf9f42e8bd170102a50c7a72ab968c046086ef7daf2788c",
        "c9b7101ba92d0d9dc29af8c048d38139a120d0931b8fc60a3d18aaffb8a302fb",
    ),
    ("compose", "--r", "x_exp", "--fn", "sinh", "--n", "20"): (
        "d611c7276efe29e90c4b4e93f3095d36f60f299b2196009887d91197da1930c2",
        "851689927d5645a35ed57cf11989953c77bb391ef58364e6399a65be984cc65b",
        "95a52ab0835c0a148f5af19395a0dc1b460eebf5774baf4f9a2f7d205b8ce91a",
    ),
    # integer inputs, recorded when every table was built by combine
    ("composita", "--fn", "0,2,-3,1,-2,3", "--n", "40"): (
        "6d33c9dc24706dc79833ce8a3911b98abbe401d813c4727038bbc04c4ae2c96c",
        "6cc333b8852e7149feb448e837a1ae2046c25f3897ca7100fea38a87e0018f52",
        "e4b41ba0424fd9ea4acf38525aec3319503d96d1d74c418fa3977c70e8106d0f",
    ),
    ("riordan", "--g", "1,2,-3,1", "--fn", "fib", "--n", "30"): (
        "d7b20bc28054fe93d2caebb83942c89ca1da63d1a92ed0b73a44742ca33a3ca1",
        "9d44f6441de4286863597df51a79f1e97f04410549897fdf210f2932078e0e20",
        "a7f0ac7bc086c2085a98071dd351e572f47bc60d67ed369a77edde9a4f1a696a",
    ),
    ("compose", "--r", "fib", "--fn", "0,-2,3,1,2", "--n", "30"): (
        "1a721f6429862177cd36ace8f37c0697bd6a5fa5e37d558652e0f5bcb1176fa6",
        "3610000d360f56a6cc784bb82e27e8180aa1558f207382e72eeae4b867beadda",
        "04339760cb7e6c8fbee8980bc8a12df23cc4d8dd7ea26828637b4978d61273cd",
    ),
}


@pytest.mark.parametrize(
    "argv, fmt, digest",
    [
        (argv, fmt, digest)
        for argv, digests in GOLDEN_STDOUT.items()
        for fmt, digest in zip(("triangle", "csv", "records"), digests)
    ],
)
def test_stdout_matches_its_golden_digest(argv, fmt, digest, capsys):
    assert cli.main([*argv, "--format", fmt]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv", list(GOLDEN_STDOUT)[-3:])
def test_integer_golden_digests_hold_on_packed_rows(argv, capsys):
    # these orders are too small to pick packed rows by themselves
    for fmt, digest in zip(("triangle", "csv", "records"), GOLDEN_STDOUT[argv]):
        codes = []
        with route(packed=True):
            assert takes_packed_rows(lambda: codes.append(cli.main([*argv, "--format", fmt])))
        assert codes == [0]
        out, err = capsys.readouterr()
        assert err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest
