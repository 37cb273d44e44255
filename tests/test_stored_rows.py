"""Tables store canonical integer rows, equal to an independent route's.

A ``CompositaTable`` keeps row n as ``(nums, den)``: one positive
denominator, ``gcd(den, *nums) == 1``, so an all-zero row has ``den == 1``.
Equality and hash compare those rows, so a producer that stored a row
without its gcd sweep would make equal tables compare unequal.  Each
producer is held, for ``==`` and ``hash``, to the table that the public
constructor makes of ``Fraction`` rows from a route without the row
kernel: ``composita_from_powers`` or plain ``PowerSeries`` arithmetic.

The CLI's production routes read no ``rows`` (each read builds every entry
as a ``Fraction``): the jobs of the benchmark workloads are run through
``cli.main`` with a counter on the property.
"""
from __future__ import annotations

import importlib.util
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from compositae import (
    CompositaTable,
    PowerSeries,
    composita_compose,
    composita_from_powers,
    composita_from_series,
    reciprocal_composita,
    riordan_build,
    solve_functional_equation,
)
from compositae import cli
from helpers import compose_plain

INTEGERS = st.integers(min_value=-3, max_value=3).map(Fraction)
RATIONALS = st.builds(
    Fraction, st.integers(min_value=-5, max_value=5), st.sampled_from([1, 2, 3, 5, 7])
)


@st.composite
def series(draw, order, vanishing=False, unit=False):
    """A series of ``order`` over one family: integers or rationals."""
    values = draw(st.lists(draw(st.sampled_from([INTEGERS, RATIONALS])),
                           min_size=order + 1, max_size=order + 1))
    if vanishing:
        values[0] = Fraction(0)
    if unit and values[0] == 0:
        values[0] = Fraction(1)
    return PowerSeries(tuple(values))


ORDERS = st.integers(min_value=1, max_value=12)


def assert_stored_canonically(table: CompositaTable, reference: CompositaTable) -> None:
    for nums, den in table.int_rows:
        assert type(nums) is tuple and den > 0
        assert gcd(den, *nums) == 1
        assert any(nums) or den == 1
    assert table == reference
    assert hash(table) == hash(reference)


def _solve_plain(g: PowerSeries, m: int) -> PowerSeries:
    """A = G(x A^m) by fixed-point iteration, one coefficient per step."""
    a = PowerSeries.of([g.coeffs[0]], order=g.order)
    for _ in range(g.order):
        power = a**m if m >= 0 else (PowerSeries.one(g.order) / a) ** -m
        a = compose_plain(g, power.times_x().truncate(g.order))
    return a


def test_a_row_stored_without_its_gcd_sweep_fails():
    one = CompositaTable([[1]])
    with pytest.raises(AssertionError):
        assert_stored_canonically(CompositaTable._of((((2,), 2),), 1), one)
    zero = CompositaTable([[0]])
    with pytest.raises(AssertionError):
        assert_stored_canonically(CompositaTable._of((((0,), 5),), 1), zero)
    assert_stored_canonically(CompositaTable._of((((1,), 1),), 1), one)


@given(data=st.data(), order=ORDERS)
def test_recurrence_triangle(data, order):
    f = data.draw(series(order, vanishing=True))
    assert_stored_canonically(composita_from_series(f), composita_from_powers(f))


@given(data=st.data(), order=ORDERS)
def test_composed_triangle(data, order):
    f = data.draw(series(order, vanishing=True))
    r = data.draw(series(order, vanishing=True))
    table = composita_compose(composita_from_series(f), composita_from_series(r))
    assert_stored_canonically(table, composita_from_powers(compose_plain(r, f)))


@given(data=st.data(), order=ORDERS)
def test_riordan_array(data, order):
    g = data.draw(series(order))
    f = data.draw(series(order, vanishing=True))
    columns = [(g * f**k).coeffs for k in range(order + 1)]
    rows = [[columns[k][n] for k in range(n + 1)] for n in range(order + 1)]
    table = riordan_build(g, f)
    assert_stored_canonically(table, CompositaTable(rows, base=0))


@given(data=st.data(), order=ORDERS)
def test_reciprocal_triangle(data, order):
    b = data.draw(series(order - 1, unit=True))
    a = PowerSeries.one(order - 1) / b
    assert_stored_canonically(
        reciprocal_composita(b, order), composita_from_powers(a.times_x(), order)
    )


@given(data=st.data(), order=st.integers(min_value=0, max_value=11), m=st.integers(-3, 3))
def test_functional_equation_solution(data, order, m):
    g = data.draw(series(order, unit=True))
    table = solve_functional_equation(g, m, order).a_table
    a = _solve_plain(g, m)
    assert_stored_canonically(table, composita_from_powers(a.times_x(), order + 1))


def _make_jobs():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.make_jobs


@pytest.mark.parametrize("workload", ["triangles_int", "triangles_rat", "transforms"])
def test_production_routes_read_no_fraction_rows(workload, monkeypatch, capsys):
    reads = []
    fraction_rows = CompositaTable.rows.fget

    def counted(table):
        reads.append(table)
        return fraction_rows(table)

    monkeypatch.setattr(CompositaTable, "rows", property(counted))
    for argv in _make_jobs()(workload, 1):
        assert cli.main(argv) == 0, argv
    capsys.readouterr()
    assert reads == []
    assert CompositaTable([[1]]).rows == ((1,),) and len(reads) == 1  # the counter is live
