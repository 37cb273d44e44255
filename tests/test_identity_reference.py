"""Differential tests: the integer identity sweeps against the per-term
``Fraction`` loops kept in ``tests/helpers.py`` as their reference.

Tables come from random integer and rational series, and one entry is
sometimes perturbed by a nonzero delta.  The two sides must return equal
reports: the same status, the same first failure (parameters, lhs and
rhs) and the same count of entries compared.
"""
from __future__ import annotations

from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from compositae import (
    PowerSeries,
    check_derivative_identity,
    check_funceq_identity,
    check_lambert_identity,
    check_reciprocal_identity,
    composita_from_series,
    reciprocal_composita,
)

from helpers import (
    reference_derivative,
    reference_funceq,
    reference_lambert,
    reference_reciprocal,
)

INTEGERS = st.integers(min_value=-4, max_value=4).map(Fraction)
RATIONALS = st.builds(
    Fraction,
    st.integers(min_value=-5, max_value=5),
    st.sampled_from([1, 2, 3, 5, 7, 11, 13]),
)
COEFFS = st.sampled_from([INTEGERS, RATIONALS])
NONZERO = st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(bool)


@st.composite
def series(draw, order: int, unit: bool = False) -> PowerSeries:
    """A series to ``order`` with up to 6 drawn coefficients, then zeros;
    ``unit`` makes the constant term nonzero."""
    family = draw(COEFFS)
    values = draw(st.lists(family, min_size=1, max_size=min(order + 1, 6)))
    if unit and not values[0]:
        values[0] = draw(family.filter(bool))
    return PowerSeries.of(values, order=order)


def entries(order: int) -> list[tuple[int, int]]:
    return [(n, k) for n in range(1, order + 1) for k in range(1, n + 1)]


def funceq_entries(m: int, max_n: int, max_r: int) -> list[tuple[int, int]]:
    """The entries of g that the funceq sweep reads."""
    sites = set()
    for n in range(1, max_n + 1):
        for r in range(1, min(n, max_r) + 1):
            sites.add(((m + 1) * n + r, m * n + r))
            for k in range(1, n + 1):
                sites.update({((m + 1) * n - k, m * n), (r + k, r)})
    return sorted(sites)


@st.composite
def perturbed(draw, table, sites: list[tuple[int, int]]):
    """``table``, or a copy with the entry at one of ``sites`` moved by a
    nonzero delta."""
    if not draw(st.booleans()):
        return table
    n, k = draw(st.sampled_from(sites))
    return table.with_entry(n, k, table[n, k] + draw(NONZERO))


@given(st.data(), st.integers(min_value=1, max_value=12))
def test_derivative_matches_reference(data, order):
    f = data.draw(series(order))
    f = PowerSeries((Fraction(0),) + f.coeffs[1:])
    tf = data.draw(perturbed(composita_from_series(f), entries(order)))
    assert check_derivative_identity(f, tf) == reference_derivative(f, tf)


@given(
    st.data(),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
)
def test_funceq_matches_reference(data, m, max_n, max_r):
    needed = (m + 1) * max_n + max_r
    g = data.draw(series(needed - 1))
    sites = funceq_entries(m, max_n, max_r)
    table = data.draw(perturbed(composita_from_series(g.times_x()), sites))
    assert check_funceq_identity(table, m, max_n, max_r) == reference_funceq(
        table, m, max_n, max_r
    )


@given(st.data(), st.integers(min_value=1, max_value=9))
def test_reciprocal_matches_reference(data, order):
    b = data.draw(series(order - 1, unit=True))
    table = data.draw(perturbed(reciprocal_composita(b, order), entries(order)))
    fault = None
    if data.draw(st.booleans()):
        n = data.draw(st.integers(min_value=1, max_value=order))
        fault = (n, data.draw(st.integers(min_value=1, max_value=n)), data.draw(NONZERO))
    assert check_reciprocal_identity(b, table, fault) == reference_reciprocal(b, table, fault)


@given(st.data(), st.integers(min_value=1, max_value=9))
def test_lambert_matches_reference(data, max_n):
    fault = None
    if data.draw(st.booleans()):
        n = data.draw(st.integers(min_value=1, max_value=max_n))
        fault = (n, data.draw(st.integers(min_value=1, max_value=n)), data.draw(NONZERO))
    assert check_lambert_identity(max_n, fault) == reference_lambert(max_n, fault)
