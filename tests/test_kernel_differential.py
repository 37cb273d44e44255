"""Differential tests for the routes built on the integer row kernel.

Each routed function is compared for exact equality with an independent
route that never touches the kernel: the powers route and the oracle for
the triangle, plain list convolutions from ``tests/helpers.py``,
``PowerSeries`` arithmetic, and the paper's sum and product theorems as
checked in ``identities.py``.  The random series mix zeros, f(1) = 0,
negative values, coprime and shared denominators, and all-integer lists.

Integer inputs may take packed rows (``_packed``) instead of
``combine``; ``TestPackedRows`` runs both routes on the same integer
inputs, forcing each in turn, with entries up to 2^200 so that slots
wider than a machine word are exercised.
"""
from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from compositae import (
    PowerSeries,
    catalog_series,
    check_product_identity,
    check_riordan_formula,
    check_riordan_identity,
    check_sum_identity,
    compose_series,
    composita_compose,
    composita_from_powers,
    composita_from_series,
    composita_oracle,
    inverse_series,
    parse_function_spec,
    riordan_build,
)
from compositae._packed import LIMIT, Slots, product_rows
from compositae._rows import combine, dot, fractions_of, scalars, to_row

from helpers import compose_plain, convolve, power_coeffs, route, takes_packed_rows

# Coefficient families: every series draws all its coefficients from one.
INTEGERS = st.integers(min_value=-4, max_value=4).map(Fraction)
SHARED_DENOMINATOR = st.integers(min_value=-8, max_value=8).map(lambda p: Fraction(p, 6))
COPRIME_DENOMINATORS = st.builds(
    Fraction,
    st.integers(min_value=-5, max_value=5),
    st.sampled_from([1, 2, 3, 5, 7, 11, 13]),
)
FAMILIES = st.sampled_from([INTEGERS, SHARED_DENOMINATOR, COPRIME_DENOMINATORS])


@st.composite
def rational_series(draw, min_order=1, max_order=8, vanishing=True, unit_linear=False):
    """Random series; ``vanishing`` forces f(0) = 0 and sometimes f(1) = 0."""
    order = draw(st.integers(min_value=min_order, max_value=max_order))
    family = draw(FAMILIES)
    values = draw(st.lists(family, min_size=order + 1, max_size=order + 1))
    if vanishing:
        values[0] = Fraction(0)
        if draw(st.booleans()):
            values[1] = Fraction(0)
    if unit_linear and values[1] == 0:
        values[1] = draw(family.filter(bool))
    return PowerSeries(tuple(values))


def _plain_triangle(coeffs: list[Fraction], order: int) -> list[list[Fraction]]:
    """rows[n-1][k-1] = [x^n] (sum coeffs[i] x^i)^k, by list convolution."""
    columns = [power_coeffs(coeffs, k, order) for k in range(1, order + 1)]
    return [[columns[k - 1][n] for k in range(1, n + 1)] for n in range(1, order + 1)]


def _pairs(values: list[Fraction]) -> list[tuple[int, int]]:
    return [v.as_integer_ratio() for v in values]


class TestKernel:
    @given(values=st.lists(COPRIME_DENOMINATORS, min_size=1, max_size=6))
    def test_rows_are_canonical(self, values):
        nums, den = to_row(_pairs(values))
        assert fractions_of((nums, den)) == tuple(values)
        doubled = combine([(2, 1, (nums, den), 0), (-1, 1, (nums, den), 0)], len(values))
        assert doubled == (nums, den)
        zero = combine([(1, 1, (nums, den), 0), (-1, 1, (nums, den), 0)], len(values))
        assert zero == ((0,) * len(values), 1)

    @given(
        scalars=st.lists(COPRIME_DENOMINATORS, min_size=1, max_size=6),
        values=st.lists(
            st.tuples(
                st.integers(min_value=-8, max_value=8),
                st.sampled_from([-12, -7, -6, -2, -1, 1, 2, 4, 6, 11, 13]),
            ),
            min_size=1,
            max_size=6,
        ),
        scale=st.integers(min_value=1, max_value=6),
    )
    def test_dot_matches_fraction_sum(self, scalars, values, scale):
        # dot takes the scalars as one canonical row and the values as
        # integer pairs, reduced or not (the scale), with denominators of
        # either sign, and returns a pair with a positive denominator
        expected = sum((s * Fraction(n, d) for s, (n, d) in zip(scalars, values)), Fraction(0))
        row = to_row(_pairs(scalars))
        for pairs in (values, [(n * scale, d * scale) for n, d in values]):
            num, den = dot(row, pairs)
            assert den > 0 and Fraction(num, den) == expected
        # an all-zero row leaves no term: zero over the row's denominator
        assert dot(to_row([(0, 1)] * len(values)), values) == (0, 1)

    @given(
        values=st.lists(COPRIME_DENOMINATORS, min_size=1, max_size=6),
        scale=st.integers(min_value=1, max_value=12),
    )
    def test_unreduced_pairs_give_the_canonical_row(self, values, scale):
        # to_row reduces the row when the pairs are not reduced, and moves
        # the sign of a negative denominator to the numerator
        unreduced = [(n * scale, d * scale) for n, d in _pairs(values)]
        assert to_row(unreduced) == to_row(_pairs(values))
        negated = [(-n * scale, -d * scale) for n, d in _pairs(values)]
        assert to_row(negated) == to_row(_pairs(values))

    @given(values=st.lists(COPRIME_DENOMINATORS, min_size=1, max_size=6))
    def test_scalars_are_reduced_nonzero_entries(self, values):
        # one denominator for the row, one reduced pair for each entry
        expected = [(i, *v.as_integer_ratio()) for i, v in enumerate(values) if v]
        assert scalars(to_row(_pairs(values))) == expected
        assert scalars(to_row(_pairs(values)), 2) == [t for t in expected if t[0] < 2]

    def test_shifted_terms_are_cut_to_width(self):
        row = to_row([(1, 2), (1, 3), (1, 4)])
        nums, den = combine([(3, 1, row, 2), (1, 5, row, 4)], 4)
        assert fractions_of((nums, den)) == (0, 0, Fraction(3, 2), 1)


class TestTriangle:
    @given(f=rational_series(max_order=10))
    def test_recurrence_matches_powers(self, f):
        assert composita_from_series(f) == composita_from_powers(f)

    @given(f=rational_series(max_order=8))
    def test_recurrence_matches_oracle(self, f):
        table = composita_from_series(f)
        for n, k, value in table.entries():
            assert value == composita_oracle(f, n, k)


class TestRiordan:
    @given(
        g=rational_series(min_order=8, max_order=8, vanishing=False),
        f=rational_series(max_order=8),
    )
    def test_columns_are_g_times_powers(self, g, f):
        n_max = f.order
        rio = riordan_build(g, f)
        g_coeffs = list(g.coeffs)
        for k in range(n_max + 1):
            column = convolve(g_coeffs, power_coeffs(list(f.coeffs), k, n_max), n_max)
            for n in range(k, n_max + 1):
                assert rio[n, k] == column[n]


class TestCalculus:
    @given(
        f=rational_series(min_order=7, max_order=7),
        r=rational_series(min_order=7, max_order=7),
    )
    def test_compose_matches_convolution_triangle(self, f, r):
        n_max = 7
        outer = [Fraction(0)] * (n_max + 1)
        for k in range(1, n_max + 1):
            power = power_coeffs(list(f.coeffs), k, n_max)
            outer = [a + r.coeffs[k] * p for a, p in zip(outer, power)]
        table = composita_compose(composita_from_series(f), composita_from_series(r))
        assert [list(row) for row in table.rows] == _plain_triangle(outer, n_max)

    @given(
        r=rational_series(min_order=8, max_order=8, vanishing=False),
        f=rational_series(max_order=8),
    )
    def test_compose_series_matches_horner(self, r, f):
        assert compose_series(r, composita_from_series(f)) == compose_plain(r, f)

    @given(f=rational_series(min_order=2, max_order=8, unit_linear=True))
    def test_inverse_undoes_f(self, f):
        a = inverse_series(composita_from_series(f))
        assert compose_plain(f, a) == PowerSeries.of([0, 1], order=f.order)

    @given(
        f=rational_series(min_order=6, max_order=6),
        b=rational_series(min_order=6, max_order=6, vanishing=False),
    )
    def test_product_matches_powers(self, f, b):
        # the paper's product theorem, on integer powers of B, against the
        # recurrence triangle of F * B
        product = composita_from_series(f * b)
        assert check_product_identity(composita_from_series(f), b, product).verified

    @given(
        f=rational_series(min_order=6, max_order=6),
        g=rational_series(min_order=6, max_order=6),
    )
    def test_sum_matches_powers(self, f, g):
        # the paper's sum theorem, on plain Fractions, against the
        # recurrence triangle of F + G
        total = composita_from_series(f + g)
        tf, tg = composita_from_series(f), composita_from_series(g)
        assert check_sum_identity(tf, tg, total).verified


# -- packed rows ---------------------------------------------------------------


def both_routes(build):
    """``build()`` on packed rows and on ``combine``, checked equal."""
    with route(packed=True):
        packed = build()
    with route(packed=False):
        combined = build()
    assert packed == combined
    return packed


@st.composite
def integer_series(draw, min_order=1, max_order=40, vanishing=True):
    """Integer series with a drawn number of nonzero places and magnitudes
    spread on a log scale up to about 2^2, 2^8, 2^64 or 2^200;
    ``vanishing`` forces f(0) = 0 and sometimes f(1) = 0."""
    order = draw(st.integers(min_value=min_order, max_value=max_order))
    bits = draw(st.sampled_from([0, 6, 62, 198]))
    digit = st.integers(min_value=-3, max_value=3)
    places = draw(st.permutations(range(order + 1)))
    values = [0] * (order + 1)
    for i in places[: draw(st.integers(min_value=0, max_value=order + 1))]:
        values[i] = draw(digit) * 2 ** draw(st.integers(min_value=0, max_value=bits)) + draw(digit)
    if vanishing:
        values[0] = 0
        if draw(st.booleans()):
            values[1] = 0
    return PowerSeries.of(values)


class TestSlots:
    @pytest.mark.parametrize("size", [8, 9, 16, 26, 64])
    def test_slot_boundary_values_round_trip(self, size):
        top = 2 ** (8 * size - 1)  # a slot holds -top..top - 1
        slots = Slots(top - 1)
        assert slots.size == size
        values = [top - 1, -(top - 1), -top, 0, 1, -1]
        packed = slots.pack(values)
        assert packed == sum(v << (8 * size * j) for j, v in enumerate(values))
        assert slots.unpack(packed, len(values)) == tuple(values)

    @pytest.mark.parametrize("bits", range(56, 209, 8))
    def test_a_slot_holds_its_bound(self, bits):
        # 2^(bits - 1) - 1 and 2^(bits - 1) straddle a byte: the second
        # needs one more byte, for its sign bit
        for bound in (2 ** (bits - 1) - 1, 2 ** (bits - 1)):
            slots = Slots(bound)
            assert 2 ** (8 * slots.size - 1) > bound
            values = [bound, -bound, 0, bound, -bound]
            assert slots.unpack(slots.pack(values), len(values)) == tuple(values)

    @given(
        bits=st.sampled_from([8, 63, 64, 65, 200]),
        data=st.data(),
    )
    def test_sums_of_packed_rows_are_sums_of_rows(self, bits, data):
        entry = st.integers(min_value=-(2**bits), max_value=2**bits)
        a = data.draw(st.lists(entry, min_size=1, max_size=12))
        b = data.draw(st.lists(entry, min_size=len(a), max_size=len(a)))
        s, t = data.draw(entry), data.draw(entry)
        slots = Slots(max(abs(s) + abs(t), 1) * 2**bits)
        expected = tuple(s * x + t * y for x, y in zip(a, b))
        assert slots.unpack(s * slots.pack(a) + t * slots.pack(b), len(a)) == expected


class TestPackedRows:
    @given(f=integer_series(max_order=40))
    def test_recurrence_routes_agree(self, f):
        table = both_routes(lambda: composita_from_series(f))
        assert composita_from_series(f) == table  # the route it selects

    @given(f=integer_series(max_order=14))
    def test_packed_recurrence_matches_powers(self, f):
        with route(packed=True):
            assert composita_from_series(f) == composita_from_powers(f)

    @given(f=integer_series(max_order=8))
    def test_packed_recurrence_matches_oracle(self, f):
        with route(packed=True):
            table = composita_from_series(f)
        for n, k, value in table.entries():
            assert value == composita_oracle(f, n, k)

    @given(g=integer_series(min_order=30, max_order=30, vanishing=False), data=st.data())
    def test_riordan_routes_agree(self, g, data):
        f = data.draw(integer_series(max_order=30))
        rio = both_routes(lambda: riordan_build(g, f))
        assert riordan_build(g, f) == rio

    @given(g=integer_series(min_order=6, max_order=6, vanishing=False), f=integer_series(max_order=6))
    def test_packed_riordan_columns_are_g_times_powers(self, g, f):
        n_max = f.order
        with route(packed=True):
            rio = riordan_build(g, f)
        g_coeffs = list(g.coeffs)
        for k in range(n_max + 1):
            column = convolve(g_coeffs, power_coeffs(list(f.coeffs), k, n_max), n_max)
            for n in range(k, n_max + 1):
                assert rio[n, k] == column[n]

    @given(f=integer_series(min_order=25, max_order=25), r=integer_series(min_order=25, max_order=25))
    def test_compose_routes_agree(self, f, r):
        tf, tr = composita_from_series(f), composita_from_series(r)
        table = both_routes(lambda: composita_compose(tf, tr))
        assert composita_compose(tf, tr) == table

    @given(f=integer_series(min_order=6, max_order=6), r=integer_series(min_order=6, max_order=6))
    def test_packed_compose_matches_convolution_triangle(self, f, r):
        n_max = 6
        outer = [Fraction(0)] * (n_max + 1)
        for k in range(1, n_max + 1):
            power = power_coeffs(list(f.coeffs), k, n_max)
            outer = [a + r.coeffs[k] * p for a, p in zip(outer, power)]
        with route(packed=True):
            table = composita_compose(composita_from_series(f), composita_from_series(r))
        assert [list(row) for row in table.rows] == _plain_triangle(outer, n_max)

    @pytest.mark.parametrize("size", [8, 9, 16])
    def test_an_entry_at_the_bound_fits(self, size):
        # 2^(8 * size - 1) needs one byte more than 2^(8 * size - 1) - 1,
        # and each table below has an entry equal to its route's bound
        v = 2 ** (8 * size - 1)
        tv = both_routes(lambda: composita_from_series(PowerSeries.of([0, v])))
        assert tv.int_rows == (((v,), 1),)
        rio = both_routes(lambda: riordan_build(PowerSeries.of([1, 0]), PowerSeries.of([0, v])))
        assert rio.int_rows == (((1,), 1), ((0, v), 1))
        tx = composita_from_series(PowerSeries.of([0, 1]))
        assert both_routes(lambda: composita_compose(tx, tv)) == tv

    def test_product_rows_are_as_wide_as_their_left_rows(self):
        # row n is sum_k left[n][k] * right[k], cut to len(left[n]) entries
        right = (((1,), 1), ((0, 5), 1), ((0, 7, 4), 1))
        left = (((1, 3), 1), ((2,), 1), ((0, 1, -1), 1))
        expected = (((1, 15), 1), ((2,), 1), ((0, -2, -4), 1))
        assert product_rows(left, right) == expected

    def test_a_large_g_term_bounds_only_its_own_row(self):
        # G is 1 below x^N and about 2^400 at x^N, over geometric at N = 120.
        # sum |g(i)| times the largest entry of F's triangle passes LIMIT,
        # but g(N) enters only row N, so the recurrence's bound
        # u(N) = |g(N)| + sum_i u(N - i) = g(N) + 2^N - 1 stays below
        # 2^401 and the array takes packed rows
        n_max, big = 120, 3**252
        g = PowerSeries.of([1] * n_max + [big])
        f = PowerSeries.of([0] + [1] * n_max)
        tf = composita_from_series(f)
        peak = max(max(nums) for nums, _ in tf.int_rows)
        assert (n_max + big) * peak >= LIMIT > big + 2**n_max
        assert takes_packed_rows(lambda: riordan_build(g, f))
        rio = riordan_build(g, f)
        assert rio[n_max, 0] == big
        with route(packed=False):
            assert riordan_build(g, f) == rio
        assert check_riordan_formula(rio, g, tf).verified
        # x*G is geometric up to x^N, so this array is (G, x*G)
        assert check_riordan_identity(rio, composita_from_series(g.times_x())).verified

    def test_a_rational_input_stays_on_combine(self):
        f = PowerSeries.of([0, Fraction(1, 2), 1, 1])
        with route(packed=True):
            assert composita_from_series(f) == composita_from_powers(f)

    @pytest.mark.parametrize(
        "coeffs, order, packed",
        [
            ([0] + [1] * 80, 80, True),  # geometric: 11-byte slots, 80 terms
            ([0, 2, -3, 1, -2, 3], 100, True),  # 5 terms, 21-byte slots
            ([0] + [1] * 30, 30, False),  # too little work to repay importing _packed
            ([0] + [10**6] * 5, 100, False),  # slots would pass 64 bytes
            ([0, 0, 1], 200, False),  # monomial:2: one term per row
            ([0, 1, 1], 200, False),  # x + x^2
            ([0, 3, -2, 1], 200, False),
            ([0, 10**6], 300, False),  # 10^6 x
        ],
    )
    def test_recurrence_route_selection(self, coeffs, order, packed):
        f = PowerSeries.of(coeffs, order=order)
        assert takes_packed_rows(lambda: composita_from_series(f)) == packed

    @pytest.mark.parametrize(
        "g, f, order, packed",
        [
            ("geometric", "fib", 30, False),  # too little work
            ("geometric", "fib", 31, True),  # 31 terms * 32 rows, squared
            ("geometric", "fib", 40, True),
            ("fib", "geometric", 63, True),
            ("1,1,1,1,1", "geometric", 10, False),  # too little work
            ("3/7,2/13", "geometric", 63, False),  # a rational G
        ],
    )
    def test_riordan_route_selection(self, g, f, order, packed):
        # the work counts nnz(F) terms per row and the N + 1 rows built
        g, f = (catalog_series(parse_function_spec(s), order) for s in (g, f))
        assert takes_packed_rows(lambda: riordan_build(g, f)) == packed

    @pytest.mark.parametrize(
        "outer, inner, order, packed",
        [
            ("geometric", "fib", 27, False),
            ("geometric", "fib", 33, True),  # its densest row, not its average
            ("geometric", "fib", 41, True),
        ],
    )
    def test_compose_route_selection(self, outer, inner, order, packed):
        # the tables are built outside the spy, which would count their
        # own packed recurrence
        tf = composita_from_series(catalog_series(parse_function_spec(inner), order))
        tr = composita_from_series(catalog_series(parse_function_spec(outer), order))
        assert takes_packed_rows(lambda: composita_compose(tf, tr)) == packed
